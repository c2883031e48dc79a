//! Whole-system assembly: cores + shared LLC + memory channels.
//!
//! Two simulation kernels drive the same component models
//! ([`crate::config::KernelMode`]):
//!
//! * **Dense** — the legacy reference loop: every core ticks every CPU
//!   cycle, the memory side ticks on every command-clock edge.
//! * **Event** — time skipping: between *interesting* cycles the clock
//!   jumps. A cycle is interesting when a core leaves a mechanical stretch
//!   ([`Core::next_wake`]: blocked cores sleep, and compute stretches are
//!   batched arithmetically at issue width, also while loads are in
//!   flight), when a channel could pick a queued request, flip its
//!   write-drain mode or deliver a completion, or when a rank's refresh
//!   machinery may act ([`crate::policy::RefreshPolicy::next_wake`],
//!   answered under a view borrowing the rank's live bank state). The
//!   memory-tick rational accumulator is advanced in closed form across
//!   skips, so the observable cycle numbers — and therefore every
//!   statistic in [`SimResult`] — are **bit-identical** between the two
//!   kernels (the `perf_kernel` harness and `tests/kernel_equivalence.rs`
//!   enforce it).
//!
//! A cycle the event kernel processes touches only what woke. A core
//! whose cached wake lies ahead is left alone, on processed cycles and
//! across jumps alike, and catches up with one [`Core::skip`] when its
//! wake arrives, a fill reaches it, an epoch sample reads it or the run
//! ends; that is exact because skips compose inside a stretch, and the
//! warmup and target crossings fall on real ticks, so only the cores that
//! ticked in a cycle are checked for them. The channels cache each rank's
//! refresh wake until that rank is touched, apply the write-drain
//! toggle's tick-by-tick oscillation lazily, and book both buses in
//! sliding bitsets ([`crate::controller`]). Completions and LLC fill
//! waiters pass through buffers the system reuses. [`RunTelemetry`]
//! counts the events and the core updates and rank wakes they cost.

use crate::config::{KernelMode, SystemConfig};
use crate::controller::Channel;
use crate::core_model::{Core, CoreRequest};
use crate::llc::{Access, IntMap, Llc, Waiter};
use crate::mapping::decode;
use crate::metrics::SimResult;
use crate::probe::{EpochSample, ProbeHost};
use crate::request::MemRequest;
use hira_workload::WorkloadEnv;

/// How a run spent its time: the simulator-side half of the engine's
/// per-point telemetry ([`System::run_telemetered`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunTelemetry {
    /// Kernel loop iterations actually processed (the event kernel's
    /// skipped cycles are not events — this is the number the kernel
    /// speedup comes from).
    pub events: u64,
    /// High-water mark of any channel's combined read+write queue.
    pub peak_queue: u64,
    /// [`Core::tick`] and [`Core::skip`] calls over all cores: the core
    /// model's share of the work per event (the dense kernel makes one
    /// per core per cycle; the event kernel's lazy catch-up about one per
    /// event).
    pub core_updates: u64,
    /// Rank refresh wakes computed afresh over all channels (the
    /// controller's wake-cache misses): the refresh machinery's share of
    /// the work per event. Each rank's wake is recomputed only after the
    /// rank is touched.
    pub rank_wakes: u64,
}

/// Cumulative channel-stat snapshot an epoch diffs against.
#[derive(Debug, Clone, Copy, Default)]
struct EpochAgg {
    reads: u64,
    writes: u64,
    row_hits: u64,
    dbus: u64,
    refresh_busy: u64,
}

/// Epoch-sampling state ([`crate::probe::Probe::on_epoch`]): fires at
/// every multiple of `every` CPU cycles, in both kernels, at the exact
/// dense cycle — the event kernel clamps its time skips to the next
/// boundary (processing extra cycles is always safe, so results stay
/// bit-identical).
#[derive(Debug)]
struct EpochTracker {
    every: u64,
    index: u64,
    last_insts: u64,
    last_mem_cycle: u64,
    last: EpochAgg,
}

/// A fully-assembled simulated system.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    llc: Llc,
    channels: Vec<Channel>,
    /// Outstanding memory fetches: request id → line address.
    inflight: IntMap<u64>,
    next_req_id: u64,
    mem_tick_acc: u64,
    mem_cycle: u64,
    /// Exact memory-ticks-per-CPU-cycle rational, from the device's clock
    /// pairing.
    tick_num: u64,
    tick_den: u64,
    /// The run's observer (inert unless `cfg.probe` is set).
    probes: ProbeHost,
    /// Epoch sampling, when the probe asked for a cadence.
    epoch: Option<EpochTracker>,
    /// The cores that ticked in the cycle being processed, in core order.
    ticked: Vec<usize>,
    /// Reused buffers: one channel tick's completed request ids, and one
    /// fill's waiters.
    done: Vec<u64>,
    waiters: Vec<Waiter>,
}

impl System {
    /// Builds a system whose demand traffic comes from `cfg.workload`: one
    /// frontend instance per core, built from a per-core [`WorkloadEnv`]
    /// (core index, core count, configuration seed).
    pub fn new(cfg: SystemConfig) -> Self {
        let cores = (0..cfg.cores)
            .map(|i| {
                let env = WorkloadEnv {
                    core: i,
                    cores: cfg.cores,
                    seed: cfg.seed,
                };
                Core::new(i, cfg.workload.build(&env))
            })
            .collect();
        let llc = Llc::new(cfg.llc_bytes, cfg.llc_ways);
        let channels = (0..cfg.channels).map(|c| Channel::new(&cfg, c)).collect();
        let (tick_num, tick_den) = cfg.clock().mem_ticks_per_cpu_cycle();
        let probes = ProbeHost::from_handle(cfg.probe.as_ref());
        let epoch = probes.epoch_every().map(|every| EpochTracker {
            every,
            index: 0,
            last_insts: 0,
            last_mem_cycle: 0,
            last: EpochAgg::default(),
        });
        System {
            cores,
            llc,
            channels,
            inflight: IntMap::default(),
            next_req_id: 0,
            mem_tick_acc: 0,
            mem_cycle: 0,
            tick_num,
            tick_den,
            probes,
            epoch,
            ticked: Vec::with_capacity(cfg.cores),
            done: Vec::new(),
            waiters: Vec::new(),
            cfg,
        }
    }

    /// Runs until every core retires warmup + measurement instructions (or
    /// the safety cycle cap triggers) and returns per-core IPC. Dispatches
    /// on the configured [`KernelMode`]; results are identical either way.
    pub fn run(self) -> SimResult {
        self.run_telemetered().0
    }

    /// [`System::run`] plus run telemetry (events processed, peak queue
    /// depth) — the engine's per-point instrumentation path. The telemetry
    /// is observational: the [`SimResult`] is the same either way.
    ///
    /// Both kernels run one loop. The dense kernel, the reference,
    /// processes every cycle. The event kernel jumps after each processed
    /// cycle straight to the next cycle at which anything observable can
    /// happen.
    pub fn run_telemetered(mut self) -> (SimResult, RunTelemetry) {
        let event = self.cfg.kernel == KernelMode::Event;
        let warmup = self.cfg.warmup_insts;
        let (target, cap) = self
            .cfg
            .run_bounds()
            .expect("the instruction budget overflows u64");
        let mut warm_cycle = vec![None::<u64>; self.cores.len()];
        let mut roi_ended = vec![false; self.cores.len()];
        let mut ended = 0;
        let mut cycle = 0u64;
        let mut events = 0u64;
        loop {
            // One processed cycle: the CPU side, warmup/ROI bookkeeping,
            // then every memory tick the rational accumulator yields. A
            // core crosses its warmup or target count only in a real tick
            // (its wake stops short of the crossing), so only the cores
            // that ticked in this cycle can have crossed one.
            self.tick_cpu(cycle, target, warmup);
            for &i in &self.ticked {
                let c = &mut self.cores[i];
                if warm_cycle[i].is_none() && c.retired >= warmup {
                    warm_cycle[i] = Some(cycle);
                    c.begin_roi();
                }
                if !roi_ended[i] && c.finished_at.is_some() {
                    roi_ended[i] = true;
                    ended += 1;
                    c.end_roi();
                }
            }
            // Memory clock: the device's exact rational (DDR4-2400: 3
            // ticks per 8 CPU cycles; the 3200 MT/s parts: 1 per 2).
            self.mem_tick_acc += self.tick_num;
            while self.mem_tick_acc >= self.tick_den {
                self.mem_tick_acc -= self.tick_den;
                self.tick_mem(cycle, target, warmup);
            }
            events += 1;
            cycle += 1;
            self.maybe_epoch(cycle);
            if ended == self.cores.len() || cycle >= cap {
                break;
            }
            if !event {
                continue;
            }
            // Skip the provably uninteresting span, never past the cap
            // (the skipped cycles still count: SimResult::cycles and the
            // mem-tick accumulator advance exactly as the dense loop's
            // no-op iterations would have advanced them). The cores stay
            // where they are: each catches up when it is next touched.
            let mut next = self.next_interesting_cycle(cycle).min(cap);
            // Epoch sampling clamps the skip to the next boundary so the
            // sample is taken at its exact dense cycle — processing the
            // boundary cycle for real is safe (a no-op iteration, exactly
            // as the dense kernel would have run it).
            if let Some(ep) = &self.epoch {
                next = next.min((cycle / ep.every + 1) * ep.every);
            }
            if next > cycle {
                let span = next - cycle;
                let acc = self.mem_tick_acc + span * self.tick_num;
                self.mem_cycle += acc / self.tick_den;
                self.mem_tick_acc = acc % self.tick_den;
                cycle = next;
                self.maybe_epoch(cycle);
                if cycle >= cap {
                    break;
                }
            }
        }
        for c in &mut self.cores {
            c.catch_up(cycle);
        }
        self.collect(cycle, target, warmup, &warm_cycle, events)
    }

    /// Fires the epoch probe when `cycle` is a sampling boundary. Every
    /// sample covers exactly `every` CPU cycles of history (its deltas are
    /// against the previous boundary); a trailing partial epoch is not
    /// sampled. Both kernels call this at every boundary — the dense loop
    /// passes through every cycle, the event loop clamps its skips — so
    /// the sequences match sample-for-sample.
    fn maybe_epoch(&mut self, cycle: u64) {
        let Some(ep) = &mut self.epoch else {
            return;
        };
        if cycle == 0 || !cycle.is_multiple_of(ep.every) {
            return;
        }
        for c in &mut self.cores {
            c.catch_up(cycle);
        }
        let mut agg = EpochAgg::default();
        let mut read_q = 0u64;
        let mut write_q = 0u64;
        for ch in &self.channels {
            let s = ch.stats();
            agg.reads += s.reads_done;
            agg.writes += s.writes_done;
            agg.row_hits += s.row_hits;
            agg.dbus += s.data_bus_busy;
            agg.refresh_busy += s.refresh_busy;
            let (r, w) = ch.queue_depths();
            read_q += r as u64;
            write_q += w as u64;
        }
        let insts: u64 = self.cores.iter().map(|c| c.retired).sum();
        let d_insts = insts - ep.last_insts;
        let d_reads = agg.reads - ep.last.reads;
        let d_writes = agg.writes - ep.last.writes;
        let d_cas = d_reads + d_writes;
        let d_mem = self.mem_cycle - ep.last_mem_cycle;
        let epoch_ns = ep.every as f64 / self.cfg.clock().cpu_ghz();
        let frac = |num: u64, den: f64| if den > 0.0 { num as f64 / den } else { 0.0 };
        let banks = (self.cfg.channels * self.cfg.ranks * self.cfg.banks as usize) as f64;
        let sample = EpochSample {
            epoch: ep.index,
            cycle,
            mem_cycle: self.mem_cycle,
            insts: d_insts,
            ipc: d_insts as f64 / ep.every as f64,
            reads: d_reads,
            writes: d_writes,
            read_gbps: d_reads as f64 * 64.0 / epoch_ns,
            write_gbps: d_writes as f64 * 64.0 / epoch_ns,
            dbus_util: frac(
                agg.dbus - ep.last.dbus,
                d_mem as f64 * self.cfg.channels as f64,
            ),
            row_hit_rate: frac(agg.row_hits - ep.last.row_hits, d_cas as f64),
            read_q,
            write_q,
            refresh_occupancy: frac(
                agg.refresh_busy - ep.last.refresh_busy,
                d_mem as f64 * banks,
            ),
        };
        ep.index += 1;
        ep.last_insts = insts;
        ep.last_mem_cycle = self.mem_cycle;
        ep.last = agg;
        self.probes.on_epoch(&sample);
    }

    /// The earliest cycle at or after `cur` whose iteration can do
    /// anything: the minimum of the cores' wakes and the CPU cycle
    /// containing the channels' next memory-side event. Pending LLC→
    /// channel transfers pin the answer to `cur` (their retry runs inside
    /// every `tick_cpu`).
    fn next_interesting_cycle(&mut self, cur: u64) -> u64 {
        if !self.llc.fetch_queue.is_empty() || !self.llc.writeback_queue.is_empty() {
            return cur;
        }
        let mut wake = u64::MAX;
        for c in &self.cores {
            // Caches are refreshed whenever a core ticks or takes a fill,
            // so the minimum over them is always current.
            wake = wake.min(c.wake_cache);
            if wake <= cur {
                return cur;
            }
        }
        let mut tick = u64::MAX;
        for ch in &mut self.channels {
            tick = tick.min(ch.next_event(self.mem_cycle));
        }
        if tick != u64::MAX {
            wake = wake.min(self.cycle_of_tick(cur, tick));
        }
        wake.max(cur)
    }

    /// The CPU cycle (at or after `cur`) whose iteration processes the
    /// absolute memory tick `tick`, given the current accumulator state.
    fn cycle_of_tick(&self, cur: u64, tick: u64) -> u64 {
        debug_assert!(tick > self.mem_cycle);
        let pending = (tick - self.mem_cycle) as u128;
        // Smallest n >= 1 with acc + n * num >= pending * den; the tick
        // then fires inside the iteration at cur + n - 1.
        let need = pending * self.tick_den as u128 - self.mem_tick_acc as u128;
        let n = need.div_ceil(self.tick_num as u128);
        cur + n as u64 - 1
    }

    fn collect(
        mut self,
        cycle: u64,
        target: u64,
        warmup: u64,
        warm_cycle: &[Option<u64>],
        events: u64,
    ) -> (SimResult, RunTelemetry) {
        let ipc = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let start = warm_cycle[i].unwrap_or(0);
                let end = c.finished_at.unwrap_or(cycle);
                let insts = c.retired.min(target) - warmup.min(c.retired);
                insts as f64 / (end.saturating_sub(start).max(1)) as f64
            })
            .collect();
        let result = SimResult {
            ipc,
            workloads: self
                .cores
                .iter()
                .map(|c| c.workload_name().to_owned())
                .collect(),
            cycles: cycle,
            mem_cycles: self.mem_cycle,
            channel_stats: self.channels.iter().map(Channel::stats).collect(),
            mc_stats: self.channels.iter().flat_map(Channel::mc_stats).collect(),
            policy_stats: self
                .channels
                .iter()
                .flat_map(Channel::policy_stats)
                .collect(),
            plugin_stats: self
                .channels
                .iter()
                .flat_map(Channel::plugin_stats)
                .collect(),
        };
        self.probes.on_run_end(&result);
        let telemetry = RunTelemetry {
            events,
            core_updates: self.cores.iter().map(|c| c.updates).sum(),
            rank_wakes: self.channels.iter().map(Channel::rank_wakes).sum(),
            peak_queue: self
                .channels
                .iter()
                .map(|ch| ch.peak_queue() as u64)
                .max()
                .unwrap_or(0),
        };
        (result, telemetry)
    }

    fn tick_cpu(&mut self, cycle: u64, target: u64, warmup: u64) {
        // Split borrows: cores vs the memory side.
        let System {
            cores,
            llc,
            channels,
            inflight,
            next_req_id,
            cfg,
            mem_cycle,
            ticked,
            ..
        } = self;
        let event = cfg.kernel == KernelMode::Event;
        ticked.clear();
        for core in cores.iter_mut() {
            // Event kernel: a core whose cached wake lies ahead is left
            // alone — this cycle is being processed for some other
            // component's sake. A core whose wake arrived first catches
            // up over the cycles it sat out, in one skip.
            if event && core.wake_cache > cycle {
                continue;
            }
            core.catch_up(cycle);
            let core_id = core.id;
            core.tick(cycle, target, |c, req| match req {
                CoreRequest::Load { line, entry } => {
                    match llc.access(line, false, Some((core_id, entry))) {
                        Access::Hit => {
                            c.complete_at(cycle + Llc::HIT_LATENCY, entry);
                            true
                        }
                        Access::Miss => true,
                        Access::Busy => false,
                    }
                }
                CoreRequest::Store { line } => {
                    matches!(llc.access(line, true, None), Access::Hit | Access::Miss)
                }
            });
            ticked.push(core_id);
            if event {
                core.wake_cache = core.next_wake(cycle + 1, target, warmup);
            }
        }
        // Move LLC fetches/writebacks into channel queues (with back-pressure).
        llc.fetch_queue.retain(|&line| {
            let addr = decode(cfg, line * 64);
            let ch = &mut channels[addr.channel];
            if ch.can_accept_read() {
                let id = *next_req_id;
                *next_req_id += 1;
                inflight.insert(id, line);
                ch.enqueue(MemRequest {
                    id,
                    addr,
                    is_write: false,
                    arrived: *mem_cycle,
                });
                false
            } else {
                true
            }
        });
        llc.writeback_queue.retain(|&line| {
            let addr = decode(cfg, line * 64);
            let ch = &mut channels[addr.channel];
            if ch.can_accept_write() {
                let id = *next_req_id;
                *next_req_id += 1;
                ch.enqueue(MemRequest {
                    id,
                    addr,
                    is_write: true,
                    arrived: *mem_cycle,
                });
                false
            } else {
                true
            }
        });
    }

    /// One memory tick, inside the iteration of CPU cycle `cycle`.
    fn tick_mem(&mut self, cycle: u64, target: u64, warmup: u64) {
        self.mem_cycle += 1;
        let now = self.mem_cycle;
        let event = self.cfg.kernel == KernelMode::Event;
        let System {
            cores,
            llc,
            channels,
            inflight,
            probes,
            done,
            waiters,
            ..
        } = self;
        for ch in channels.iter_mut() {
            done.clear();
            ch.tick_probed(now, probes, done);
            for req_id in done.iter() {
                if let Some(line) = inflight.remove(req_id) {
                    waiters.clear();
                    llc.fill(line, waiters);
                    for &(core, entry) in waiters.iter() {
                        let c = &mut cores[core];
                        // The fill lands after this cycle's CPU side, so
                        // the core first advances through this cycle (a
                        // no-op if it ticked in it); its wake can then be
                        // re-derived right away: a fill deeper in the
                        // window does not cut a compute stretch short.
                        c.catch_up(cycle + 1);
                        c.complete(entry);
                        if event {
                            c.wake_cache = c.next_wake(cycle + 1, target, warmup);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::policy::{self, PolicyHandle};
    use hira_workload::{mix_with_seed, random, stream, WorkloadHandle};

    /// The legacy `mixes(1, 8, seed)[0]` workloads, bit-identical through
    /// the handle frontend.
    fn legacy_mix(seed: u64) -> WorkloadHandle {
        mix_with_seed(0, seed)
    }

    fn tiny(refresh: PolicyHandle) -> SystemConfig {
        SystemConfig::table3(8.0, refresh).with_insts(4_000, 500)
    }

    #[test]
    fn a_mix_runs_to_completion_and_reports_ipc() {
        let cfg = tiny(policy::noref()).with_workload(legacy_mix(3));
        let r = System::new(cfg).run();
        assert_eq!(r.ipc.len(), 8);
        assert!(
            r.ipc.iter().all(|&x| x > 0.0 && x <= 4.0),
            "ipc {:?}",
            r.ipc
        );
        assert!(r.total_reads() > 0);
        // Per-core workload names are the mix members.
        assert_eq!(r.workloads.len(), 8);
        assert!(r
            .workloads
            .iter()
            .all(|n| hira_workload::benchmark(n).is_some()));
    }

    #[test]
    fn refresh_overhead_orders_the_schemes() {
        // NoRefresh ≥ HiRA ≥ Baseline in weighted speedup at high capacity.
        let capacity = 64.0;
        let mk = |r| {
            SystemConfig::table3(capacity, r)
                .with_insts(4_000, 500)
                .with_workload(legacy_mix(9))
        };
        let ideal = System::new(mk(policy::noref())).run();
        let alone: Vec<f64> = vec![1.0; 8]; // common weights: ratios only
        let ws_ideal = ideal.weighted_speedup(&alone);
        let base = System::new(mk(policy::baseline())).run();
        let ws_base = base.weighted_speedup(&alone);
        let hira = System::new(mk(policy::hira(2))).run();
        let ws_hira = hira.weighted_speedup(&alone);
        assert!(ws_ideal > ws_base, "ideal {ws_ideal} vs baseline {ws_base}");
        assert!(
            ws_hira > ws_base,
            "HiRA {ws_hira} should beat baseline {ws_base} at {capacity} Gb"
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let cfg = || tiny(policy::baseline()).with_workload(legacy_mix(5));
        let a = System::new(cfg()).run();
        let b = System::new(cfg()).run();
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn generator_workloads_drive_the_memory_system() {
        // The parametric family flows through the same frontend: streaming
        // traffic row-hits far more than uniform-random traffic.
        let run =
            |wl: WorkloadHandle| System::new(tiny(policy::baseline()).with_workload(wl)).run();
        let seq = run(stream());
        let rnd = run(random());
        assert!(seq.total_reads() > 0 && rnd.total_reads() > 0);
        assert!(
            seq.row_hit_rate() > rnd.row_hit_rate() + 0.2,
            "stream {} vs random {}",
            seq.row_hit_rate(),
            rnd.row_hit_rate()
        );
        assert_eq!(rnd.workloads, vec!["random"; 8]);
    }

    #[test]
    fn hira_mc_refreshes_rows_in_the_background() {
        let cfg = tiny(policy::hira(4)).with_workload(legacy_mix(7));
        let r = System::new(cfg).run();
        let mc = r.mc_stats.first().expect("HiRA-MC configured");
        assert!(mc.periodic_generated > 0);
        let served = mc.refresh_access + mc.refresh_refresh + mc.singles;
        assert!(
            served + 80 >= mc.periodic_generated,
            "served {served} of {} generated",
            mc.periodic_generated
        );
        // The policy-level counters agree with the HiRA-MC view.
        let ps = r.policy_stats.first().expect("policy stats");
        assert_eq!(ps.rows_refreshed, served);
    }

    #[test]
    fn new_policies_run_end_to_end() {
        // The open API's genuinely new arrangements simulate and land
        // between the ideal and nothing: refresh costs, never gains.
        let mk = |p| tiny(p).with_workload(legacy_mix(13));
        let ideal: f64 = System::new(mk(policy::noref())).run().ipc.iter().sum();
        for p in [policy::refpb(), policy::raidr()] {
            let name = p.name().to_owned();
            let r = System::new(mk(p)).run();
            let ipc: f64 = r.ipc.iter().sum();
            assert!(ipc > 0.0, "{name}: no forward progress");
            assert!(
                ipc <= ideal * 1.001,
                "{name}: refresh ({ipc}) beat the ideal bound ({ideal})"
            );
        }
    }
}
