//! Per-channel memory controller: FR-FCFS scheduling over a detailed DDR
//! timing model, with refresh machinery driven entirely through the open
//! [`RefreshPolicy`] interface and all timing supplied by the configured
//! device ([`crate::device::DeviceModel`]) as a [`CommandTable`] on the
//! device's own command-clock grid.
//!
//! The timing model enforces, in command-clock cycles: `tRCD`, `tRAS`,
//! `tRP`, `tRC`, `tRRD_S/L`, `tFAW`, `tCCD_S/L`, `tCL/tCWL/tBL`, `tWR`,
//! `tWTR`, `tRTP`, `tRFC`/`tREFI`, the one-command-per-cycle command bus and
//! the shared data bus. HiRA operations occupy their real command slots
//! (`ACT`, `PRE`, `ACT` at `t1`/`t2` offsets) and count both activations
//! against `tFAW`/`tRRD`, as §5.2 requires.
//!
//! The controller/policy protocol: each rank owns one boxed
//! [`RefreshPolicy`]. Every memory tick the controller calls the policy's
//! `tick`, then polls `next_action` against a [`RankView`] that borrows the
//! rank's own [`Bank`] records and per-bank demand counts, and executes
//! each returned [`RefreshAction`] on the command/data-bus model. Demand
//! activations consult `on_demand_act` for refresh-access expansion, and
//! *every* executed activation — demand, refresh, preventive — is reported
//! back through `on_act_executed`. Under the event kernel, a rank whose
//! policy's `next_wake` (under the same borrowed view) and plugins' wakes
//! all lie ahead is not ticked or polled at all. That rank wake is cached
//! until the rank's own state changes: a request queued to it, a tick at
//! which it passes the refresh gate, or a demand commit on it clears it.
//! So [`Channel::next_event`] computes it once after the rank is touched,
//! and every later refresh gate and `next_event` read the same answer.
//!
//! The write-drain toggle is evaluated lazily. With no reads and 1 to 16
//! writes (the low watermark) queued it flips on every tick, yet FR-FCFS
//! picks from the write queue in either state, so the event kernel skips
//! those ticks like any other. The channel records the first tick its
//! toggle does not reflect yet and, before the toggle is next evaluated or
//! a queue changes, applies the skipped flips in closed form: the mode
//! flips iff the queue oscillated over an odd number of skipped ticks.
//!
//! Both buses are sliding bitsets of busy command-clock cycles: every
//! reservation starts at or after the current cycle, so each tick drops
//! the words behind it, and the first free command slot or data-bus gap
//! is a few word operations.

use crate::clock::{MemClock, MemCycle};
use crate::config::{KernelMode, SystemConfig};
use crate::device::CommandTable;
use crate::metrics::LatencyHistogram;
use crate::plugin::{ControllerPlugin, PluginEnv, PluginStats};
use crate::policy::{
    DemandDecision, PolicyEnv, PolicyStats, RankView, RefreshAction, RefreshPolicy,
};
use crate::probe::{DramCmd, ProbeHost};
use crate::request::MemRequest;
use hira_core::finder::McStats;
use hira_core::hira_op::HiraOperation;
use hira_dram::addr::{BankId, RowId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// How far into the future a service may be committed (cycles). Loose
/// enough that a refresh-busy bank still accepts demand work behind the
/// in-flight refreshes, tight enough that the schedule stays contestable.
const COMMIT_HORIZON: MemCycle = 360;

/// Write-drain watermarks.
const WQ_HIGH: usize = 48;
const WQ_LOW: usize = 16;

/// A bus's reserved command-clock cycles, one bit per cycle, in a window
/// that slides forward with `now`. Both buses are one of these: the
/// command bus books one-cycle slots (HiRA's mid-sequence commands are
/// scheduled ahead of time), the data bus fixed-length bursts with gap
/// filling, so a far-future burst (refresh-delayed bank) does not
/// serialize earlier-ready bursts behind it. Every allocation starts at or
/// after the current cycle, so [`BusSlots::prune`] forgets everything
/// before it.
#[derive(Debug, Default)]
struct BusSlots {
    /// Cycle of bit 0 of `words[0]`, a multiple of 64.
    base: MemCycle,
    /// Bit `i` of `words[k]` set: cycle `base + 64 k + i` is reserved.
    words: VecDeque<u64>,
    /// The last prune point: no allocation starts before it.
    floor: MemCycle,
}

impl BusSlots {
    /// The reservation bits of the 64 cycles from `at` (bit `i`: cycle
    /// `at + i`).
    fn window(&self, at: MemCycle) -> u64 {
        let off = at - self.base;
        let (k, shift) = ((off / 64) as usize, off % 64);
        let word = |k| self.words.get(k).copied().unwrap_or(0);
        let low = word(k) >> shift;
        if shift == 0 {
            low
        } else {
            low | word(k + 1) << (64 - shift)
        }
    }

    /// Reserves the first `len` consecutive free cycles (`1..=64`) that
    /// start at or after `earliest`, and returns their start.
    fn alloc(&mut self, earliest: MemCycle, len: MemCycle) -> MemCycle {
        debug_assert!(
            earliest >= self.floor,
            "allocation at {earliest} before the prune point {}",
            self.floor
        );
        debug_assert!((1..=64).contains(&len), "run of {len} cycles");
        let run = u64::MAX >> (64 - len);
        let mut start = earliest;
        loop {
            let bits = self.window(start);
            let busy = bits & run;
            if busy == 0 {
                break;
            }
            // Every start up to the run's last reserved cycle overlaps it,
            // and so does every start on the reserved cycles right after.
            let past = 64 - busy.leading_zeros();
            start += u64::from(past + bits.checked_shr(past).unwrap_or(0).trailing_ones());
        }
        let off = start - self.base;
        let (k, shift) = ((off / 64) as usize, off % 64);
        let words = (off + len).div_ceil(64) as usize;
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
        self.words[k] |= run << shift;
        if shift + len > 64 {
            self.words[k + 1] |= run >> (64 - shift);
        }
        start
    }

    /// Forgets every reservation before `now`: no later allocation starts
    /// before it, so none can conflict with them.
    fn prune(&mut self, now: MemCycle) {
        self.floor = now;
        let keep = now - now % 64;
        while self.base < keep {
            if self.words.pop_front().is_none() {
                self.base = keep;
                break;
            }
            self.base += 64;
        }
    }
}

/// One bank's scheduling state, as the controller keeps it and a
/// [`RankView`] lends it to the rank's policy. The timestamps are lazy:
/// they name the earliest cycle of each command and need no ticking.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bank {
    /// The open row, if any.
    pub open_row: Option<u32>,
    /// Earliest cycle the bank can start an `ACT`.
    pub next_act: MemCycle,
    /// Earliest cycle the bank can be precharged.
    pub next_pre: MemCycle,
    /// Earliest cycle of the bank's next column command.
    pub next_cas: MemCycle,
}

#[derive(Debug)]
struct Rank {
    /// Recent ACT times (ascending) for the tFAW window.
    acts: VecDeque<MemCycle>,
    /// tRRD_S horizon (any bank in the rank).
    next_act_any: MemCycle,
    /// tRRD_L horizon per bank group.
    next_act_bg: Vec<MemCycle>,
    /// Earliest read CAS (write→read turnaround).
    next_rd: MemCycle,
    /// Last CAS bank group + end (tCCD_L/S resolution).
    last_cas_bg: Option<u16>,
    /// The rank's refresh arrangement.
    policy: Box<dyn RefreshPolicy>,
    /// The rank's controller plugins (RowHammer defenses), in
    /// [`SystemConfig::plugins`] order. Each observes every executed
    /// activation and may inject preventive refreshes.
    plugins: Vec<Box<dyn ControllerPlugin>>,
    /// The rank's refresh wake ([`Channel::rank_wake`]) as `(cycle it was
    /// asked at, wake)`, kept until the rank's state can change: a request
    /// queued to it, a tick at which it passes the refresh gate, or a
    /// demand commit on it clears it.
    wake: Option<(MemCycle, MemCycle)>,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Demand reads completed.
    pub reads_done: u64,
    /// Demand writes issued to DRAM.
    pub writes_done: u64,
    /// Row-buffer hits among demand CAS operations.
    pub row_hits: u64,
    /// Demand activations issued.
    pub demand_acts: u64,
    /// Activations issued for refresh (HiRA hidden rows, singles, pairs,
    /// immediate preventive refreshes).
    pub refresh_acts: u64,
    /// Rank-level `REF` commands issued.
    pub ref_commands: u64,
    /// Per-bank `REFpb` commands issued.
    pub refpb_commands: u64,
    /// Demand ACTs converted into HiRA refresh-access operations.
    pub hira_access_ops: u64,
    /// Sum of read queueing latencies (cycles), for average latency.
    pub read_latency_sum: u64,
    /// Sum of write service latencies (arrival to end of write burst,
    /// cycles), for average latency.
    pub write_latency_sum: u64,
    /// Command-clock cycles the data bus spent transferring bursts.
    pub data_bus_busy: u64,
    /// Log2-bucketed distribution of the read latencies behind
    /// [`ChannelStats::read_latency_sum`]. Always on: two array writes per
    /// CAS, which is noise next to the scheduling work.
    pub read_lat_hist: LatencyHistogram,
    /// Log2-bucketed distribution of the write service latencies.
    pub write_lat_hist: LatencyHistogram,
    /// Bank-cycles spent blocked by refresh (a rank-level `REF` counts
    /// `tRFC` once per bank; bank-granular actions count their own
    /// blocking window), for refresh-occupancy rates.
    pub refresh_busy: u64,
}

/// One memory channel and its controller.
#[derive(Debug)]
pub struct Channel {
    /// This channel's index in the system (probe event addressing).
    idx: usize,
    timing: CommandTable,
    clock: MemClock,
    kernel: KernelMode,
    banks_per_rank: u16,
    bank_groups: u16,
    read_q: Vec<MemRequest>,
    write_q: Vec<MemRequest>,
    queue_depth: usize,
    /// High-water mark of `read_q.len() + write_q.len()` (run telemetry).
    peak_queue: usize,
    banks: Vec<Bank>,
    ranks: Vec<Rank>,
    /// The command bus: one command per cycle.
    bus: BusSlots,
    /// The data bus: one burst of `tBL` cycles at a time.
    data_bus: BusSlots,
    completions: BinaryHeap<Reverse<(MemCycle, u64)>>,
    write_mode: bool,
    /// The first tick whose write-drain toggle `write_mode` does not
    /// reflect yet ([`Channel::settle_drain`]).
    drain_due: MemCycle,
    stats: ChannelStats,
    /// Demand requests queued (read and write) per bank of every rank,
    /// kept as requests enqueue and commit.
    queued: Vec<u32>,
    /// Fresh rank-wake computations, that is, [`Channel::rank_wake`]
    /// cache misses (run telemetry).
    rank_wakes: u64,
}

impl Channel {
    /// Builds the channel from the system config, instantiating one policy
    /// object per rank through the config's [`crate::policy::PolicyHandle`].
    pub fn new(cfg: &SystemConfig, channel_idx: usize) -> Self {
        let ranks: Vec<Rank> = (0..cfg.ranks)
            .map(|r| {
                let env = PolicyEnv::for_rank(cfg, channel_idx, r);
                Rank {
                    acts: VecDeque::with_capacity(8),
                    next_act_any: 0,
                    next_act_bg: vec![0; cfg.bank_groups as usize],
                    next_rd: 0,
                    last_cas_bg: None,
                    policy: cfg.refresh.build(&env),
                    plugins: cfg
                        .plugins
                        .iter()
                        .enumerate()
                        .map(|(i, h)| h.build(&PluginEnv::for_rank(cfg, channel_idx, r, i)))
                        .collect(),
                    wake: None,
                }
            })
            .collect();
        // HiRA lead timing comes from the policy handle when it issues
        // HiRA operations; nominal t1 = t2 = 3 ns otherwise (unused then).
        let (t1, t2) = cfg.refresh.hira_lead().unwrap_or_else(|| {
            let t = HiraOperation::nominal().timings;
            (t.t1, t.t2)
        });
        // The integer table quantizes `cfg.timing` (which the device
        // supplied at build time, but may have been overridden since)
        // onto the device's command grid.
        let clock = cfg.clock();
        let timing = CommandTable::from_ns(&cfg.timing, &clock, t1, t2);
        Channel {
            idx: channel_idx,
            timing,
            clock,
            kernel: cfg.kernel,
            banks_per_rank: cfg.banks,
            bank_groups: cfg.bank_groups,
            read_q: Vec::with_capacity(cfg.queue_depth),
            write_q: Vec::with_capacity(cfg.queue_depth),
            queue_depth: cfg.queue_depth,
            peak_queue: 0,
            banks: vec![Bank::default(); cfg.ranks * cfg.banks as usize],
            ranks,
            bus: BusSlots::default(),
            data_bus: BusSlots::default(),
            completions: BinaryHeap::new(),
            write_mode: false,
            drain_due: 0,
            stats: ChannelStats::default(),
            queued: vec![0; cfg.ranks * cfg.banks as usize],
            rank_wakes: 0,
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Current read/write queue occupancy (epoch sampling).
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.read_q.len(), self.write_q.len())
    }

    /// High-water mark of the combined queue occupancy (run telemetry).
    pub fn peak_queue(&self) -> usize {
        self.peak_queue
    }

    /// Rank wakes computed afresh so far, over all ranks (run telemetry).
    pub fn rank_wakes(&self) -> u64 {
        self.rank_wakes
    }

    /// Per-rank HiRA-MC statistics, where a HiRA-MC-backed policy is
    /// configured.
    pub fn mc_stats(&self) -> Vec<McStats> {
        self.ranks
            .iter()
            .flat_map(|r| r.policy.mc_stats())
            .collect()
    }

    /// Per-rank policy service counters.
    pub fn policy_stats(&self) -> Vec<PolicyStats> {
        self.ranks.iter().map(|r| r.policy.stats()).collect()
    }

    /// Per-rank plugin counters, rank-major in plugin-ordinal order.
    pub fn plugin_stats(&self) -> Vec<PluginStats> {
        self.ranks
            .iter()
            .flat_map(|r| r.plugins.iter().map(|p| p.stats()))
            .collect()
    }

    /// True when the read queue can accept another request.
    pub fn can_accept_read(&self) -> bool {
        self.read_q.len() < self.queue_depth
    }

    /// True when the write queue can accept another request.
    pub fn can_accept_write(&self) -> bool {
        self.write_q.len() < self.queue_depth
    }

    /// Enqueues a request (caller must have checked acceptance).
    /// `req.arrived` is the current memory cycle, and the request arrives
    /// after that cycle's tick, as in [`crate::System`], whose CPU side
    /// queues requests after the memory tick it last counted.
    pub fn enqueue(&mut self, req: MemRequest) {
        self.settle_drain(req.arrived);
        let bi = self.bank_index(req.addr.rank, req.addr.bank);
        self.queued[bi] += 1;
        self.ranks[req.addr.rank].wake = None;
        if req.is_write {
            debug_assert!(self.can_accept_write());
            self.write_q.push(req);
        } else {
            debug_assert!(self.can_accept_read());
            self.read_q.push(req);
        }
        self.peak_queue = self.peak_queue.max(self.read_q.len() + self.write_q.len());
    }

    fn bank_index(&self, rank: usize, bank: u16) -> usize {
        rank * self.banks_per_rank as usize + bank as usize
    }

    /// Earliest cycle an ACT can start in `rank` at or after `earliest`,
    /// honouring tRRD and tFAW.
    fn act_constraint(&self, rank: usize, bg: u16, earliest: MemCycle) -> MemCycle {
        let r = &self.ranks[rank];
        let mut a = earliest.max(r.next_act_any).max(r.next_act_bg[bg as usize]);
        // tFAW: the 4th-most-recent ACT before `a` must be faw-old. `acts`
        // is ascending, so the ACTs at or before `a` are a prefix.
        loop {
            let recent = r.acts.iter().take_while(|&&t| t <= a).count();
            if recent < 4 {
                break;
            }
            let fourth = r.acts[recent - 4];
            if fourth + self.timing.faw <= a {
                break;
            }
            a = fourth + self.timing.faw;
        }
        a
    }

    fn record_act(&mut self, rank: usize, bg: u16, at: MemCycle) {
        let t = self.timing;
        let r = &mut self.ranks[rank];
        let pos = r.acts.iter().position(|&x| x > at).unwrap_or(r.acts.len());
        r.acts.insert(pos, at);
        while r.acts.len() > 8 {
            r.acts.pop_front();
        }
        r.next_act_any = r.next_act_any.max(at + t.rrd_s);
        r.next_act_bg[bg as usize] = r.next_act_bg[bg as usize].max(at + t.rrd_l);
    }

    /// Reports an executed activation to the rank's policy (PARA sampling,
    /// HiRA-MC bookkeeping) and to every plugin (aggressor tracking) —
    /// demand rows, refresh singles, pair halves and injected victims
    /// alike, never filtered.
    fn notify_act(&mut self, rank: usize, at: MemCycle, bank: u16, row: u32) {
        let now_ns = self.clock.cycles_to_ns(at);
        let r = &mut self.ranks[rank];
        r.policy.on_act_executed(now_ns, BankId(bank), RowId(row));
        for p in &mut r.plugins {
            p.on_act(now_ns, BankId(bank), RowId(row));
        }
    }

    /// Closes `bi`'s open row if any (PRE on the command bus) and returns
    /// the earliest cycle the bank can start a new row operation at or
    /// after `now` — the common prologue of every bank-granular refresh.
    fn close_open_row(
        &mut self,
        now: MemCycle,
        bi: usize,
        rank: usize,
        bank: u16,
        probes: &mut ProbeHost,
    ) -> MemCycle {
        let mut start = now.max(self.banks[bi].next_act);
        if self.banks[bi].open_row.is_some() {
            let pre_at = self.bus.alloc(now.max(self.banks[bi].next_pre), 1);
            self.banks[bi].open_row = None;
            start = start.max(pre_at + self.timing.rp);
            probes.on_cmd(pre_at, self.idx, rank, Some(bank), None, DramCmd::Pre);
        }
        start
    }

    /// Places a HiRA operation in bank group `bg` of `rank`, from `act_at`,
    /// a slot that already clears tRRD/tFAW: moves it until the second ACT,
    /// `t1 + t2` later, clears them too, books the first ACT, its PRE `t1`
    /// later and the second ACT on the command bus, and records both ACTs.
    /// Returns `(first ACT, PRE, second ACT)`.
    fn place_hira(
        &mut self,
        rank: usize,
        bg: u16,
        act_at: MemCycle,
    ) -> (MemCycle, MemCycle, MemCycle) {
        let t = self.timing;
        let lead = t.t1 + t.t2;
        let mut a1 = act_at;
        loop {
            let a2 = self.act_constraint(rank, bg, a1 + lead);
            if a2 == a1 + lead {
                break;
            }
            a1 = a2 - lead;
        }
        let a1 = self.bus.alloc(a1, 1);
        let pre = self.bus.alloc(a1 + t.t1, 1);
        let a2 = self.bus.alloc(a1 + lead, 1);
        self.record_act(rank, bg, a1);
        self.record_act(rank, bg, a2);
        (a1, pre, a2)
    }

    /// Issues a standalone single-row refresh (ACT + PRE) on `bank`.
    fn issue_single_refresh(
        &mut self,
        now: MemCycle,
        rank: usize,
        bank: u16,
        row: u32,
        probes: &mut ProbeHost,
    ) {
        let t = self.timing;
        let bg = bank / (self.banks_per_rank / self.bank_groups);
        let bi = self.bank_index(rank, bank);
        let start = self.close_open_row(now, bi, rank, bank, probes);
        let start = self.act_constraint(rank, bg, start);
        let act_at = self.bus.alloc(start, 1);
        let pre_at = self.bus.alloc(act_at + t.ras, 1);
        self.record_act(rank, bg, act_at);
        let b = &mut self.banks[bi];
        b.next_act = act_at + t.ras + t.rp;
        b.next_pre = act_at + t.ras;
        b.open_row = None;
        self.stats.refresh_acts += 1;
        self.stats.refresh_busy += t.ras + t.rp;
        probes.on_cmd(act_at, self.idx, rank, Some(bank), Some(row), DramCmd::Act);
        probes.on_cmd(pre_at, self.idx, rank, Some(bank), None, DramCmd::Pre);
        self.notify_act(rank, act_at, bank, row);
    }

    /// Issues a HiRA refresh-refresh pair on `bank`.
    #[allow(clippy::too_many_arguments)]
    fn issue_pair_refresh(
        &mut self,
        now: MemCycle,
        rank: usize,
        bank: u16,
        first: u32,
        second: u32,
        probes: &mut ProbeHost,
    ) {
        let t = self.timing;
        let bg = bank / (self.banks_per_rank / self.bank_groups);
        let bi = self.bank_index(rank, bank);
        let start = self.close_open_row(now, bi, rank, bank, probes);
        let start = self.act_constraint(rank, bg, start);
        let (a1, pre1, a2) = self.place_hira(rank, bg, start);
        let pre2 = self.bus.alloc(a2 + t.ras, 1);
        let lead = t.t1 + t.t2;
        let b = &mut self.banks[bi];
        b.next_act = a2 + t.ras + t.rp;
        b.next_pre = a2 + t.ras;
        b.open_row = None;
        self.stats.refresh_acts += 2;
        self.stats.refresh_busy += lead + t.ras + t.rp;
        probes.on_cmd(a1, self.idx, rank, Some(bank), Some(first), DramCmd::Act);
        probes.on_cmd(pre1, self.idx, rank, Some(bank), None, DramCmd::Pre);
        probes.on_cmd(a2, self.idx, rank, Some(bank), Some(second), DramCmd::Act);
        probes.on_cmd(pre2, self.idx, rank, Some(bank), None, DramCmd::Pre);
        self.notify_act(rank, a1, bank, first);
        self.notify_act(rank, a2, bank, second);
    }

    /// Rank-level REF: close every bank, issue REF, block `tRFC`.
    fn issue_rank_ref(&mut self, now: MemCycle, rank: usize, probes: &mut ProbeHost) {
        let t = self.timing;
        // Precharge-all once every bank may be precharged.
        let mut ready = now;
        for b in 0..self.banks_per_rank {
            let bi = self.bank_index(rank, b);
            if self.banks[bi].open_row.is_some() {
                ready = ready.max(self.banks[bi].next_pre);
            }
        }
        let prea_at = self.bus.alloc(ready, 1);
        let ref_at = self.bus.alloc(prea_at + t.rp, 1);
        for b in 0..self.banks_per_rank {
            let bi = self.bank_index(rank, b);
            self.banks[bi].open_row = None;
            self.banks[bi].next_act = self.banks[bi].next_act.max(ref_at + t.rfc);
        }
        self.stats.ref_commands += 1;
        self.stats.refresh_busy += t.rfc * self.banks_per_rank as u64;
        probes.on_cmd(prea_at, self.idx, rank, None, None, DramCmd::PreA);
        probes.on_cmd(ref_at, self.idx, rank, None, None, DramCmd::Ref);
    }

    /// Per-bank REFpb: close `bank`, issue the refresh once the bank has
    /// finished its in-flight row cycle, block it for the policy-supplied
    /// `tRFCpb` while the rest of the rank keeps working.
    fn issue_bank_ref(
        &mut self,
        now: MemCycle,
        rank: usize,
        bank: u16,
        t_rfc_pb_ns: f64,
        probes: &mut ProbeHost,
    ) {
        let bi = self.bank_index(rank, bank);
        let ready = self.close_open_row(now, bi, rank, bank, probes);
        let ref_at = self.bus.alloc(ready, 1);
        let blocked = self.clock.ns_to_cycles(t_rfc_pb_ns);
        let b = &mut self.banks[bi];
        b.next_act = b.next_act.max(ref_at + blocked);
        self.stats.refpb_commands += 1;
        self.stats.refresh_busy += blocked;
        probes.on_cmd(ref_at, self.idx, rank, Some(bank), None, DramCmd::RefPb);
    }

    /// Executes one policy-requested refresh action.
    fn execute_action(
        &mut self,
        now: MemCycle,
        rank: usize,
        action: RefreshAction,
        probes: &mut ProbeHost,
    ) {
        match action {
            RefreshAction::RankRef => self.issue_rank_ref(now, rank, probes),
            RefreshAction::BankRef { bank, t_rfc_pb_ns } => {
                self.issue_bank_ref(now, rank, bank.0, t_rfc_pb_ns, probes);
            }
            RefreshAction::Single { bank, row } => {
                self.issue_single_refresh(now, rank, bank.0, row.0, probes);
            }
            RefreshAction::Pair {
                bank,
                first,
                second,
            } => self.issue_pair_refresh(now, rank, bank.0, first.0, second.0, probes),
        }
    }

    /// `rank`'s policy view at `now`: its slice of the bank records and
    /// demand counts, borrowed.
    fn view(&self, rank: usize, now: MemCycle) -> RankView<'_> {
        let span = self.bank_index(rank, 0)..self.bank_index(rank + 1, 0);
        RankView {
            now,
            clock: self.clock,
            t_rc: self.timing.rc,
            banks: &self.banks[span.clone()],
            queued: &self.queued[span],
        }
    }

    /// The wake of `rank`'s refresh machinery: the earliest cycle at which
    /// its policy or a plugin may act, with the rank's bank state held as
    /// it is now.
    ///
    /// The answer is cached until the rank's state can change (a request
    /// queued to it, a tick at which it passes the refresh gate, or a
    /// demand commit on it), so the refresh gate and
    /// [`Channel::next_event`] ask the policy once per change of the
    /// rank's state between them. A cached wake `w` asked at `at` serves
    /// any later `now`: the policy's contract makes every tick in
    /// `[at, w)` a no-op, and every wake in this crate is a minimum of
    /// fixed instants and `max(now, c)` terms (`now_ns` itself,
    /// [`RankView::unbacklogged_at`], [`RankView::idle_at`]), so whether
    /// `w > now` and `w.max(now + 1)` come out as a fresh answer's would.
    fn rank_wake(&mut self, rank: usize, now: MemCycle) -> MemCycle {
        if let Some((at, wake)) = self.ranks[rank].wake {
            if at <= now {
                return wake;
            }
        }
        self.rank_wakes += 1;
        let now_ns = self.clock.cycles_to_ns(now);
        let r = &self.ranks[rank];
        let mut wake = self
            .clock
            .wake_cycle(r.policy.next_wake(now_ns, &self.view(rank, now)));
        for p in &r.plugins {
            wake = wake.min(self.clock.wake_cycle(p.next_wake(now_ns)));
        }
        self.ranks[rank].wake = Some((now, wake));
        wake
    }

    /// Whether one evaluation of the write-drain toggle flips
    /// `write_mode`: drain mode leaves at the low watermark, and enters at
    /// the high one or when writes wait and no read does.
    fn drain_flips(&self) -> bool {
        let (reads, writes) = (self.read_q.len(), self.write_q.len());
        if self.write_mode {
            writes <= WQ_LOW
        } else {
            writes >= WQ_HIGH || (reads == 0 && writes > 0)
        }
    }

    /// True while the write-drain toggle flips on every tick: no reads and
    /// 1..=[`WQ_LOW`] writes queued. Drain mode then leaves on its low
    /// watermark and re-enters because no read waits, and FR-FCFS picks
    /// from the write queue in either state.
    fn drain_oscillates(&self) -> bool {
        self.read_q.is_empty() && (1..=WQ_LOW).contains(&self.write_q.len())
    }

    /// Brings the write-drain toggle up to date through tick `through`:
    /// applies its evaluation at every tick from [`Channel::drain_due`]
    /// on, in closed form, over queues that stayed as they are. While the
    /// queues oscillate, every evaluation flips the mode, so it flips iff
    /// that is an odd number of ticks. Otherwise the first evaluation
    /// reaches the fixed point: a mode entered on either watermark or
    /// because no read waits holds on the next tick unless the queues
    /// oscillate.
    ///
    /// [`Channel::demand_step`] settles through its own tick, and
    /// [`Channel::enqueue`] through the request's arrival tick before the
    /// queue changes, so ticks the event kernel skipped flip the mode
    /// exactly as the dense kernel's evaluations would have.
    fn settle_drain(&mut self, through: MemCycle) {
        if through < self.drain_due {
            return;
        }
        let ticks = through - self.drain_due + 1;
        self.drain_due = through + 1;
        if self.drain_flips() && (ticks % 2 == 1 || !self.drain_oscillates()) {
            self.write_mode = !self.write_mode;
        }
    }

    /// The first cycle after `now` at which [`Channel::demand_step`] could
    /// do anything with the queues and bank state as they are:
    ///
    /// * `now + 1` when the write-drain toggle flips there once and then
    ///   holds, which can change the queue FR-FCFS picks from (its
    ///   tick-by-tick oscillation cannot, so it is applied lazily by
    ///   [`Channel::settle_drain`]);
    /// * otherwise the first cycle at which [`Channel::pick_frfcfs`] could
    ///   pick from the queue the drain state selects: the earliest start
    ///   of a request's bank less [`COMMIT_HORIZON`]. A row hit starts at
    ///   the earlier of its bank's next CAS and next PRE, because the pick
    ///   falls through to its startable test. The scan stops at the first
    ///   request startable by `now + 1 + COMMIT_HORIZON`;
    /// * [`MemCycle::MAX`] with nothing queued.
    fn demand_wake(&self, now: MemCycle) -> MemCycle {
        if self.drain_flips() && !self.drain_oscillates() {
            return now + 1;
        }
        let q = if self.write_mode || self.read_q.is_empty() {
            &self.write_q
        } else {
            &self.read_q
        };
        if q.is_empty() {
            return MemCycle::MAX;
        }
        let soon = now + 1 + COMMIT_HORIZON;
        let mut first = MemCycle::MAX;
        for r in q {
            let b = &self.banks[self.bank_index(r.addr.rank, r.addr.bank)];
            let start = match b.open_row {
                Some(row) if row == r.addr.row.0 => b.next_cas.min(b.next_pre),
                Some(_) => b.next_pre,
                None => b.next_act,
            };
            if start <= soon {
                return now + 1;
            }
            first = first.min(start);
        }
        first - COMMIT_HORIZON
    }

    /// The next memory cycle strictly after `now` at which ticking this
    /// channel could do anything — the channel's contribution to the event
    /// kernel's time skip. Ticks in `(now, next_event)` are provably
    /// no-ops while the queues and bank state stay as they are (the kernel
    /// asks again after every cycle it processes): FR-FCFS can pick no
    /// queued request, the write-drain toggle either holds or oscillates
    /// (which the channel applies in closed form when it next evaluates
    /// the toggle or a request arrives), no completion falls due, and no
    /// rank's refresh machinery may act (under the
    /// [`RefreshPolicy::next_wake`] contract). Returns [`MemCycle::MAX`]
    /// for a fully idle channel. Bank/bus timestamps need no ticking — they
    /// are lazy. It takes `&mut self` only to fill the ranks' refresh-wake
    /// caches, which later refresh gates read; the answer is the same for
    /// any caller.
    pub fn next_event(&mut self, now: MemCycle) -> MemCycle {
        let mut next = self.demand_wake(now);
        if let Some(&Reverse((t, _))) = self.completions.peek() {
            next = next.min(t.max(now + 1));
        }
        for rank in 0..self.ranks.len() {
            next = next.min(self.rank_wake(rank, now).max(now + 1));
        }
        next
    }

    /// Advances the controller by one command-clock cycle. Returns request
    /// ids whose data returned this cycle. Probe-free convenience over
    /// [`Channel::tick_probed`].
    pub fn tick(&mut self, now: MemCycle) -> Vec<u64> {
        let mut done = Vec::new();
        self.tick_probed(now, &mut ProbeHost::disabled(), &mut done);
        done
    }

    /// [`Channel::tick`] with an observer attached, appending the ids of
    /// the requests whose data returned this cycle to `done`, a buffer the
    /// caller reuses. Probes are read-only: the schedule is identical
    /// whether `probes` is active or not.
    pub fn tick_probed(&mut self, now: MemCycle, probes: &mut ProbeHost, done: &mut Vec<u64>) {
        self.bus.prune(now);
        self.data_bus.prune(now);
        self.refresh_step(now, probes);
        // One demand commitment per cycle keeps scheduling near-cycle-accurate.
        self.demand_step(now, probes);
        while let Some(&Reverse((t, id))) = self.completions.peek() {
            if t > now {
                break;
            }
            self.completions.pop();
            done.push(id);
        }
    }

    fn refresh_step(&mut self, now: MemCycle, probes: &mut ProbeHost) {
        let now_ns = self.clock.cycles_to_ns(now);
        // Safety bound: a policy or plugin may issue a burst (deadline
        // pile-up, drained preventive queue) but never an unbounded stream
        // in one tick.
        let budget = 3 * self.banks_per_rank as usize + 16;
        for rank in 0..self.ranks.len() {
            // Event kernel: skip the tick/poll machinery of a rank whose
            // policy and plugins all declared a future wake under its
            // current bank state (the `next_wake` contracts make those
            // calls no-ops); the wake is usually the one `next_event`
            // cached after the rank's state last changed. One rank's
            // actions never touch another rank's banks or policy, so each
            // rank is gated as the loop reaches it, and only a rank that
            // passes loses its cached wake. The dense kernel polls every
            // rank.
            if self.kernel == KernelMode::Event && self.rank_wake(rank, now) > now {
                continue;
            }
            self.ranks[rank].wake = None;
            self.ranks[rank].policy.tick(now_ns);
            let span = self.bank_index(rank, 0)..self.bank_index(rank + 1, 0);
            for _ in 0..budget {
                // The view is `Channel::view`, built from the fields so
                // the policy can be borrowed mutably beside it.
                let view = RankView {
                    now,
                    clock: self.clock,
                    t_rc: self.timing.rc,
                    banks: &self.banks[span.clone()],
                    queued: &self.queued[span.clone()],
                };
                match self.ranks[rank].policy.next_action(now_ns, &view) {
                    Some(a) => self.execute_action(now, rank, a, probes),
                    None => break,
                }
            }
            // Plugin injections, after the policy's own work: victims the
            // defenses queued (including ones triggered by refresh ACTs
            // executed moments ago in this very step) go out under the
            // same per-tick budget.
            for pi in 0..self.ranks[rank].plugins.len() {
                for _ in 0..budget {
                    let action = self.ranks[rank].plugins[pi].next_action(now_ns);
                    match action {
                        Some(a) => self.execute_action(now, rank, a, probes),
                        None => break,
                    }
                }
            }
        }
    }

    fn demand_step(&mut self, now: MemCycle, probes: &mut ProbeHost) {
        // Write-drain policy, evaluated at this tick and at every tick the
        // event kernel skipped since the last evaluation.
        self.settle_drain(now);

        let from_writes = self.write_mode || self.read_q.is_empty();
        let Some(idx) = self.pick_frfcfs(now, from_writes) else {
            return;
        };
        let req = if from_writes {
            self.write_q[idx]
        } else {
            self.read_q[idx]
        };
        if self.commit(now, &req, probes) {
            let bi = self.bank_index(req.addr.rank, req.addr.bank);
            self.queued[bi] -= 1;
            // The commit moved the rank's banks, policy and plugins.
            self.ranks[req.addr.rank].wake = None;
            if from_writes {
                self.write_q.swap_remove(idx);
            } else {
                self.read_q.swap_remove(idx);
            }
        }
    }

    /// FR-FCFS over *ready* requests: oldest row-hit first, then the oldest
    /// request whose bank can start its service within the commit horizon.
    /// Requests to refresh- or REF-blocked banks do not stall the channel.
    fn pick_frfcfs(&self, now: MemCycle, from_writes: bool) -> Option<usize> {
        let q = if from_writes {
            &self.write_q
        } else {
            &self.read_q
        };
        if q.is_empty() {
            return None;
        }
        let horizon = now + COMMIT_HORIZON;
        let mut best_hit: Option<(u64, usize)> = None;
        let mut best_ready: Option<(u64, usize)> = None;
        for (i, r) in q.iter().enumerate() {
            let bi = self.bank_index(r.addr.rank, r.addr.bank);
            let b = &self.banks[bi];
            let hit = b.open_row == Some(r.addr.row.0);
            if hit && b.next_cas <= horizon {
                if best_hit.is_none_or(|(a, _)| r.arrived < a) {
                    best_hit = Some((r.arrived, i));
                }
                continue;
            }
            let startable = if b.open_row.is_some() {
                b.next_pre <= horizon
            } else {
                b.next_act <= horizon
            };
            if startable && best_ready.is_none_or(|(a, _)| r.arrived < a) {
                best_ready = Some((r.arrived, i));
            }
        }
        best_hit.or(best_ready).map(|(_, i)| i)
    }

    /// Commits the full service schedule for `req`. Returns false when the
    /// earliest possible start is beyond the commit horizon.
    fn commit(&mut self, now: MemCycle, req: &MemRequest, probes: &mut ProbeHost) -> bool {
        let t = self.timing;
        let rank = req.addr.rank;
        let bank = req.addr.bank;
        let bg = req.addr.bank_group;
        let row = req.addr.row.0;
        let bi = self.bank_index(rank, bank);

        let hit = self.banks[bi].open_row == Some(row);
        // Feasibility first: no side effects on a refused commit.
        if !hit {
            let b = &self.banks[bi];
            let start = if b.open_row.is_some() {
                b.next_pre
            } else {
                b.next_act
            };
            if start.max(now) > now + COMMIT_HORIZON {
                return false;
            }
        } else if self.banks[bi].next_cas > now + COMMIT_HORIZON {
            return false;
        }
        let cas_earliest = if hit {
            self.banks[bi].next_cas
        } else {
            // PRE (if open) + ACT (+ possible HiRA expansion).
            let act_earliest = self.close_open_row(now, bi, rank, bank, probes);
            let act_at = self.act_constraint(rank, bg, act_earliest);

            // HiRA Case-1 consultation (refresh-access parallelization).
            let decision = self.ranks[rank].policy.on_demand_act(
                self.clock.cycles_to_ns(act_at),
                BankId(bank),
                req.addr.row,
            );
            let demand_act = match decision {
                DemandDecision::Plain => {
                    let a = self.bus.alloc(act_at, 1);
                    self.record_act(rank, bg, a);
                    self.stats.demand_acts += 1;
                    probes.on_cmd(a, self.idx, rank, Some(bank), Some(row), DramCmd::Act);
                    self.notify_act(rank, a, bank, row);
                    a
                }
                DemandDecision::Hira { refresh_row } => {
                    let (a1, pre, a2) = self.place_hira(rank, bg, act_at);
                    self.stats.demand_acts += 1;
                    self.stats.refresh_acts += 1;
                    self.stats.hira_access_ops += 1;
                    let hidden = Some(refresh_row.0);
                    probes.on_cmd(a1, self.idx, rank, Some(bank), hidden, DramCmd::Act);
                    probes.on_cmd(pre, self.idx, rank, Some(bank), None, DramCmd::Pre);
                    probes.on_cmd(a2, self.idx, rank, Some(bank), Some(row), DramCmd::Act);
                    self.notify_act(rank, a1, bank, refresh_row.0);
                    self.notify_act(rank, a2, bank, row);
                    a2
                }
            };
            let b = &mut self.banks[bi];
            b.open_row = Some(row);
            b.next_act = demand_act + t.rc;
            b.next_pre = demand_act + t.ras;
            b.next_cas = demand_act + t.rcd;
            self.banks[bi].next_cas
        };

        // Column access + data bus (tCCD is folded into `next_cas` below).
        let mut cas = cas_earliest.max(now).max(self.banks[bi].next_cas);
        if !req.is_write {
            cas = cas.max(self.ranks[rank].next_rd);
        }
        let (data_lat, cas_cmd) = if req.is_write {
            (t.cwl, DramCmd::Wr)
        } else {
            (t.cl, DramCmd::Rd)
        };
        let burst_start = self.data_bus.alloc(cas + data_lat, t.bl);
        self.stats.data_bus_busy += t.bl;
        cas = burst_start - data_lat;
        let cas = self.bus.alloc(cas, 1);
        let b = &mut self.banks[bi];
        b.next_cas = cas
            + if self.ranks[rank].last_cas_bg == Some(bg) {
                t.ccd_l
            } else {
                t.ccd_s
            };
        self.ranks[rank].last_cas_bg = Some(bg);
        if hit {
            self.stats.row_hits += 1;
        }
        probes.on_cmd(cas, self.idx, rank, Some(bank), Some(row), cas_cmd);
        if req.is_write {
            b.next_pre = b.next_pre.max(cas + t.cwl + t.bl + t.wr);
            self.ranks[rank].next_rd = self.ranks[rank].next_rd.max(cas + t.cwl + t.bl + t.wtr);
            self.stats.writes_done += 1;
            let latency = cas + t.cwl + t.bl - req.arrived;
            self.stats.write_latency_sum += latency;
            self.stats.write_lat_hist.record(latency);
        } else {
            b.next_pre = b.next_pre.max(cas + t.rtp);
            let done_at = cas + t.cl + t.bl;
            self.completions.push(Reverse((done_at, req.id)));
            self.stats.reads_done += 1;
            let latency = done_at - req.arrived;
            self.stats.read_latency_sum += latency;
            self.stats.read_lat_hist.record(latency);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::mapping::decode;
    use crate::policy::{self, PolicyHandle};
    use crate::probe::{CmdEvent, Probe};
    use hira_dram::rng::Stream;
    use std::sync::{Arc, Mutex};

    fn config(refresh: PolicyHandle) -> SystemConfig {
        SystemConfig::table3(8.0, refresh)
    }

    fn read_at(cfg: &SystemConfig, id: u64, addr: u64, now: MemCycle) -> MemRequest {
        MemRequest {
            id,
            addr: decode(cfg, addr),
            is_write: false,
            arrived: now,
        }
    }

    fn write_at(cfg: &SystemConfig, id: u64, addr: u64, now: MemCycle) -> MemRequest {
        MemRequest {
            is_write: true,
            ..read_at(cfg, id, addr, now)
        }
    }

    /// Records every command a channel schedules, in commit order.
    struct CmdLog(Arc<Mutex<Vec<CmdEvent>>>);

    impl Probe for CmdLog {
        fn on_cmd(&mut self, ev: &CmdEvent) {
            self.0.lock().unwrap().push(*ev);
        }
    }

    fn run_until_done(
        ch: &mut Channel,
        mut now: MemCycle,
        ids: &[u64],
        limit: MemCycle,
    ) -> Vec<(u64, MemCycle)> {
        let mut done = Vec::new();
        while done.len() < ids.len() && now < limit {
            for id in ch.tick(now) {
                done.push((id, now));
            }
            now += 1;
        }
        done
    }

    /// The reservation searches the bit window replaces, over plain
    /// ordered sets that are never pruned: the command bus's first free
    /// slot and the data bus's first free burst-length gap.
    #[derive(Default)]
    struct ReferenceBuses {
        slots: std::collections::BTreeSet<MemCycle>,
        bursts: std::collections::BTreeMap<MemCycle, MemCycle>,
    }

    impl ReferenceBuses {
        fn slot(&mut self, earliest: MemCycle) -> MemCycle {
            let mut c = earliest;
            while self.slots.contains(&c) {
                c += 1;
            }
            self.slots.insert(c);
            c
        }

        fn burst(&mut self, earliest: MemCycle, len: MemCycle) -> MemCycle {
            let mut s = earliest;
            while let Some(end) = self
                .bursts
                .range(..s + len)
                .next_back()
                .map(|(_, &end)| end)
                .filter(|&end| end > s)
            {
                s = end;
            }
            self.bursts.insert(s, s + len);
            s
        }
    }

    #[test]
    fn bus_slots_match_the_ordered_set_search() {
        // Seeded random traffic at an advancing `now`: bookings up to five
        // 64-cycle words ahead, pruned every step, answer exactly what the
        // unpruned searches answer.
        let ch = Channel::new(&config(policy::hira(4)), 0);
        let len = ch.timing.bl;
        let mut rng = hira_dram::rng::Stream::from_words(&[0xB05, len]);
        let (mut cmd, mut data) = (BusSlots::default(), BusSlots::default());
        let mut reference = ReferenceBuses::default();
        let mut now = 0;
        for step in 0..20_000 {
            now += rng.next_below(8);
            cmd.prune(now);
            data.prune(now);
            let ahead = if rng.next_below(8) == 0 { 320 } else { 24 };
            let earliest = now + rng.next_below(ahead);
            if rng.next_below(2) == 0 {
                let got = cmd.alloc(earliest, 1);
                assert_eq!(got, reference.slot(earliest), "slot at step {step}");
            } else {
                let got = data.alloc(earliest, len);
                assert_eq!(got, reference.burst(earliest, len), "burst at step {step}");
            }
        }
        // The windows slid along instead of keeping the whole history:
        // they start in the word holding `now` and end in the word holding
        // the last reservation.
        let last_slot = *reference.slots.last().unwrap();
        let last_burst = reference.bursts.values().max().unwrap() - 1;
        for (bus, last) in [(&cmd, last_slot), (&data, last_burst)] {
            assert_eq!(bus.base, now - now % 64);
            assert_eq!(bus.words.len() as u64, (last - bus.base) / 64 + 1);
        }
    }

    #[test]
    fn data_bus_prune_horizon_derives_from_the_burst_length() {
        let cfg = config(policy::noref());
        let ch = Channel::new(&cfg, 0);
        // A burst books one bit per cycle of the device's burst length, so
        // a prune needs no horizon behind `now`: a burst begun before `now`
        // keeps the cycles it still holds.
        let len = ch.timing.bl;
        let mut bus = BusSlots::default();
        assert_eq!(bus.alloc(0, len), 0);
        bus.alloc(1000, len);
        let now = len - 1;
        bus.prune(now);
        assert_eq!(bus.alloc(now, len), len, "pruned a burst still on the bus");
        // Past the word holding `now`, old bursts are dropped; the future
        // burst survives, and allocation from `now` is unaffected.
        let now = 128 + len;
        bus.prune(now);
        assert_eq!(bus.base, 128, "kept words wholly before `now`");
        assert_eq!(bus.alloc(now, len), now, "prune changed allocation");
        assert_eq!(
            bus.alloc(1001 - len, len),
            1000 + len,
            "future burst dropped"
        );
    }

    #[test]
    fn cmd_bus_prune_horizon_derives_from_the_command_spacing() {
        let cfg = config(policy::hira(4));
        let ch = Channel::new(&cfg, 0);
        // The widest ahead-of-time command spacing is a HiRA operation's
        // mid-sequence window: t1 + t2 on the device's command grid. A
        // prune anywhere inside that window keeps the booked slot.
        let spacing = ch.timing.t1 + ch.timing.t2;
        let mut bus = BusSlots::default();
        assert_eq!(bus.alloc(0, 1), 0);
        assert_eq!(bus.alloc(spacing, 1), spacing);
        bus.alloc(500, 1);
        bus.prune(spacing);
        assert_eq!(bus.alloc(spacing, 1), spacing + 1, "pruned a booked slot");
        // Slots wholly before the word holding `now` are forgotten; the
        // future one survives. A slot freed by pruning is never re-issued
        // to the past: new commands allocate at or after `now`.
        let now = 128 + spacing;
        bus.prune(now);
        assert_eq!(bus.base, now - now % 64, "kept words wholly before `now`");
        assert_eq!(bus.alloc(now, 1), now, "prune changed allocation");
        assert_eq!(bus.alloc(500, 1), 501, "future reservation dropped");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the prune point")]
    fn bus_slots_refuse_an_allocation_before_the_prune_point() {
        let mut bus = BusSlots::default();
        bus.prune(100);
        bus.alloc(99, 1);
    }

    #[test]
    fn single_read_completes_with_act_plus_cas_latency() {
        let cfg = config(policy::noref());
        let mut ch = Channel::new(&cfg, 0);
        ch.enqueue(read_at(&cfg, 1, 0x10000, 0));
        let done = run_until_done(&mut ch, 0, &[1], 500);
        assert_eq!(done.len(), 1);
        let t = ch.timing;
        // ACT at ~0, CAS at tRCD, data at +tCL+tBL.
        let expect = t.rcd + t.cl + t.bl;
        assert!(
            (done[0].1 as i64 - expect as i64).abs() <= 3,
            "latency {} expected ~{}",
            done[0].1,
            expect
        );
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let cfg = config(policy::noref());
        let mut ch = Channel::new(&cfg, 0);
        ch.enqueue(read_at(&cfg, 1, 0x10000, 0));
        let first = run_until_done(&mut ch, 0, &[1], 500)[0].1;
        // Same row, next line: hit.
        let now = first + 1;
        ch.enqueue(read_at(&cfg, 2, 0x10040, now));
        let second = run_until_done(&mut ch, now, &[2], now + 500)[0].1 - now;
        assert!(second < first, "hit {second} vs miss {first}");
    }

    #[test]
    fn same_bank_misses_pay_trc() {
        let cfg = config(policy::noref());
        let mut ch = Channel::new(&cfg, 0);
        // Two different rows in the same bank: row stride of the mapping.
        let d0 = decode(&cfg, 0);
        let mut other = 0u64;
        for i in 1..1_000_000u64 {
            let d = decode(&cfg, i * 64);
            if d.bank == d0.bank && d.rank == d0.rank && d.row != d0.row {
                other = i * 64;
                break;
            }
        }
        assert!(other != 0);
        ch.enqueue(read_at(&cfg, 1, 0, 0));
        ch.enqueue(read_at(&cfg, 2, other, 0));
        let done = run_until_done(&mut ch, 0, &[1, 2], 1000);
        assert_eq!(done.len(), 2);
        let gap = done[1].1 - done[0].1;
        assert!(gap >= ch.timing.ras, "conflict gap {gap} below tRAS");
    }

    #[test]
    fn tfaw_limits_activation_bursts() {
        let cfg = config(policy::noref());
        let mut ch = Channel::new(&cfg, 0);
        // 6 misses to 6 different banks: the 5th+ ACT must wait for tFAW.
        let mut addrs = Vec::new();
        let mut banks_seen = std::collections::HashSet::new();
        for i in 0..1_000_000u64 {
            let d = decode(&cfg, i * 64);
            if banks_seen.insert(d.bank) {
                addrs.push(i * 64);
                if addrs.len() == 6 {
                    break;
                }
            }
        }
        for (k, a) in addrs.iter().enumerate() {
            ch.enqueue(read_at(&cfg, k as u64, *a, 0));
        }
        let ids: Vec<u64> = (0..6).collect();
        let done = run_until_done(&mut ch, 0, &ids, 2000);
        assert_eq!(done.len(), 6);
        let last = done.iter().map(|&(_, t)| t).max().unwrap();
        let first = done.iter().map(|&(_, t)| t).min().unwrap();
        // 6 ACTs with tFAW=16ns(20cyc): the 5th starts ≥ tFAW after the 1st.
        assert!(last - first >= ch.timing.faw / 2, "spread {}", last - first);
    }

    #[test]
    fn baseline_refresh_blocks_the_rank_for_trfc() {
        let mut cfg = config(policy::baseline());
        cfg.timing.t_refi = 1000.0; // dense refresh for the test
        let mut ch = Channel::new(&cfg, 0);
        let t_refi_c = ch.timing.refi;
        // Let a REF go out, then observe a read stalls ~tRFC.
        let mut now = 0;
        while now < t_refi_c + 2 {
            ch.tick(now);
            now += 1;
        }
        assert!(ch.stats().ref_commands >= 1);
        ch.enqueue(read_at(&cfg, 7, 0x40000, now));
        let done = run_until_done(&mut ch, now, &[7], now + 4000);
        let latency = done[0].1 - now;
        assert!(
            latency >= ch.timing.rfc / 2,
            "read latency {latency} vs tRFC {}",
            ch.timing.rfc
        );
    }

    #[test]
    fn cached_rank_wakes_answer_as_fresh_ones() {
        // Two ranks under random demand, asked the way the event kernel
        // asks: after a tick, again after requests arrive, and at later
        // cycles the kernel jumps to. Every cached rank wake must gate a
        // tick and clamp `next_event` exactly as a fresh answer would.
        // HiRA-queued PARA keeps victims waiting on busy banks, so a
        // request can take away the idle bank a wake was waiting for.
        for refresh in [
            policy::hira(4),
            policy::baseline().with_para_hira(0.5, 4),
            policy::raidr(),
            policy::refpb(),
        ] {
            let cfg = config(refresh).with_geometry(1, 2);
            let mut ch = Channel::new(&cfg, 0);
            let mut rng = hira_dram::rng::Stream::from_words(&[0xCAC4E, cfg.ranks as u64]);
            let mut id = 0;
            for now in 0..12_000 {
                ch.next_event(now);
                while rng.next_below(6) == 0 && ch.can_accept_read() {
                    ch.enqueue(read_at(&cfg, id, rng.next_below(1 << 24) * 64, now));
                    id += 1;
                }
                let later = now + rng.next_below(8);
                let cached: Vec<_> = (0..cfg.ranks).map(|r| ch.rank_wake(r, later)).collect();
                let event = ch.next_event(later);
                // A caller outside the kernel may also ask behind a cache.
                let behind = ch.next_event(now);
                for r in &mut ch.ranks {
                    r.wake = None;
                }
                for (rank, &wake) in cached.iter().enumerate() {
                    let fresh = ch.rank_wake(rank, later);
                    ch.ranks[rank].wake = None;
                    assert_eq!(wake > later, fresh > later, "gate, rank {rank} at {later}");
                    assert_eq!(wake.max(later + 1), fresh.max(later + 1), "rank {rank}");
                }
                assert_eq!(event, ch.next_event(later), "next_event at {later}");
                for r in &mut ch.ranks {
                    r.wake = None;
                }
                assert_eq!(behind, ch.next_event(now), "next_event at {now}");
                ch.tick(now);
            }
        }
    }

    #[test]
    fn next_event_waits_out_a_refresh_blocked_bank() {
        // A read queued behind a 64 Gb tRFC: nothing can be picked until
        // its bank's next ACT is within the commit horizon, so that is the
        // channel's next event, and ticking every cycle before it commits
        // nothing.
        let mut cfg = SystemConfig::table3(64.0, policy::baseline());
        cfg.kernel = KernelMode::Dense;
        let mut ch = Channel::new(&cfg, 0);
        ch.tick(0);
        assert_eq!(ch.stats().ref_commands, 1, "the first REF is due at 0");
        let req = read_at(&cfg, 1, 0x40000, 0);
        ch.enqueue(req);
        let next_act = ch.banks[ch.bank_index(req.addr.rank, req.addr.bank)].next_act;
        assert!(next_act > COMMIT_HORIZON + 1, "bank not refresh-blocked");
        let wake = ch.next_event(0);
        assert_eq!(wake, next_act - COMMIT_HORIZON);
        for now in 1..wake {
            ch.tick(now);
            assert_eq!(
                ch.stats().reads_done,
                0,
                "committed at {now}, before {wake}"
            );
        }
        ch.tick(wake);
        assert_eq!(ch.stats().reads_done, 1, "nothing committed at the wake");
    }

    #[test]
    fn next_event_sleeps_through_a_write_drain_oscillation() {
        // Only writes queued, 1..=WQ_LOW of them, and no reads: the drain
        // toggle flips on every tick, yet FR-FCFS picks from the write
        // queue in either state. With every write's bank behind a 64 Gb
        // tRFC, the channel's next event is that bank's next ACT less the
        // commit horizon, not the next tick.
        let mut cfg = SystemConfig::table3(64.0, policy::baseline());
        cfg.kernel = KernelMode::Dense;
        let mut ch = Channel::new(&cfg, 0);
        ch.tick(0);
        assert_eq!(ch.stats().ref_commands, 1, "the first REF is due at 0");
        let mut rng = Stream::from_words(&[0xD7A1, 0]);
        for n in 1..=WQ_LOW as u64 {
            ch.enqueue(write_at(&cfg, n, rng.next_below(1 << 24) * 64, 0));
            assert!(ch.drain_oscillates(), "{n} writes");
            let next_act = ch
                .write_q
                .iter()
                .map(|r| ch.banks[ch.bank_index(r.addr.rank, r.addr.bank)].next_act)
                .min()
                .unwrap();
            assert!(next_act > COMMIT_HORIZON + 1, "bank not refresh-blocked");
            assert_eq!(ch.next_event(0), next_act - COMMIT_HORIZON, "{n} writes");
        }
        let wake = ch.next_event(0);
        for now in 1..wake {
            ch.tick(now);
            assert_eq!(
                ch.stats().writes_done,
                0,
                "committed at {now}, before {wake}"
            );
            // Ticked on every cycle, the toggle enters drain mode on odd
            // ticks and leaves it on even ones.
            assert_eq!(ch.write_mode, now % 2 == 1, "drain mode at {now}");
        }
        ch.tick(wake);
        assert_eq!(ch.stats().writes_done, 1, "nothing committed at the wake");
    }

    #[test]
    fn lazy_drain_parity_matches_ticking_every_cycle() {
        // Two channels get the same seeded bursts of reads and writes. The
        // reference is ticked on every cycle. The other is ticked only at
        // its `next_event`, and takes each burst at the cycle the burst
        // arrives, as the event kernel queues requests at the cycles it
        // reaches. Writes pile up behind each 64 Gb tRFC, where the drain
        // toggle oscillates over the skipped ticks. A burst of reads plus
        // enough writes to pass WQ_LOW then keeps drain mode on or leaves
        // it off depending on the parity of the skipped span, so the two
        // channels commit in the same order only if that parity is right.
        // REFs come every 2.6 µs here, so most cycles lie in a tRFC.
        let mut cfg = SystemConfig::table3(64.0, policy::baseline());
        cfg.timing.t_refi = 2600.0;
        let channel = |kernel| {
            let cfg = cfg.clone().with_kernel(kernel);
            let log = Arc::new(Mutex::new(Vec::new()));
            let probes = ProbeHost::attach(Box::new(CmdLog(log.clone())));
            (Channel::new(&cfg, 0), probes, log)
        };
        let mut rng = Stream::from_words(&[0xD7A1, 1]);
        let end = 300_000;
        let mut bursts = Vec::new();
        let (mut at, mut id) = (0, 0);
        loop {
            at += 1 + rng.next_below(300);
            if at > end {
                break;
            }
            let reads = if rng.next_below(4) == 0 {
                1 + rng.next_below(2)
            } else {
                0
            };
            let burst: Vec<_> = (0..reads + rng.next_below(12))
                .map(|k| {
                    let addr = rng.next_below(1 << 24) * 64;
                    id += 1;
                    if k < reads {
                        read_at(&cfg, id, addr, at)
                    } else {
                        write_at(&cfg, id, addr, at)
                    }
                })
                .collect();
            bursts.push((at, burst));
        }
        let offer = |ch: &mut Channel, burst: &[MemRequest]| {
            for &req in burst {
                let room = if req.is_write {
                    ch.can_accept_write()
                } else {
                    ch.can_accept_read()
                };
                if room {
                    ch.enqueue(req);
                }
            }
        };

        let (mut dense, mut dense_probes, dense_log) = channel(KernelMode::Dense);
        let mut dense_done = Vec::new();
        let mut done = Vec::new();
        let mut next = bursts.iter().peekable();
        for now in 1..=end {
            done.clear();
            dense.tick_probed(now, &mut dense_probes, &mut done);
            dense_done.extend(done.iter().map(|&id| (id, now)));
            if let Some((_, burst)) = next.next_if(|(at, _)| *at == now) {
                offer(&mut dense, burst);
            }
        }

        let (mut event, mut event_probes, event_log) = channel(KernelMode::Event);
        let mut event_done = Vec::new();
        // Mixed bursts that pass WQ_LOW onto an oscillating write queue,
        // by the parity of the ticks skipped since the last evaluation.
        let mut parity_cases = [0; 2];
        let (mut now, mut ticks) = (0, 0);
        let mut next = bursts.iter().peekable();
        loop {
            let wake = event.next_event(now);
            let arrival = next.peek().map_or(MemCycle::MAX, |(at, _)| *at);
            now = wake.min(arrival);
            if now > end {
                break;
            }
            if wake == now {
                ticks += 1;
                done.clear();
                event.tick_probed(now, &mut event_probes, &mut done);
                event_done.extend(done.iter().map(|&id| (id, now)));
            }
            if arrival == now {
                let (_, burst) = next.next().unwrap();
                let writes = burst.iter().filter(|r| r.is_write).count();
                if event.drain_oscillates()
                    && writes < burst.len()
                    && event.write_q.len() + writes > WQ_LOW
                {
                    parity_cases[((now + 1 - event.drain_due) % 2) as usize] += 1;
                }
                offer(&mut event, burst);
            }
        }

        let (event_log, dense_log) = (event_log.lock().unwrap(), dense_log.lock().unwrap());
        let diverged = (0..event_log.len().max(dense_log.len()))
            .find(|&i| event_log.get(i) != dense_log.get(i))
            .map(|i| (i, event_log.get(i), dense_log.get(i)));
        assert_eq!(
            diverged, None,
            "commit order diverged (index, lazy, every cycle)"
        );
        assert_eq!(event_done, dense_done, "completions diverged");
        assert_eq!(event.stats(), dense.stats());
        assert!(dense.stats().writes_done > 1_000, "{:?}", dense.stats());
        assert!(ticks < end / 2, "{ticks} ticks processed out of {end}");
        assert!(
            parity_cases.iter().all(|&n| n >= 3),
            "even and odd skipped spans before a mixed burst: {parity_cases:?}"
        );
    }

    #[test]
    fn refpb_blocks_one_bank_not_the_rank() {
        let mut cfg = config(policy::refpb());
        cfg.timing.t_refi = 1600.0; // dense refresh for the test
        let mut ch = Channel::new(&cfg, 0);
        // A tREFI of ticks drives one REFpb per bank.
        let mut now = 0;
        while now < ch.timing.refi + 2 {
            ch.tick(now);
            now += 1;
        }
        let s = ch.stats();
        assert!(s.refpb_commands >= 8, "refpb commands {}", s.refpb_commands);
        assert_eq!(s.ref_commands, 0, "REFpb must not issue rank-level REF");
        // Banks later in the rotation are still unblocked right now.
        let free = (0..16).filter(|&b| ch.banks[b].next_act <= now).count();
        assert!(free >= 4, "only {free} banks free after staggered REFpb");
    }

    #[test]
    fn raidr_refreshes_rows_without_ref_commands() {
        let cfg = config(policy::raidr());
        let mut ch = Channel::new(&cfg, 0);
        for now in 0..3600 {
            ch.tick(now);
        }
        let s = ch.stats();
        assert!(s.refresh_acts > 10, "refresh acts {}", s.refresh_acts);
        assert_eq!(s.ref_commands + s.refpb_commands, 0);
        // The binned schedule skips nothing in window 0 but still tracks
        // per-policy counters.
        let ps = &ch.policy_stats()[0];
        assert_eq!(ps.rows_refreshed, s.refresh_acts);
    }

    #[test]
    fn hira_scheme_issues_refresh_acts() {
        let cfg = config(policy::hira(2));
        let mut ch = Channel::new(&cfg, 0);
        // Run 3 µs of idle time: periodic requests must be served as
        // singles/pairs by their deadlines.
        for now in 0..3600 {
            ch.tick(now);
        }
        let s = ch.stats();
        assert!(s.refresh_acts > 10, "refresh acts {}", s.refresh_acts);
        assert_eq!(s.ref_commands, 0);
    }

    #[test]
    fn hira_refresh_access_rides_demand_activations() {
        let cfg = config(policy::hira(8));
        let mut ch = Channel::new(&cfg, 0);
        let mut now = 0;
        let mut id = 0u64;
        let mut done = 0;
        // A stream of row misses in many banks for 60 µs.
        while now < 72_000 {
            if now % 24 == 0 && ch.can_accept_read() {
                ch.enqueue(read_at(&cfg, id, (id * 8 * 64) << 8, now));
                id += 1;
            }
            done += ch.tick(now).len();
            now += 1;
        }
        let s = ch.stats();
        assert!(done > 0);
        assert!(s.hira_access_ops > 0, "no refresh-access pairings: {s:?}");
    }

    #[test]
    fn immediate_para_amplifies_activations() {
        let cfg = config(policy::noref().with_para_immediate(0.5));
        let mut ch = Channel::new(&cfg, 0);
        let mut now = 0;
        let mut id = 0;
        while now < 48_000 {
            if now % 60 == 0 && ch.can_accept_read() {
                ch.enqueue(read_at(&cfg, id, (id << 20) * 64, now));
                id += 1;
            }
            ch.tick(now);
            now += 1;
        }
        let s = ch.stats();
        // pth=0.5 with recursion: ~1 preventive ACT per demand ACT.
        let ratio = s.refresh_acts as f64 / s.demand_acts as f64;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "preventive/demand ratio {ratio} ({s:?})"
        );
    }
}
