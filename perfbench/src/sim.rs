//! The two simulation workloads: `periodic_refresh` (the `policy_matrix`
//! grid) and `defense_writeback` (the `rh_matrix` defenses at a 256 KB
//! LLC). Both run one single-worker engine sweep per pass and time every
//! point; host-time metrics are calibrated per-point times across passes.

use crate::util::Calibration::PairedMedian;
use crate::util::{
    input_seed, Checks, Reference, Report, Schedule, Step, Timed, Tracer, REF_NOMINAL_NS,
};
use crate::Args;
use hira_bench::{alone_ipc, Scale};
use hira_engine::{metric, Executor, PointTelemetry, ScenarioKey, Sweep};
use hira_sim::config::{KernelMode, SystemConfig};
use hira_sim::plugin::PluginRegistry;
use hira_sim::policy::{self, PolicyRegistry};
use hira_sim::{SimResult, System, SystemBuilder};
use hira_workload::WorkloadEnv;
use std::sync::Mutex;
use std::time::Instant;

/// Measured instructions per core: the figure binaries' default scale.
const INSTS: u64 = 60_000;
/// Mixes per configuration in `periodic_refresh` (the `policy_matrix`
/// default).
const MIXES: usize = 6;
/// Set-up repetitions per run (see [`Setup`]).
const SETUP_REPS: u64 = 16;
/// DDR4 lets the controller postpone up to eight `REF` commands.
const REF_POSTPONE: f64 = 8.0;

/// Which simulation grid to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    PeriodicRefresh,
    DefenseWriteback,
}

/// One grid point's parameters: its configuration plus the plugin form
/// (`None` for `periodic_refresh`, `"none"` for the undefended
/// `defense_writeback` cells).
struct Point {
    cfg: SystemConfig,
    policy: String,
    cap: f64,
    plugin: Option<String>,
    workload: String,
}

/// What one point's task hands back.
struct PointOut {
    result: SimResult,
    events: u64,
    peak_queue: u64,
    ws: f64,
    /// The reference sample taken right before the point.
    ref_ns: f64,
    wall_ns: f64,
    build_ns: f64,
    run_ns: f64,
    /// The whole task, reference sample included (for the engine's share).
    task_ns: f64,
}

fn scale() -> Scale {
    Scale {
        mixes: MIXES,
        insts: INSTS,
        warmup: INSTS / 5,
        rows: 48,
    }
}

/// Builds the grid's configurations from the run seed.
fn build_grid(grid: Grid, seed: u64, tracer: &Tracer) -> Vec<Point> {
    let sys_seed = input_seed(seed, "system");
    let s = scale();
    let mut points = Vec::new();
    let mut add =
        |b: SystemBuilder, policy: &str, cap: f64, plugin: Option<&str>, workload: &str| {
            let cfg = tracer.time("SystemBuilder::build", points.len() as u64, || {
                b.seed(sys_seed)
                    .insts(s.insts, s.warmup)
                    .build()
                    .expect("benchmark grid configurations are valid")
            });
            points.push(Point {
                cfg,
                policy: policy.to_owned(),
                cap,
                plugin: plugin.map(str::to_owned),
                workload: workload.to_owned(),
            });
        };
    let policies = PolicyRegistry::standard();
    match grid {
        Grid::PeriodicRefresh => {
            for name in policies.names() {
                let h = policies.lookup(name).expect("registered policy");
                for cap in [8.0, 64.0] {
                    for id in 0..MIXES {
                        let w = hira_workload::mix(id);
                        let wname = w.name().to_owned();
                        let b = SystemBuilder::table3(cap).policy(h.clone()).workload(w);
                        add(b, name, cap, None, &wname);
                    }
                }
            }
        }
        Grid::DefenseWriteback => {
            let plugins = PluginRegistry::standard();
            for plugin in ["none", "oracle:4", "para:0.05", "graphene:2:64"] {
                for pname in ["baseline", "refpb", "hira4"] {
                    for wname in ["rw50", "hotspot"] {
                        let mut b = SystemBuilder::new()
                            .device_name("ddr4-2400")
                            .policy(policies.lookup(pname).expect("registered policy"))
                            .workload_name(wname)
                            .llc(256 << 10, 8);
                        if plugin != "none" {
                            b = b.plugin(plugins.lookup(plugin).expect("registered plugin"));
                        }
                        add(b, pname, 8.0, Some(plugin), wname);
                    }
                }
            }
        }
    }
    points
}

/// Distinct alone-IPC references the grid needs: (instance name, config).
fn alone_refs(points: &[Point]) -> Vec<(String, SystemConfig)> {
    let mut refs: Vec<(String, SystemConfig)> = Vec::new();
    for p in points {
        let c = &p.cfg;
        for name in c.workload.instance_names(c.cores, c.seed) {
            let dup = refs.iter().any(|(n, r)| {
                *n == name
                    && r.device.name() == c.device.name()
                    && (r.channels, r.ranks) == (c.channels, c.ranks)
            });
            if !dup {
                refs.push((name, c.clone()));
            }
        }
    }
    refs
}

/// The alone-IPC reference run exactly as `alone_ipc` documents it: the
/// instance alone on one core of an ideal 8 Gb system of the same device
/// and geometry.
fn alone_direct(name: &str, c: &SystemConfig) -> f64 {
    let s = scale();
    let mut cfg = SystemBuilder::new()
        .device(c.device.clone())
        .chip_gbit(8.0)
        .policy(policy::noref())
        .geometry(c.channels, c.ranks)
        .insts(s.insts, s.warmup)
        .workload(hira_workload::workload(name))
        .build()
        .expect("alone-IPC reference system is valid");
    cfg.cores = 1;
    System::new(cfg).run().ipc[0]
}

fn point_key(p: &Point) -> ScenarioKey {
    let mut k = ScenarioKey::root()
        .with("policy", &p.policy)
        .with("cap", hira_engine::flabel(p.cap))
        .with("wl", &p.workload);
    if let Some(g) = &p.plugin {
        k = k.with("plugin", g);
    }
    k
}

fn simulate(
    cfg: &SystemConfig,
    id: u64,
    tracer: &Tracer,
    reference: &Mutex<Reference>,
) -> PointOut {
    let s = scale();
    let task = Instant::now();
    let ref_ns = reference.lock().expect("reference").sample();
    let t0 = Instant::now();
    let sys = tracer.time("System::new", id, || System::new(cfg.clone()));
    let build_ns = t0.elapsed().as_nanos() as f64;
    let t1 = Instant::now();
    let (result, tel) = tracer.time("System::run_telemetered", id, || sys.run_telemetered());
    let run_ns = t1.elapsed().as_nanos() as f64;
    let alone: Vec<f64> = result
        .workloads
        .iter()
        .map(|n| {
            tracer.time("hira_bench::alone_ipc", id, || {
                alone_ipc(n, &cfg.device, cfg.channels, cfg.ranks, s)
            })
        })
        .collect();
    let ws = result.weighted_speedup(&alone);
    PointOut {
        result,
        events: tel.events,
        peak_queue: tel.peak_queue,
        ws,
        ref_ns,
        wall_ns: t0.elapsed().as_nanos() as f64,
        build_ns,
        run_ns,
        task_ns: task.elapsed().as_nanos() as f64,
    }
}

/// Per-point timings of every host-time quantity over one series of passes.
struct SeriesTimes {
    wall: Timed,
    build: Timed,
    run: Timed,
    engine_overhead_ns: f64,
    passes: u64,
}

impl SeriesTimes {
    fn new(n: usize) -> Self {
        SeriesTimes {
            wall: Timed::new(n, PairedMedian),
            build: Timed::new(n, PairedMedian),
            run: Timed::new(n, PairedMedian),
            engine_overhead_ns: f64::INFINITY,
            passes: 0,
        }
    }
}

/// Runs the measured phase for `seconds` (see [`Schedule`]): passes over
/// the grid, one series per tracer, with the set-up repetitions in
/// between. Returns the per-point times of each series; every pass must
/// reproduce the first bit for bit.
#[allow(clippy::too_many_arguments)]
fn measure(
    sweep: &Sweep<usize>,
    points: &[Point],
    seconds: f64,
    tracers: &[&Tracer],
    reference: &Mutex<Reference>,
    setup: &mut Setup,
    first: &mut Option<Vec<PointOut>>,
    checks: &mut Checks,
) -> Vec<SeriesTimes> {
    let n = points.len();
    let mut series: Vec<SeriesTimes> = tracers.iter().map(|_| SeriesTimes::new(n)).collect();
    let ex = Executor::with_threads(1);
    for step in Schedule::new(tracers.len(), seconds, SETUP_REPS) {
        let (pass, k) = match step {
            Step::Setup(rep) => {
                setup.repeat(rep, tracers[tracers.len() - 1], reference);
                continue;
            }
            Step::Pass(pass, k) => (pass, k),
        };
        let tracer = tracers[k];
        let t = Instant::now();
        let (outs, run) = tracer.time("Executor::run_observed", pass, || {
            ex.run_observed(
                sweep,
                |sc| {
                    let i = *sc.params;
                    let out = simulate(&points[i].cfg, i as u64, tracer, reference);
                    let tel = PointTelemetry {
                        events: out.events,
                        peak_queue: out.peak_queue,
                    };
                    let ws = out.ws;
                    (out, vec![metric("ws", ws)], Some(tel))
                },
                None,
            )
        });
        let pass_ns = t.elapsed().as_nanos() as f64;
        eprintln!("pass {pass}: {:.3} s", pass_ns / 1e9);
        checks.check(run.records.len() == n, || {
            format!(
                "pass {pass} returned {} records for {n} points",
                run.records.len()
            )
        });
        let m = &mut series[k];
        m.passes += 1;
        let task_ns: f64 = outs.iter().map(|o| o.task_ns).sum();
        m.engine_overhead_ns = m.engine_overhead_ns.min(pass_ns - task_ns);
        for (i, o) in outs.iter().enumerate() {
            m.wall.record(i, o.wall_ns, o.ref_ns);
            m.build.record(i, o.build_ns, o.ref_ns);
            m.run.record(i, o.run_ns, o.ref_ns);
        }
        match first {
            None => *first = Some(outs),
            Some(f) => {
                let same = f
                    .iter()
                    .zip(&outs)
                    .all(|(a, b)| a.result == b.result && a.ws.to_bits() == b.ws.to_bits());
                checks.check(same, || format!("pass {pass} diverged from the first pass"));
            }
        }
    }
    series
}

/// Set-up: the grid build, then the alone-IPC memo fill through
/// `hira_bench::alone_ipc`, with a reference sample next to every timing.
/// It runs once before the measured phase and [`SETUP_REPS`]` - 1` more
/// times spread over it; `setup_s` sums the calibrated per-component
/// times. The memo is process-global, so repetition `r` asks for `r` more
/// measured instructions per core: a key the memo has not seen, which
/// takes `alone_ipc`'s whole miss path (key, lookup, reference run,
/// insert) for the cost of `r` instructions in 72,000. Repetition 0 uses
/// the grid's own key.
struct Setup {
    grid: Grid,
    seed: u64,
    /// The grid's distinct alone-IPC references: (instance name, config).
    refs: Vec<(String, SystemConfig)>,
    /// The grid build (one operation).
    build: Timed,
    /// One `alone_ipc` fill per reference.
    alone: Timed,
}

impl Setup {
    /// Set-up repetition 0; returns the set-up and its grid.
    fn new(
        grid: Grid,
        seed: u64,
        tracer: &Tracer,
        reference: &Mutex<Reference>,
    ) -> (Self, Vec<Point>) {
        let mut s = Setup {
            grid,
            seed,
            refs: Vec::new(),
            build: Timed::new(1, PairedMedian),
            alone: Timed::new(0, PairedMedian),
        };
        let points = s.repeat(0, tracer, reference);
        (s, points)
    }

    /// Times set-up repetition `rep`; returns the grid it built.
    fn repeat(&mut self, rep: u64, tracer: &Tracer, reference: &Mutex<Reference>) -> Vec<Point> {
        let tick = || reference.lock().expect("reference").tick();
        let r = tick();
        let t = Instant::now();
        let points = build_grid(self.grid, self.seed, tracer);
        self.build.record(0, t.elapsed().as_nanos() as f64, r);
        if rep == 0 {
            self.refs = alone_refs(&points);
            self.alone = Timed::new(self.refs.len(), PairedMedian);
        }
        let s = Scale {
            insts: INSTS + rep,
            ..scale()
        };
        for (j, (name, c)) in self.refs.iter().enumerate() {
            let r = tick();
            let t = Instant::now();
            tracer.time("hira_bench::alone_ipc", j as u64, || {
                alone_ipc(name, &c.device, c.channels, c.ranks, s)
            });
            self.alone.record(j, t.elapsed().as_nanos() as f64, r);
        }
        points
    }

    /// The memo must hold what a direct run of each reference system gives.
    fn check_memo(&self, checks: &mut Checks) {
        for (name, c) in &self.refs {
            let memo = alone_ipc(name, &c.device, c.channels, c.ranks, scale());
            let direct = alone_direct(name, c);
            checks.check(direct.to_bits() == memo.to_bits(), || {
                format!("alone IPC of {name}: memo {memo} vs direct {direct}")
            });
        }
    }
}

/// Runs one simulation workload; fills `report` (end-to-end metrics, or
/// per-layer metrics when traced) and returns (attempted, failed).
pub fn run(grid: Grid, args: &Args, report: &mut Report, checks: &mut Checks) -> (u64, u64) {
    let tracer = Tracer::new(args.trace);
    let reference = Mutex::new(Reference::new());
    let (mut setup, points) = Setup::new(grid, args.seed, &tracer, &reference);
    setup.check_memo(checks);

    let sweep = Sweep::from_points(
        "bench",
        args.seed,
        points
            .iter()
            .enumerate()
            .map(|(i, p)| (point_key(p), i))
            .collect(),
    );
    let mut first = None;
    let untraced = Tracer::new(false);
    let tracers: Vec<&Tracer> = if args.trace {
        vec![&untraced, &tracer]
    } else {
        vec![&tracer]
    };
    let mut series = measure(
        &sweep,
        &points,
        args.seconds,
        &tracers,
        &reference,
        &mut setup,
        &mut first,
        checks,
    );
    let traced = args.trace.then(|| series.pop().expect("traced series"));
    let plain = series.pop().expect("untraced series");
    let outs = first.expect("at least one pass");
    let dense_ratio = check_results(grid, &points, &outs, &plain, &tracer, &reference, checks);

    let insts_per_point =
        |p: &Point| (p.cfg.cores as u64 * (p.cfg.insts_per_core + p.cfg.warmup_insts)) as f64;
    let total_insts: f64 = points.iter().map(insts_per_point).sum();
    let n = points.len() as u64;
    let attempted = n * (plain.passes + traced.as_ref().map_or(0, |t| t.passes));
    // Read before the report's own allocations.
    let peak_heap_mb = crate::util::peak_heap_mb();
    match traced {
        None => {
            report.put(
                "setup_s",
                (setup.build.sum() + setup.alone.sum()) / 1e9,
                "s",
            );
            eprintln!(
                "uncalibrated: setup {:.4} s, wall {:.4} s, sim {:.3} Minst/s; reference slowdown {:.3}",
                (setup.build.raw_sum() + setup.alone.raw_sum()) / 1e9,
                plain.wall.raw_sum() / 1e9,
                total_insts / 1e6 / (plain.run.raw_sum() / 1e9),
                plain.wall.slowdown()
            );
            report.put("wall_s", plain.wall.sum() / 1e9, "s");
            report.put(
                "sim_minst_per_s",
                total_insts / 1e6 / (plain.run.sum() / 1e9),
                "Minst/s",
            );
            report.put("op_ms_p50", plain.wall.quantile(0.5) / 1e6, "ms");
            report.put("op_ms_p99", plain.wall.quantile(0.99) / 1e6, "ms");
            report.put("peak_heap_mb", peak_heap_mb, "MB");
        }
        Some(t) => {
            let ns_per_access = workload_ns_per_access(&points, &tracer);
            layer_metrics(
                grid,
                &points,
                &outs,
                &t,
                setup.refs.len(),
                setup.alone.sum() / 1e9,
                dense_ratio,
                report,
            );
            report.put("workload.ns_per_access", ns_per_access, "ns");
            report.put(
                "obs.trace_overhead_frac",
                t.wall.sum() / plain.wall.sum(),
                "ratio",
            );
            crate::print_self_times(&tracer);
        }
    }
    (attempted, 0)
}

fn policy_events_per_kcycle(points: &[Point], outs: &[PointOut], policy: &str) -> f64 {
    let (ev, cyc) = points
        .iter()
        .zip(outs)
        .filter(|(p, _)| p.policy == policy)
        .fold((0.0, 0.0), |(e, c), (_, o)| {
            (e + o.events as f64, c + o.result.cycles as f64)
        });
    if cyc > 0.0 {
        ev / cyc * 1e3
    } else {
        0.0
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    grid: Grid,
    points: &[Point],
    outs: &[PointOut],
    t: &SeriesTimes,
    alone_runs: usize,
    alone_s: f64,
    dense_ratio: f64,
    r: &mut Report,
) {
    let n = points.len() as f64;
    let events: f64 = outs.iter().map(|o| o.events as f64).sum();
    let cycles: f64 = outs.iter().map(|o| o.result.cycles as f64).sum();
    r.put("system.events", events, "count");
    r.put(
        "system.events_per_kcycle",
        events / cycles * 1e3,
        "1/kcycle",
    );
    for name in PolicyRegistry::standard().names() {
        r.put(
            format!("system.events_per_kcycle.{name}"),
            policy_events_per_kcycle(points, outs, name),
            "1/kcycle",
        );
    }
    r.put("system.ns_per_event", t.run.sum() / events, "ns");
    r.put("system.build_ms", t.build.sum() / n / 1e6, "ms");
    r.put("system.dense_over_event", dense_ratio, "ratio");

    // Plugin layer: defended points against their undefended twins.
    let mut acts = 0.0;
    let mut injected = 0.0;
    let mut extra_events = 0.0;
    let mut extra_ns = 0.0;
    if grid == Grid::DefenseWriteback {
        for (i, p) in points.iter().enumerate() {
            if p.plugin.as_deref() == Some("none") {
                continue;
            }
            let twin = points
                .iter()
                .position(|q| {
                    q.plugin.as_deref() == Some("none")
                        && q.policy == p.policy
                        && q.workload == p.workload
                })
                .expect("every defended point has an undefended twin");
            let tot = outs[i].result.plugin_totals();
            acts += tot.acts_observed as f64;
            injected += tot.injected as f64;
            extra_events += outs[i].events as f64 - outs[twin].events as f64;
            extra_ns += t.run.calibrated(i) - t.run.calibrated(twin);
        }
    }
    r.put("plugin.acts_observed", acts, "count");
    r.put("plugin.injected", injected, "count");
    r.put("plugin.extra_events", extra_events, "count");
    r.put(
        "plugin.host_ns_per_act",
        if acts > 0.0 { extra_ns / acts } else { 0.0 },
        "ns",
    );

    // Simulated statistics of the grid (exact for a given seed).
    let results: Vec<&SimResult> = outs.iter().map(|o| &o.result).collect();
    let reads: u64 = results.iter().map(|x| x.total_reads()).sum();
    let writes: u64 = results.iter().map(|x| x.total_writes()).sum();
    let mean = |f: &dyn Fn(&SimResult) -> f64| results.iter().map(|x| f(x)).sum::<f64>() / n;
    r.put("controller.reads", reads as f64, "count");
    r.put("controller.writes", writes as f64, "count");
    r.put(
        "controller.row_hit_rate",
        mean(&|x| x.row_hit_rate()),
        "ratio",
    );
    r.put(
        "controller.read_latency_cycles",
        mean(&|x| x.avg_read_latency()),
        "cycles",
    );
    r.put(
        "controller.write_latency_cycles",
        mean(&|x| x.avg_write_latency()),
        "cycles",
    );
    r.put(
        "controller.refresh_busy_frac",
        mean(&|x| {
            let busy: u64 = x.channel_stats.iter().map(|c| c.refresh_busy).sum();
            busy as f64 / (x.mem_cycles.max(1) as f64 * x.channel_stats.len().max(1) as f64)
        }) / f64::from(points[0].cfg.banks)
            / points[0].cfg.ranks as f64,
        "ratio",
    );
    let peak_queue = outs.iter().map(|o| o.peak_queue).max().unwrap_or(0);
    r.put("controller.peak_queue", peak_queue as f64, "count");
    let pol = |f: &dyn Fn(&hira_sim::policy::PolicyStats) -> u64| -> f64 {
        results
            .iter()
            .flat_map(|x| x.policy_stats.iter())
            .map(f)
            .sum::<u64>() as f64
    };
    r.put("policy.rank_refs", pol(&|s| s.rank_refs), "count");
    r.put("policy.bank_refs", pol(&|s| s.bank_refs), "count");
    r.put("policy.rows_refreshed", pol(&|s| s.rows_refreshed), "count");
    let (mut hidden, mut served, mut lateness) = (0u64, 0u64, 0.0f64);
    for x in &results {
        for s in &x.mc_stats {
            hidden += s.refresh_access + s.refresh_refresh;
            served += s.refresh_access + s.refresh_refresh + s.singles;
            lateness = lateness.max(s.max_lateness_ns);
        }
    }
    r.put(
        "hira_core.hidden_frac",
        if served > 0 {
            hidden as f64 / served as f64
        } else {
            0.0
        },
        "ratio",
    );
    r.put("hira_core.max_lateness_ns", lateness, "ns");
    r.put(
        "metrics.ws_mean",
        outs.iter().map(|o| o.ws).sum::<f64>() / n,
        "ws",
    );
    let insts: f64 = points
        .iter()
        .map(|p| (p.cfg.cores as u64 * (p.cfg.insts_per_core + p.cfg.warmup_insts)) as f64)
        .sum();
    r.put("metrics.insts", insts, "count");
    r.put("engine.points", n, "count");
    r.put("engine.overhead_ms", t.engine_overhead_ns / 1e6, "ms");
    r.put("host.ref_slowdown", t.wall.slowdown(), "ratio");
    r.put("bench.alone_runs", alone_runs as f64, "count");
    r.put("bench.alone_s", alone_s, "s");
}

/// Drives each distinct per-core workload instance of the grid standalone
/// through `Workload::next_access` for one run's worth of instructions;
/// the best of three rounds, in ns per call.
fn workload_ns_per_access(points: &[Point], tracer: &Tracer) -> f64 {
    let mut seen: Vec<(String, u64)> = Vec::new();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut calls = 0u64;
        let t = Instant::now();
        seen.clear();
        for p in points {
            let c = &p.cfg;
            let key = (c.workload.name().to_owned(), c.seed);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let budget = c.insts_per_core + c.warmup_insts;
            for core in 0..c.cores {
                let mut w = c.workload.build(&WorkloadEnv {
                    core,
                    cores: c.cores,
                    seed: c.seed,
                });
                let _span = tracer.span("Workload::next_access", core as u64);
                let mut insts = 0u64;
                while insts < budget {
                    insts += match w.next_access() {
                        hira_workload::Op::Compute(k) => u64::from(k),
                        _ => 1,
                    };
                    calls += 1;
                }
            }
        }
        best = best.min(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    best
}

/// The workload's correctness checks; returns the dense-over-event host
/// time ratio over the dense-checked points.
fn check_results(
    grid: Grid,
    points: &[Point],
    outs: &[PointOut],
    m: &SeriesTimes,
    tracer: &Tracer,
    reference: &Mutex<Reference>,
    checks: &mut Checks,
) -> f64 {
    let s = scale();
    // No point may stop at the simulator's safety cap (`target * 120 +
    // 4_000_000` cycles), and every core must retire its budget.
    for (p, o) in points.iter().zip(outs) {
        let cap = (s.insts + s.warmup) * 120 + 4_000_000;
        checks.check(
            o.result.cycles < cap && o.result.ipc.iter().all(|&x| x > 0.0),
            || format!("{} stopped at the safety cap", point_key(p)),
        );
    }
    // Dense reference kernel: one point per policy (periodic_refresh) or
    // per plugin (defense_writeback), chosen by position in the grid.
    let group = |p: &Point| match grid {
        Grid::PeriodicRefresh => p.policy.clone(),
        Grid::DefenseWriteback => p.plugin.clone().unwrap_or_default(),
    };
    let mut groups: Vec<String> = Vec::new();
    let (mut dense_ns, mut event_ns) = (0.0, 0.0);
    for p in points {
        let g = group(p);
        if groups.contains(&g) {
            continue;
        }
        let members: Vec<usize> = (0..points.len())
            .filter(|&j| group(&points[j]) == g)
            .collect();
        groups.push(g);
        let pick = members[(groups.len() * 7) % members.len()];
        let cfg = points[pick].cfg.clone().with_kernel(KernelMode::Dense);
        let ref_ns = reference.lock().expect("reference").sample();
        let t = Instant::now();
        let dense = tracer.time("System::run (dense)", pick as u64, || {
            System::new(cfg).run()
        });
        dense_ns += t.elapsed().as_nanos() as f64 * REF_NOMINAL_NS / ref_ns;
        event_ns += m.run.calibrated(pick);
        checks.check(dense == outs[pick].result, || {
            format!("dense kernel diverges at {}", point_key(&points[pick]))
        });
    }
    match grid {
        Grid::PeriodicRefresh => check_refresh_rates(points, outs, checks),
        Grid::DefenseWriteback => check_defenses(points, outs, checks),
    }
    dense_ns / event_ns
}

fn check_refresh_rates(points: &[Point], outs: &[PointOut], checks: &mut Checks) {
    for (p, o) in points.iter().zip(outs) {
        let c = &p.cfg;
        let elapsed_ns = o.result.mem_cycles as f64 * c.timing.t_ck;
        let key = point_key(p);
        match p.policy.as_str() {
            "baseline" => {
                let expect = elapsed_ns / c.timing.t_refi;
                for s in &o.result.policy_stats {
                    checks.check((s.rank_refs as f64 - expect).abs() <= REF_POSTPONE, || {
                        format!("{key}: {} REF per rank, expected {expect:.1}", s.rank_refs)
                    });
                }
                let issued: u64 = o.result.channel_stats.iter().map(|s| s.ref_commands).sum();
                let requested: u64 = o.result.policy_stats.iter().map(|s| s.rank_refs).sum();
                checks.check(issued == requested, || {
                    format!("{key}: {issued} REF issued, {requested} requested")
                });
            }
            "refpb" => {
                let expect = elapsed_ns / c.timing.t_refi * f64::from(c.banks);
                for s in &o.result.policy_stats {
                    checks.check(
                        (s.bank_refs as f64 - expect).abs() <= REF_POSTPONE * f64::from(c.banks),
                        || {
                            format!(
                                "{key}: {} REFpb per rank, expected {expect:.1}",
                                s.bank_refs
                            )
                        },
                    );
                }
            }
            name if name.starts_with("hira") => {
                let rows = f64::from(c.rows_per_bank()) * f64::from(c.banks);
                let expect = rows * elapsed_ns / c.timing.t_refw;
                // Still queued at the end: at most what HiRA-MC's Refresh
                // Table holds. Its sizing: the periodic requests of one
                // slack window (N x tRC) plus four, plus a 4-entry PR-FIFO
                // per bank, and never under the paper's 68 entries.
                let slack_acts: f64 = name["hira".len()..].parse().expect("hira<N>");
                let period_ns = c.timing.t_refw / rows;
                let periodic_entries = (slack_acts * c.timing.t_rc / period_ns).ceil() + 4.0;
                let queued_max = (periodic_entries + 4.0 * f64::from(c.banks)).max(68.0);
                for s in &o.result.mc_stats {
                    let generated = s.periodic_generated as f64;
                    let served = (s.refresh_access + s.refresh_refresh + s.singles) as f64;
                    checks.check((generated - expect).abs() <= 0.01 * expect, || {
                        format!(
                            "{key}: {generated} periodic refreshes generated, expected {expect:.1}"
                        )
                    });
                    checks.check(
                        served <= generated && generated - served <= queued_max,
                        || format!("{key}: served {served} of {generated} periodic refreshes"),
                    );
                }
            }
            _ => {}
        }
    }
    // Mean weighted speedup per (policy, capacity), from the records: no
    // refresh is the upper bound at every capacity.
    for cap in [8.0, 64.0] {
        let mean_of = |policy: &str| {
            let v: Vec<f64> = points
                .iter()
                .zip(outs)
                .filter(|(p, _)| p.policy == policy && p.cap == cap)
                .map(|(_, o)| o.ws)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let ideal = mean_of("noref");
        for name in PolicyRegistry::standard().names() {
            let ws = mean_of(name);
            checks.check(ideal >= ws, || {
                format!("cap {cap}: noref mean ws {ideal} below {name}'s {ws}")
            });
        }
    }
}

fn check_defenses(points: &[Point], outs: &[PointOut], checks: &mut Checks) {
    for (p, o) in points.iter().zip(outs) {
        let key = point_key(p);
        let r = &o.result;
        checks.check(r.total_writes() > 0, || {
            format!("{key}: no write reached DRAM")
        });
        let tot = r.plugin_totals();
        let acts = tot.acts_observed as f64;
        let injected = tot.injected as f64;
        let plugin = p.plugin.as_deref().unwrap_or("none");
        if plugin == "none" {
            checks.check(r.plugin_injected() == 0, || {
                format!("{key}: undefended point injected")
            });
        } else if let Some(prob) = plugin.strip_prefix("para:") {
            let prob: f64 = prob.parse().expect("para probability");
            let expect = prob * acts;
            let sigma = (acts * prob * (1.0 - prob)).sqrt();
            checks.check(
                injected <= expect + 5.0 * sigma && injected >= expect - 5.0 * sigma,
                || format!("{key}: PARA injected {injected}, expected {expect:.1} ± 5x{sigma:.1}"),
            );
        } else {
            let t_rh: f64 = plugin
                .split(':')
                .nth(1)
                .and_then(|v| v.parse().ok())
                .expect("threshold");
            checks.check(injected * t_rh <= 2.0 * acts, || {
                format!("{key}: {injected} injections x tRH {t_rh} exceed 2 x {acts} ACTs")
            });
        }
    }
}
