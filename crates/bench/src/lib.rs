//! # hira-bench — the figure/table regeneration harness
//!
//! One binary per table and figure of the paper (see `src/bin/`), each of
//! which declares its experiment space as a [`hira_engine::Sweep`] — or a
//! [`Grid`] of policy, workload, device, capacity, plugin and mix axes —
//! and runs it through one [`SweepRun`]: the executor, the scale, the
//! per-point [`Task`] and the optional probes, cache and observability.
//! Every binary prints the same rows/series the paper reports; absolute
//! values come from our simulator/model, the *shape* (orderings, trends,
//! crossovers) is the reproduction target.
//!
//! Scale knobs (all binaries):
//!
//! * `HIRA_MIXES` — number of 8-core workload mixes (default 6; paper: 125),
//! * `HIRA_INSTS` — measured instructions per core (default 60 000;
//!   paper: 200 M),
//! * `HIRA_ROWS` — characterization rows per region (default 48;
//!   paper: 2 048),
//! * `HIRA_THREADS` — engine worker threads (default: available
//!   parallelism); results are bit-identical for any value,
//! * `HIRA_BENCH_DIR` — when set, every binary additionally writes its
//!   machine-readable `BENCH_<sweep>.json` result set there.
//!
//! The four comparison matrices (`policy_matrix`, `workload_matrix`,
//! `device_matrix`, `rh_matrix`) are presets of one grid ([`Matrix`]) and
//! share one flag parser, [`MatrixArgs`], which documents the flags once.

use hira_engine::{
    flabel, metric, sanitize_key, suffix_path, Executor, Metric, PointTelemetry, RunRecord,
    Scenario, ScenarioKey, Sweep,
};
use hira_obs::{field, Level, MetricsRegistry, Progress, TraceSink};
use hira_sim::builder::{BuildError, SystemBuilder};
use hira_sim::config::{KernelMode, SystemConfig};
use hira_sim::device::{DeviceHandle, DeviceRegistry};
use hira_sim::plugin::{PluginHandle, PluginRegistry};
use hira_sim::policy::{self, PolicyHandle, PolicyRegistry};
use hira_sim::probe::ProbeRegistry;
use hira_sim::system::System;
use hira_sim::ProbeHandle;
use hira_store::{CacheExecutorExt, OnPoint, PointOutcome, SweepPlan, SweepStore};
use hira_workload::{mix, WorkloadHandle, WorkloadRegistry};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{LazyLock, Mutex, OnceLock};
use std::time::Instant;

pub mod presets;
pub mod serve;

pub use presets::{Figure, Geometry, Matrix, MatrixArgs};

pub use hira_engine::RunSet;
pub use hira_store::CacheStats;

/// Experiment scale options, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Number of multiprogrammed mixes per data point.
    pub mixes: usize,
    /// Measured instructions per core.
    pub insts: u64,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Characterization rows per region.
    pub rows: u32,
}

impl Scale {
    /// Reads `HIRA_MIXES` / `HIRA_INSTS` / `HIRA_ROWS` with defaults.
    pub fn from_env() -> Self {
        let get = |k: &str, d: u64| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        let insts = get("HIRA_INSTS", 60_000);
        Scale {
            mixes: get("HIRA_MIXES", 6) as usize,
            insts,
            warmup: insts / 5,
            rows: get("HIRA_ROWS", 48) as u32,
        }
    }
}

/// Alone-IPC cache key: workload *instance* name (for a mix, the member
/// benchmark a core runs), the digest of a `trace:<path>` instance's
/// records (`None` for every other name), device, channels, ranks, and the
/// Scale dimensions the simulation depends on (measured + warmup
/// instructions) — so runs at different scales, on different devices or
/// over an edited trace file in one process never share stale values.
type AloneKey = (String, Option<u64>, String, usize, usize, u64, u64);

/// The memo key of instance `name`, and its handle when resolving it was
/// needed to make the key. A `trace:<path>` instance is loaded on every
/// call, so its key carries the digest of the records its file holds now,
/// as [`SystemConfig::cache_descriptor`] does. Every other name keys by
/// itself: no registry is built and no file read until a value must be
/// computed.
fn alone_entry(
    name: &str,
    device: &DeviceHandle,
    channels: usize,
    ranks: usize,
    scale: Scale,
) -> (AloneKey, Option<WorkloadHandle>) {
    let trace = name
        .starts_with("trace:")
        .then(|| hira_workload::workload(name));
    let key = (
        name.to_owned(),
        trace.as_ref().and_then(WorkloadHandle::content_digest),
        device.name().to_owned(),
        channels,
        ranks,
        scale.insts,
        scale.warmup,
    );
    (key, trace)
}

/// Global memo of alone-IPC values, keyed by instance and geometry.
static ALONE_IPC: LazyLock<Mutex<HashMap<AloneKey, f64>>> = LazyLock::new(Default::default);

/// The (pure, deterministic) computation behind [`alone_ipc`]: the
/// workload instance alone on a single core of an ideal (no-refresh,
/// no-PARA) 8 Gb system of the given device and geometry.
fn compute_alone_ipc(
    handle: &WorkloadHandle,
    device: &DeviceHandle,
    channels: usize,
    ranks: usize,
    scale: Scale,
) -> f64 {
    let mut cfg = SystemBuilder::new()
        .device(device.clone())
        .chip_gbit(8.0)
        .policy(policy::noref())
        .geometry(channels, ranks)
        .insts(scale.insts, scale.warmup)
        .workload(handle.clone())
        .build()
        .expect("alone-IPC reference system must be valid");
    cfg.cores = 1;
    System::new(cfg).run().ipc[0]
}

/// IPC of the workload instance `name` running alone on an ideal
/// (no-refresh, no-PARA) system of the given device and geometry — the
/// denominator of weighted speedup. The device matters: a speedup on
/// `lpddr4-3200` is normalized by an `lpddr4-3200` alone run, so the
/// metric isolates refresh interference, not inter-device raw speed.
/// Memoized; the value is a pure function of its arguments and, for a
/// `trace:<path>` instance, of the records the file holds at the call, so
/// concurrent computation of the same key is merely redundant, never
/// divergent.
///
/// # Panics
///
/// Panics when `name` does not resolve against the standard workload
/// registry: weighted-speedup sweeps require registry-resolvable instance
/// names (custom unregistered workloads can still be simulated directly,
/// just not normalized by a [`SweepRun`]).
pub fn alone_ipc(
    name: &str,
    device: &DeviceHandle,
    channels: usize,
    ranks: usize,
    scale: Scale,
) -> f64 {
    let (key, trace) = alone_entry(name, device, channels, ranks, scale);
    if let Some(&v) = ALONE_IPC.lock().expect("alone-IPC memo").get(&key) {
        return v;
    }
    let handle = trace.unwrap_or_else(|| hira_workload::workload(name));
    let ipc = compute_alone_ipc(&handle, device, channels, ranks, scale);
    ALONE_IPC.lock().expect("alone-IPC memo").insert(key, ipc);
    ipc
}

/// Pre-computes every alone-IPC value the given configurations will need —
/// one engine task per distinct `(instance, geometry)` key — so the
/// main sweep's tasks only ever hit the in-process memo. Instance names
/// come from each configuration's workload handle (building an instance is
/// cheap and does not simulate). The cached run path passes only its *miss*
/// configurations here, so a fully warm sweep performs zero simulations.
fn warm_alone_cache<'a>(
    ex: &Executor,
    configs: impl IntoIterator<Item = &'a SystemConfig>,
    base_seed: u64,
    scale: Scale,
) {
    let mut points = Vec::new();
    let mut seen: Vec<AloneKey> = Vec::new();
    for cfg in configs {
        for name in cfg.workload.instance_names(cfg.cores, cfg.seed) {
            let (key, trace) = alone_entry(&name, &cfg.device, cfg.channels, cfg.ranks, scale);
            if ALONE_IPC.lock().expect("alone-IPC memo").contains_key(&key) || seen.contains(&key) {
                continue;
            }
            seen.push(key.clone());
            let sc_key = ScenarioKey::root()
                .with("wl", &name)
                .with("dev", cfg.device.name())
                .with("ch", cfg.channels.to_string())
                .with("rk", cfg.ranks.to_string());
            points.push((sc_key, (key, trace, cfg.device.clone())));
        }
    }
    if points.is_empty() {
        return;
    }
    let warm = Sweep::from_points("alone_ipc", base_seed, points);
    let ipcs = ex.map(&warm, |sc| {
        let ((name, _, _, channels, ranks, _, _), trace, dev) = sc.params;
        let handle = trace
            .clone()
            .unwrap_or_else(|| hira_workload::workload(name));
        compute_alone_ipc(&handle, dev, *channels, *ranks, scale)
    });
    let mut memo = ALONE_IPC.lock().expect("alone-IPC memo");
    for ((_, (key, _, _)), ipc) in warm.points().iter().zip(ipcs) {
        memo.insert(key.clone(), ipc);
    }
}

/// A weighted-speedup table: the raw per-point [`RunSet`] plus each
/// configuration's mean over its mixes (the numbers every figure plots).
#[derive(Debug, Clone)]
pub struct WsTable {
    /// Per-`(config, mix)` records (`ws` and any task metrics), for
    /// emission/inspection.
    pub run: RunSet,
    means: Vec<(ScenarioKey, f64)>,
}

impl WsTable {
    fn new(run: RunSet) -> Self {
        let means = run.mean_over(&["mix"], "ws");
        WsTable { run, means }
    }

    /// Mean weighted speedup of the one configuration matching `filters`.
    ///
    /// # Panics
    ///
    /// Panics if no configuration or several match: a lookup names exactly
    /// one cell, and an average over several is spelled out with
    /// [`WsTable::mean_over`].
    pub fn mean(&self, filters: &[(&str, &str)]) -> f64 {
        self.try_mean(filters)
            .unwrap_or_else(|| panic!("no ws point matches {filters:?}"))
    }

    /// [`WsTable::mean`], but `None` when no configuration matches — for
    /// grids with legitimately absent cells (e.g. a HiRA policy on a
    /// HiRA-inert device, skipped at build time).
    ///
    /// # Panics
    ///
    /// Panics if several configurations match.
    pub fn try_mean(&self, filters: &[(&str, &str)]) -> Option<f64> {
        one_cell(&self.means, filters)
    }

    /// The mean `metric` of the one cell matching `filters` once `axes`
    /// are averaged away, besides the `mix` axis every table averages — an
    /// explicit mean over, say, devices or plugins. `None` when no cell
    /// matches.
    ///
    /// # Panics
    ///
    /// Panics if several cells still match: `axes` plus `filters` must
    /// pin down every axis of the sweep.
    pub fn mean_over(&self, axes: &[&str], metric: &str, filters: &[(&str, &str)]) -> Option<f64> {
        let mut all = vec!["mix"];
        all.extend_from_slice(axes);
        one_cell(&self.run.mean_over(&all, metric), filters)
    }

    /// Writes `BENCH_<sweep>.json` when `HIRA_BENCH_DIR` is set.
    pub fn emit(&self) {
        self.run.emit_if_requested();
    }
}

/// The value of the one cell whose key matches `filters`; `None` when
/// none does.
///
/// # Panics
///
/// Panics, listing them, when several cells match.
fn one_cell(cells: &[(ScenarioKey, f64)], filters: &[(&str, &str)]) -> Option<f64> {
    let matching: Vec<&(ScenarioKey, f64)> =
        cells.iter().filter(|(k, _)| k.matches(filters)).collect();
    match matching[..] {
        [] => None,
        [(_, v)] => Some(*v),
        _ => {
            let keys: Vec<String> = matching.iter().map(|(k, _)| k.to_string()).collect();
            panic!(
                "{filters:?} matches {} cells, not one: {}",
                keys.len(),
                keys.join("; ")
            )
        }
    }
}

/// What a sweep measures at each point. The task's [`Task::tag`] is part
/// of every point's cache key, so tasks that measure different metric sets
/// over identical configurations never replay each other's results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Weighted speedup (`ws`): simulate, then normalize each core by its
    /// workload's alone-IPC. Points with controller plugins attached also
    /// report the defense counters `plugin_acts`, `plugin_injected`,
    /// `victim_max_exposure`, `victim_mean_exposure` and
    /// `rows_over_threshold`.
    Ws,
    /// [`Task::Ws`] plus the channel metrics: `read_lat` / `write_lat`
    /// (average demand latencies in memory cycles), `dbus` (mean
    /// per-channel data-bus busy fraction) and the histogram quantiles
    /// `read_p50` / `read_p99` / `write_p50` / `write_p99`.
    WsStats,
    /// The kernel A/B: time the dense and event kernels on the point,
    /// assert their results are identical (the `next_wake` contract), and
    /// report `wall_dense_ms` / `wall_event_ms` / `speedup`.
    PerfKernel,
}

impl Task {
    /// The task's cache tag: `ws`, `ws+stats` or `perf_kernel`.
    pub fn tag(self) -> &'static str {
        match self {
            Task::Ws => "ws",
            Task::WsStats => "ws+stats",
            Task::PerfKernel => "perf_kernel",
        }
    }

    /// Runs one point: its metrics, telemetry and `(warmup_ms,
    /// measure_ms)` phase split. Measure is the simulation proper, warmup
    /// the alone-IPC normalization (≈0 once the memo is warm); the rest of
    /// the point's wall is the serialize phase the observer derives.
    fn point(
        self,
        cfg: &SystemConfig,
        key: &ScenarioKey,
        scale: Scale,
    ) -> (Vec<Metric>, Option<PointTelemetry>, (f64, f64)) {
        let ms_since = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        if self == Task::PerfKernel {
            let start = Instant::now();
            let timed = |kernel: KernelMode| {
                let t = Instant::now();
                let result = System::new(cfg.clone().with_kernel(kernel)).run();
                (result, ms_since(t))
            };
            let (dense, wall_dense) = timed(KernelMode::Dense);
            let (event, wall_event) = timed(KernelMode::Event);
            assert_eq!(
                dense, event,
                "kernel divergence at {key}: the next_wake contract is violated somewhere"
            );
            let ms = vec![
                metric("wall_dense_ms", wall_dense),
                metric("wall_event_ms", wall_event),
                metric("speedup", wall_dense / wall_event),
            ];
            return (ms, None, (0.0, ms_since(start)));
        }
        let t_measure = Instant::now();
        let (r, telemetry) = System::new(cfg.clone()).run_telemetered();
        let measure_ms = ms_since(t_measure);
        let t_warmup = Instant::now();
        let alone: Vec<f64> = r
            .workloads
            .iter()
            .map(|name| alone_ipc(name, &cfg.device, cfg.channels, cfg.ranks, scale))
            .collect();
        let warmup_ms = ms_since(t_warmup);
        let mut ms = vec![metric("ws", r.weighted_speedup(&alone))];
        if self == Task::WsStats {
            ms.push(metric("read_lat", r.avg_read_latency()));
            ms.push(metric("write_lat", r.avg_write_latency()));
            let util = r.data_bus_utilization();
            let mean_util = util.iter().sum::<f64>() / util.len().max(1) as f64;
            ms.push(metric("dbus", mean_util));
            // Histogram quantiles (memory cycles); 0 on empty histograms,
            // matching the documented empty-run convention of the means.
            let q = |v: Option<u64>| v.map_or(0.0, |x| x as f64);
            ms.push(metric("read_p50", q(r.read_latency_quantile(0.50))));
            ms.push(metric("read_p99", q(r.read_latency_quantile(0.99))));
            ms.push(metric("write_p50", q(r.write_latency_quantile(0.50))));
            ms.push(metric("write_p99", q(r.write_latency_quantile(0.99))));
        }
        // Plugin-free points are unchanged (keeps the committed matrix
        // baselines' record sets stable).
        if !r.plugin_stats.is_empty() {
            let totals = r.plugin_totals();
            ms.push(metric("plugin_acts", totals.acts_observed as f64));
            ms.push(metric("plugin_injected", totals.injected as f64));
            ms.push(metric("victim_max_exposure", totals.max_exposure as f64));
            ms.push(metric("victim_mean_exposure", totals.mean_exposure()));
            ms.push(metric(
                "rows_over_threshold",
                totals.rows_over_threshold as f64,
            ));
        }
        let t = PointTelemetry {
            events: telemetry.events,
            peak_queue: telemetry.peak_queue,
        };
        (ms, Some(t), (warmup_ms, measure_ms))
    }
}

/// How a simulator sweep runs: the executor, the scale, the per-point
/// [`Task`], and what rides along — probes, the sweep cache and
/// observability. Every `ws`, `ws+stats` and `perf_kernel` sweep, in the
/// bins and in `hira serve` alike, executes through one path: hira-store's
/// plan-and-run ([`CacheExecutorExt::run_cached`]), where a run without a
/// store plans every point as a miss. The [`RunSet`] it returns is
/// bit-identical for any thread count and cache state, and its `wall_ms`
/// is the summed per-point wall.
#[derive(Debug, Clone)]
pub struct SweepRun {
    ex: Executor,
    scale: Scale,
    task: Task,
    probes: ProbeSpec,
    cache: CacheSpec,
    obs: ObsSpec,
}

impl SweepRun {
    /// A plain `ws` run on `ex` at `scale`: no probes, no cache, no
    /// observation.
    pub fn new(ex: Executor, scale: Scale) -> Self {
        SweepRun {
            ex,
            scale,
            task: Task::Ws,
            probes: ProbeSpec::default(),
            cache: CacheSpec::disabled(),
            obs: ObsSpec::disabled(),
        }
    }

    /// Measures `task` at every point.
    pub fn task(mut self, task: Task) -> Self {
        self.task = task;
        self
    }

    /// Attaches `probes` to every point (see [`ProbeSpec::attach`]).
    pub fn probes(mut self, probes: ProbeSpec) -> Self {
        self.probes = probes;
        self
    }

    /// Replays and persists points through `cache` (see [`CacheSpec`]).
    pub fn cache(mut self, cache: CacheSpec) -> Self {
        self.cache = cache;
        self
    }

    /// Observes the run as `obs` selects (see [`ObsSpec`]).
    pub fn obs(mut self, obs: ObsSpec) -> Self {
        self.obs = obs;
        self
    }

    /// This run single-threaded, uncached and unobserved: the
    /// `--check-determinism` re-run, which re-simulates every point.
    pub fn serial(&self) -> Self {
        SweepRun::new(Executor::with_threads(1), self.scale)
            .task(self.task)
            .probes(self.probes.clone())
    }

    /// Runs every point of `sweep` at this run's instruction budget and
    /// returns the run set with its cache accounting (every point a miss
    /// without a cache).
    ///
    /// # Panics
    ///
    /// Panics if `sweep` is empty, if the cache cannot be opened or
    /// written, if a trace cannot be opened, or (for
    /// [`Task::PerfKernel`]) if the two kernels diverge.
    pub fn run(&self, sweep: Sweep<SystemConfig>) -> (RunSet, CacheStats) {
        let (insts, warmup) = (self.scale.insts, self.scale.warmup);
        let sweep = self
            .probes
            .attach(sweep.map(|_, cfg| cfg.with_insts(insts, warmup)));
        assert!(!sweep.is_empty(), "sweep `{}` has no points", sweep.name());
        let watch = self.obs.begin(sweep.name(), sweep.len(), self.ex.threads());
        let mut store = self.cache.open_for(&sweep);
        let plan = self.plan(store.as_ref(), &sweep);
        let on_point = |o: PointOutcome<'_>| {
            if let Some(w) = &watch {
                let key = &sweep.points()[o.index].0;
                w.point_done(key, o.cached, o.queue_wait_ms, o.point.wall_ms);
            }
        };
        let (run, stats) = self
            .execute(store.as_mut(), &sweep, &plan, watch.as_ref(), &on_point)
            .unwrap_or_else(|e| panic!("cache: cannot persist results: {e}"));
        let cached = store.is_some().then_some(&stats);
        if let Some(s) = cached {
            self.cache.report(s);
        }
        if let Some(w) = watch {
            w.finish(&run, cached);
        }
        self.obs.report_slow(&run);
        (run, stats)
    }

    /// [`SweepRun::run`] as a weighted-speedup table. Every point keeps its
    /// own workload (a `--workload=` axis, a trace replay, a mix).
    ///
    /// # Panics
    ///
    /// As [`SweepRun::run`], and if a point's workload yields instance
    /// names the standard registry cannot resolve (see [`alone_ipc`]).
    pub fn ws(&self, sweep: Sweep<SystemConfig>) -> WsTable {
        WsTable::new(self.run(sweep).0)
    }

    /// [`SweepRun::ws`] over `sweep` crossed with the standard mix suite: a
    /// trailing `mix` axis runs every configuration under each of the
    /// scale's mixes (`mix0`, `mix1`, ...).
    ///
    /// # Panics
    ///
    /// As [`SweepRun::ws`], and if the scale has no mixes.
    pub fn ws_over_mixes(&self, sweep: Sweep<SystemConfig>) -> WsTable {
        let mixes = mix_axis(self.scale.mixes);
        self.ws(sweep.axis("mix", mixes, |cfg, &id| cfg.clone().with_workload(mix(id))))
    }

    /// Classifies `sweep` against `store` under this run's task tag; with
    /// no store, every point is a miss.
    pub(crate) fn plan(
        &self,
        store: Option<&SweepStore>,
        sweep: &Sweep<SystemConfig>,
    ) -> SweepPlan {
        match store {
            Some(store) => SweepPlan::compute(store, sweep, cache_salt(), |sc| {
                ws_canonical(self.task.tag(), sc.params)
            }),
            None => SweepPlan::uncached(sweep.len()),
        }
    }

    /// Executes `plan` — the one executor entry point. Alone-IPC
    /// denominators are computed first, for the missed points only, so a
    /// fully warm sweep performs zero simulations; `watch` receives each
    /// computed point's phase split, `on_point` every finished point.
    ///
    /// # Errors
    ///
    /// Propagates store append failures.
    pub(crate) fn execute(
        &self,
        store: Option<&mut SweepStore>,
        sweep: &Sweep<SystemConfig>,
        plan: &SweepPlan,
        watch: Option<&ObsRun>,
        on_point: OnPoint<'_>,
    ) -> std::io::Result<(RunSet, CacheStats)> {
        if self.task != Task::PerfKernel {
            let misses = plan.miss_indices().map(|i| &sweep.points()[i].1);
            warm_alone_cache(&self.ex, misses, sweep.base_seed(), self.scale);
        }
        let task = |sc: Scenario<'_, SystemConfig>| {
            let (ms, t, phases) = self.task.point(sc.params, sc.key, self.scale);
            if let Some(w) = watch {
                w.record_phases(sc.key, phases);
            }
            (ms, t)
        };
        self.ex.run_cached(store, sweep, plan, task, Some(on_point))
    }
}

/// The `mix` axis values `0..mixes` (label = mix id).
///
/// # Panics
///
/// Panics when `mixes` is zero.
fn mix_axis(mixes: usize) -> Vec<(String, usize)> {
    assert!(
        mixes >= 1,
        "HIRA_MIXES must be >= 1 (a data point needs at least one mix)"
    );
    (0..mixes).map(|id| (id.to_string(), id)).collect()
}

/// A configuration grid over ordered key axes. Each method adds one axis
/// — `policy`, `wl`, `dev`, `cap`, `plugin` or `mix` — crossed in call
/// order, which is also the key order, so point seeds and cache hashes
/// follow from the call order alone. An empty axis adds no key part. Every
/// cell builds through [`SystemBuilder`] from the Table 3 defaults; the
/// cells it refuses as a HiRA policy on a HiRA-inert device or a
/// directed-refresh plugin on a VRR-less device come back from
/// [`Grid::build`] with their reason. An axis that repeats a label would
/// make two points under one key, so [`Grid::build`] refuses it.
#[derive(Debug, Clone)]
pub struct Grid {
    cells: Sweep<SystemBuilder>,
    /// The first label an axis was given twice, as `(axis, label)`.
    repeated: Option<(String, String)>,
}

/// The cells [`Grid::build`] skipped: each one's key and reason, such as
/// `ddr4-2400 x hira4 (HiRA-inert device)`.
pub type Skipped = Vec<(ScenarioKey, String)>;

impl Grid {
    /// A one-cell grid of the Table 3 defaults, named `name` (the sweep,
    /// store-shard and `BENCH_<name>.json` name).
    pub fn new(name: &str) -> Self {
        Grid {
            cells: Sweep::new(name).map(|_, ()| SystemBuilder::new()),
            repeated: None,
        }
    }

    fn axis<V>(
        self,
        axis: &str,
        values: &[(String, V)],
        set: impl Fn(SystemBuilder, &V) -> SystemBuilder,
    ) -> Self {
        if values.is_empty() {
            return self;
        }
        let repeated = self.repeated.or_else(|| {
            values.iter().enumerate().find_map(|(i, (label, _))| {
                values[..i]
                    .iter()
                    .any(|(earlier, _)| earlier == label)
                    .then(|| (axis.to_owned(), label.clone()))
            })
        });
        let values = values.iter().map(|(label, v)| (label.as_str(), v));
        Grid {
            cells: self.cells.axis(axis, values, |b, v| set(b.clone(), v)),
            repeated,
        }
    }

    /// The `policy` axis.
    pub fn policies(self, axis: &[(String, PolicyHandle)]) -> Self {
        self.axis("policy", axis, |b, p| b.policy(p.clone()))
    }

    /// The `wl` (workload) axis.
    pub fn workloads(self, axis: &[(String, WorkloadHandle)]) -> Self {
        self.axis("wl", axis, |b, w| b.workload(w.clone()))
    }

    /// The `dev` (device) axis.
    pub fn devices(self, axis: &[(String, DeviceHandle)]) -> Self {
        self.axis("dev", axis, |b, d| b.device(d.clone()))
    }

    /// The `cap` axis: chip capacities in Gb, labelled by [`flabel`].
    pub fn caps(self, caps: &[f64]) -> Self {
        let axis: Vec<(String, f64)> = caps.iter().map(|&c| (flabel(c), c)).collect();
        self.axis("cap", &axis, |b, &c| b.chip_gbit(c))
    }

    /// The `plugin` axis; a `None` entry (label `none`) is the undefended
    /// point.
    pub fn plugins(self, axis: &[(String, Option<PluginHandle>)]) -> Self {
        self.axis("plugin", axis, |b, g| match g {
            Some(h) => b.plugin(h.clone()),
            None => b,
        })
    }

    /// The `mix` axis: the first `mixes` mixes of the standard suite
    /// (`mix0`, `mix1`, ...).
    ///
    /// # Panics
    ///
    /// Panics when `mixes` is zero.
    pub fn mixes(self, mixes: usize) -> Self {
        self.axis("mix", &mix_axis(mixes), |b, &id| b.workload(mix(id)))
    }

    /// Builds every cell at `scale`'s instruction budget under `kernel`:
    /// the sweep of built cells in grid order, plus every cell the builder
    /// refused as HiRA-inert or VRR-less, with its reason.
    ///
    /// # Errors
    ///
    /// An axis that repeats a label (such as `caps` 8 and 8.0, both
    /// labelled `8`), naming the axis and the label; any other build
    /// failure, naming its cell.
    pub fn build(
        self,
        scale: Scale,
        kernel: KernelMode,
    ) -> Result<(Sweep<SystemConfig>, Skipped), String> {
        if let Some((axis, label)) = self.repeated {
            return Err(format!("the `{axis}` axis repeats `{label}`"));
        }
        let built = self
            .cells
            .map(|_, b| b.insts(scale.insts, scale.warmup).kernel(kernel).build());
        let mut skipped = Vec::new();
        for (key, cell) in built.points() {
            let label = |axis: &str, name: &str| key.get(axis).unwrap_or(name).to_owned();
            let reason = match cell {
                Ok(_) => continue,
                Err(BuildError::DeviceLacksHira { device, policy }) => format!(
                    "{} x {} (HiRA-inert device)",
                    label("dev", device),
                    label("policy", policy)
                ),
                Err(BuildError::DeviceLacksVrr { device, plugin }) => format!(
                    "{} x {} (device drops directed refresh)",
                    label("dev", device),
                    label("plugin", plugin)
                ),
                Err(e) => return Err(format!("cannot build {key}: {e}")),
            };
            skipped.push((key.clone(), reason));
        }
        let sweep = built
            .retain(|_, cell| cell.is_ok())
            .map(|_, cell| cell.expect("refused cells were dropped"));
        Ok((sweep, skipped))
    }
}

/// The canonical configuration string of one weighted-speedup point under
/// task `tag` — the content the sweep cache keys by, besides the point's
/// seed and the process's [`cache_salt`]. The tag keeps tasks that measure
/// different metric sets over identical configurations (`ws`, `ws+stats`,
/// `perf_kernel`) from colliding in the store.
pub fn ws_canonical(tag: &str, cfg: &SystemConfig) -> String {
    format!("task={tag};{}", cfg.cache_descriptor())
}

/// The process's code-version salt for the sweep cache: the store schema
/// version plus the fingerprints of every registry a cached result depends
/// on (policies, workloads, devices, probe forms, plugin forms). Any
/// registry change — a handle added, removed or renamed — moves the salt
/// and conservatively invalidates existing stores. The registries are fixed
/// per binary, so the salt is computed once per process.
pub fn cache_salt() -> u64 {
    static SALT: OnceLock<u64> = OnceLock::new();
    *SALT.get_or_init(|| {
        let owned = |v: Vec<&str>| v.into_iter().map(str::to_owned).collect::<Vec<_>>();
        let forms = |v: Vec<(&str, &str)>| {
            v.into_iter()
                .map(|(form, _)| form.to_owned())
                .collect::<Vec<_>>()
        };
        hira_store::code_version_salt([
            ("policy", owned(PolicyRegistry::standard().names())),
            ("workload", owned(WorkloadRegistry::standard().names())),
            ("device", owned(DeviceRegistry::standard().names())),
            ("probe", forms(ProbeRegistry::standard().forms())),
            ("plugin", forms(PluginRegistry::standard().forms())),
        ])
    })
}

/// The sweep-cache selection of a matrix binary: `--cache=<dir>` enables
/// the content-addressed result store at `<dir>` (created on first use),
/// `--no-cache` overrides it off, and `--cache-stats` prints the hit/miss
/// accounting after each cached sweep.
///
/// Probes are the one interaction the cache refuses to shortcut: replaying
/// a hit would skip the simulation the probe's output files come from, so
/// a sweep with probes attached runs uncached (with a note on stderr).
#[derive(Debug, Clone, Default)]
pub struct CacheSpec {
    dir: Option<PathBuf>,
    stats: bool,
}

impl CacheSpec {
    /// Parses the cache flags from the process arguments.
    ///
    /// # Panics
    ///
    /// Panics when `--cache=` names an empty path or is passed twice with
    /// different directories.
    pub fn from_args() -> Self {
        let mut dir: Option<PathBuf> = None;
        let mut no_cache = false;
        let mut stats = false;
        for a in std::env::args() {
            if let Some(d) = a.strip_prefix("--cache=") {
                assert!(!d.is_empty(), "--cache needs a directory: --cache=<dir>");
                let d = PathBuf::from(d);
                if let Some(prev) = &dir {
                    assert_eq!(prev, &d, "--cache passed twice with different directories");
                }
                dir = Some(d);
            } else if a == "--no-cache" {
                no_cache = true;
            } else if a == "--cache-stats" {
                stats = true;
            }
        }
        if no_cache {
            dir = None;
        }
        CacheSpec { dir, stats }
    }

    /// The inactive spec: every run simulates (the library default).
    pub fn disabled() -> Self {
        CacheSpec::default()
    }

    /// A spec caching at `dir`, for tests and embedding (`hira serve`).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        CacheSpec {
            dir: Some(dir.into()),
            stats: false,
        }
    }

    /// True when a cache directory is selected.
    pub fn is_active(&self) -> bool {
        self.dir.is_some()
    }

    /// The selected cache directory, when active.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Opens the store for one sweep — `None` when the spec is inactive or
    /// the sweep has probes attached (their output files require the
    /// simulations to actually run; noted on stderr).
    ///
    /// # Panics
    ///
    /// Panics when the store directory cannot be opened or is corrupt
    /// before its tail — an explicitly requested cache that cannot work is
    /// an error, not a silent slow path.
    fn open_for(&self, sweep: &Sweep<SystemConfig>) -> Option<SweepStore> {
        let dir = self.dir.as_ref()?;
        if sweep.points().iter().any(|(_, c)| c.probe.is_some()) {
            eprintln!(
                "cache: probes attached to sweep `{}`; running uncached so probe \
                 outputs are written (drop --probe or --cache to silence)",
                sweep.name()
            );
            return None;
        }
        Some(
            SweepStore::open(dir)
                .unwrap_or_else(|e| panic!("--cache: cannot open store at {}: {e}", dir.display())),
        )
    }

    /// Prints one accounting line when `--cache-stats` was passed.
    pub fn report(&self, stats: &CacheStats) {
        if self.stats {
            println!(
                "cache: {} points, {} hits, {} misses, {} appended ({})",
                stats.points,
                stats.hits,
                stats.misses,
                stats.appended,
                self.dir
                    .as_ref()
                    .map_or("inactive".to_string(), |d| d.display().to_string()),
            );
        }
    }
}

/// The observability selection of a bench binary, from the shared flags:
///
/// * `--trace[=<path>]` — write one append-only JSONL span/event log per
///   sweep. A bare `--trace` (or a directory path) derives the file name
///   from the sweep via the engine's path sanitizer
///   (`<dir>/<sweep>.trace.jsonl`); a path ending in `.jsonl` is used
///   verbatim. The bare form writes under `HIRA_BENCH_DIR` (or `.`).
/// * `--metrics[=<path>]` — dump the run's Prometheus text exposition
///   after the sweep. A bare `--metrics` (or a directory path) writes
///   `<dir>/<sweep>.prom`; a path with an extension is used verbatim.
/// * `--progress` — stream live `done/total, points/sec, ETA` lines to
///   stderr as points complete.
/// * `--log-level=<error|warn|info|debug|trace>` — trace verbosity
///   (default from `HIRA_LOG`, else `info`).
///
/// Any active flag also appends the slow-point outlier report (points
/// slower than 3× the sweep's median wall) to the run summary.
/// Observation rides beside the results: canonical output is byte-
/// identical with or without it, for any thread count and cache state.
#[derive(Debug, Clone, Default)]
pub struct ObsSpec {
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    progress: bool,
    level: Level,
}

/// The multiplier of [`ObsSpec::report_slow`]: a point is an outlier when
/// its wall exceeds this many times the sweep's median point wall.
pub const SLOW_POINT_FACTOR: f64 = 3.0;

impl ObsSpec {
    /// Parses the observability flags from the process arguments.
    ///
    /// # Panics
    ///
    /// Panics when `--log-level=` does not name a level, or when
    /// `--trace=`/`--metrics=` name an empty path.
    pub fn from_args() -> Self {
        let default_dir = || {
            std::env::var("HIRA_BENCH_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from("."))
        };
        let mut trace = None;
        let mut metrics = None;
        let mut progress = false;
        let mut level_arg: Option<String> = None;
        for a in std::env::args() {
            if a == "--trace" {
                trace = Some(default_dir());
            } else if let Some(p) = a.strip_prefix("--trace=") {
                assert!(!p.is_empty(), "--trace needs a path: --trace=<path>");
                trace = Some(PathBuf::from(p));
            } else if a == "--metrics" {
                metrics = Some(default_dir());
            } else if let Some(p) = a.strip_prefix("--metrics=") {
                assert!(!p.is_empty(), "--metrics needs a path: --metrics=<path>");
                metrics = Some(PathBuf::from(p));
            } else if a == "--progress" {
                progress = true;
            } else if let Some(l) = a.strip_prefix("--log-level=") {
                level_arg = Some(l.to_owned());
            }
        }
        ObsSpec {
            trace,
            metrics,
            progress,
            level: Level::resolve(level_arg.as_deref()),
        }
    }

    /// The inactive spec: no tracing, no metrics, no progress (the
    /// library default).
    pub fn disabled() -> Self {
        ObsSpec::default()
    }

    /// True when any observability flag was passed.
    pub fn is_active(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some() || self.progress
    }

    /// Traces into `path` — a `.jsonl` file, or a directory to derive
    /// per-sweep file names in (the programmatic form of `--trace=`).
    pub fn with_trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Dumps metrics at `path` — a file when it has an extension, a
    /// directory otherwise (the programmatic form of `--metrics=`).
    pub fn with_metrics(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics = Some(path.into());
        self
    }

    /// Streams live progress to stderr (the programmatic `--progress`).
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }

    /// Starts observing one sweep: opens the trace sink, creates the
    /// metrics registry and the progress ticker. `None` when the spec is
    /// inactive — the unobserved path pays nothing.
    ///
    /// # Panics
    ///
    /// Panics when the trace log cannot be opened — an explicitly
    /// requested trace that cannot work is an error, not a silent no-op.
    pub fn begin(&self, sweep: &str, points: usize, threads: usize) -> Option<ObsRun> {
        if !self.is_active() {
            return None;
        }
        let sink = self.sink(sweep);
        if let Some(s) = &sink {
            s.event(
                Level::Info,
                "sweep_start",
                &[
                    field("sweep", sweep),
                    field("points", points),
                    field("threads", threads),
                ],
            );
        }
        let registry = MetricsRegistry::new();
        let meters = Meters::new(&registry);
        Some(ObsRun {
            sink,
            registry,
            meters,
            progress: Progress::new(points),
            show_progress: self.progress,
            metrics_file: self.metrics_file(sweep),
            phases: Mutex::new(Vec::new()),
            sweep: sweep.to_owned(),
        })
    }

    /// Opens the trace sink `--trace` asked for (`None` without the
    /// flag), deriving the file name from `name` when the flag named a
    /// directory. Used by [`ObsSpec::begin`] and by services that manage
    /// their own observation (`hira serve`).
    ///
    /// # Panics
    ///
    /// Panics when the log cannot be opened — an explicitly requested
    /// trace that cannot work is an error, not a silent no-op.
    pub fn sink(&self, name: &str) -> Option<TraceSink> {
        self.trace.as_ref().map(|p| {
            let sink = if p.extension().is_some_and(|e| e == "jsonl") {
                TraceSink::to_path(p, self.level)
            } else {
                TraceSink::for_sweep(p, name, self.level)
            };
            sink.unwrap_or_else(|e| panic!("--trace: cannot open log under {}: {e}", p.display()))
        })
    }

    /// Where the Prometheus dump of sweep `sweep` would go, when
    /// `--metrics` is active.
    fn metrics_file(&self, sweep: &str) -> Option<PathBuf> {
        let p = self.metrics.as_ref()?;
        Some(if p.extension().is_some() {
            p.clone()
        } else {
            p.join(format!("{}.prom", hira_engine::sanitize_component(sweep)))
        })
    }

    /// Appends the slow-point outlier report to the run summary (stdout)
    /// when any observability flag is active: every point slower than
    /// [`SLOW_POINT_FACTOR`] × the sweep's median point wall, or one line
    /// saying none were.
    pub fn report_slow(&self, run: &RunSet) {
        if !self.is_active() {
            return;
        }
        let (median, slow) = slow_points(run, SLOW_POINT_FACTOR);
        if slow.is_empty() {
            println!(
                "slow points: none above {SLOW_POINT_FACTOR:.1}x the median point wall \
                 ({median:.1} ms)"
            );
        } else {
            println!("slow points (> {SLOW_POINT_FACTOR:.1}x median {median:.1} ms):");
            for (key, wall) in slow {
                println!(
                    "  {:<42} {wall:>9.1} ms ({:.1}x)",
                    key.to_string(),
                    wall / median
                );
            }
        }
    }
}

/// The first record of every point: a point's records share its key,
/// wall and telemetry, so per-point sums count each point once.
fn per_point(run: &RunSet) -> impl Iterator<Item = &RunRecord> {
    let mut seen = HashSet::new();
    run.records.iter().filter(move |r| seen.insert(&r.key))
}

/// Total kernel iterations of `run`.
fn kernel_events(run: &RunSet) -> u64 {
    per_point(run)
        .filter_map(|r| r.telemetry)
        .map(|t| t.events)
        .sum()
}

/// The per-point walls of `run` that exceed `k` × the median point wall:
/// `(median, outliers in point order)`.
pub fn slow_points(run: &RunSet, k: f64) -> (f64, Vec<(ScenarioKey, f64)>) {
    let walls: Vec<(ScenarioKey, f64)> =
        per_point(run).map(|r| (r.key.clone(), r.wall_ms)).collect();
    let mut sorted: Vec<f64> = walls.iter().map(|(_, w)| *w).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n == 0 {
        0.0
    } else {
        (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
    };
    let slow = walls
        .into_iter()
        .filter(|(_, w)| median > 0.0 && *w > k * median)
        .collect();
    (median, slow)
}

/// The standard engine/cache instruments, registered against one
/// [`MetricsRegistry`] — the shared name catalogue every observed bench
/// run and `hira serve` exposes (see the README's Observability section).
pub(crate) struct Meters {
    pub computed: hira_obs::Counter,
    pub replayed: hira_obs::Counter,
    pub cache_hits: hira_obs::Counter,
    pub cache_misses: hira_obs::Counter,
    pub cache_appended: hira_obs::Counter,
    pub sweeps: hira_obs::Counter,
    pub wall_us: hira_obs::Histogram,
    pub queue_wait_us: hira_obs::Histogram,
    pub kernel_events: hira_obs::Counter,
    pub sweep_wall_ms: hira_obs::Gauge,
}

impl Meters {
    pub(crate) fn new(reg: &MetricsRegistry) -> Meters {
        let points = "sweep points finished";
        Meters {
            computed: reg.counter_with("hira_points_total", points, &[("result", "computed")]),
            replayed: reg.counter_with("hira_points_total", points, &[("result", "replayed")]),
            cache_hits: reg.counter(
                "hira_cache_hits_total",
                "points replayed from the sweep store",
            ),
            cache_misses: reg.counter(
                "hira_cache_misses_total",
                "points computed because the store missed",
            ),
            cache_appended: reg.counter(
                "hira_cache_appended_total",
                "points newly persisted to the sweep store",
            ),
            sweeps: reg.counter("hira_sweeps_total", "sweeps completed"),
            wall_us: reg.histogram("hira_point_wall_us", "per-point wall time in microseconds"),
            queue_wait_us: reg.histogram(
                "hira_point_queue_wait_us",
                "per-point queue wait in microseconds",
            ),
            kernel_events: reg.counter(
                "hira_kernel_events_total",
                "kernel iterations across finished points",
            ),
            sweep_wall_ms: reg.gauge(
                "hira_sweep_wall_ms",
                "last sweep's summed per-point wall in milliseconds",
            ),
        }
    }

    /// Folds one finished point into the counters and histograms.
    pub(crate) fn point(&self, cached: bool, queue_wait_ms: f64, wall_ms: f64) {
        if cached {
            self.replayed.inc();
        } else {
            self.computed.inc();
        }
        self.wall_us.observe(wall_ms * 1e3);
        self.queue_wait_us.observe(queue_wait_ms * 1e3);
    }

    /// Folds one finished sweep into the run-level instruments (kernel
    /// events, sweep wall, cache accounting when cached); returns the
    /// sweep's kernel events.
    pub(crate) fn sweep_done(&self, run: &RunSet, stats: Option<&CacheStats>) -> u64 {
        let events = kernel_events(run);
        self.kernel_events.add(events);
        self.sweep_wall_ms.set(run.wall_ms);
        self.sweeps.inc();
        if let Some(s) = stats {
            self.cache_hits.add(s.hits as u64);
            self.cache_misses.add(s.misses as u64);
            self.cache_appended.add(s.appended as u64);
        }
        events
    }
}

/// One sweep under observation (see [`ObsSpec::begin`]): the trace sink,
/// metrics, progress ticker and the phase side-channel the task wrappers
/// feed. All methods are callable from worker threads.
pub struct ObsRun {
    sink: Option<TraceSink>,
    registry: MetricsRegistry,
    meters: Meters,
    progress: Progress,
    show_progress: bool,
    metrics_file: Option<PathBuf>,
    phases: Mutex<Vec<(ScenarioKey, (f64, f64))>>,
    sweep: String,
}

impl ObsRun {
    /// Records one point's `(warmup_ms, measure_ms)` phase split, keyed by
    /// scenario key — called by the task wrapper, consumed by
    /// [`ObsRun::point_done`] on the same point.
    pub fn record_phases(&self, key: &ScenarioKey, phases: (f64, f64)) {
        self.phases
            .lock()
            .expect("phase side-channel")
            .push((key.clone(), phases));
    }

    /// Folds one finished point into the trace, metrics and progress.
    /// Replayed points carry zero phase timings — nothing ran.
    pub fn point_done(&self, key: &ScenarioKey, cached: bool, queue_wait_ms: f64, wall_ms: f64) {
        let phases = {
            let mut v = self.phases.lock().expect("phase side-channel");
            v.iter()
                .position(|(k, _)| k == key)
                .map(|i| v.swap_remove(i).1)
        };
        let (warmup_ms, measure_ms) = phases.unwrap_or((0.0, 0.0));
        let serialize_ms = if cached {
            0.0
        } else {
            (wall_ms - warmup_ms - measure_ms).max(0.0)
        };
        self.meters.point(cached, queue_wait_ms, wall_ms);
        if let Some(s) = &self.sink {
            s.event(
                Level::Info,
                "point",
                &[
                    field("point", key.to_string()),
                    field("cached", cached),
                    field("queue_wait_ms", queue_wait_ms),
                    field("warmup_ms", warmup_ms),
                    field("measure_ms", measure_ms),
                    field("serialize_ms", serialize_ms),
                    field("wall_ms", wall_ms),
                ],
            );
        }
        let snap = self.progress.point_done(cached);
        if self.show_progress {
            eprintln!("progress[{}]: {}", self.sweep, snap.render());
        }
    }

    /// Closes the observation: folds the run-level aggregates (kernel
    /// events, sweep wall, cache accounting) into the metrics, writes the
    /// `sweep_done` trace event and the Prometheus dump.
    ///
    /// # Panics
    ///
    /// Panics when the `--metrics` dump cannot be written.
    pub fn finish(&self, run: &RunSet, stats: Option<&CacheStats>) {
        let kernel_events = self.meters.sweep_done(run, stats);
        if let Some(sink) = &self.sink {
            let mut fields = vec![
                field("sweep", self.sweep.as_str()),
                field("threads", run.threads),
                field("wall_ms", run.wall_ms),
                field("kernel_events", kernel_events),
            ];
            if let Some(s) = stats {
                fields.push(field("hits", s.hits));
                fields.push(field("misses", s.misses));
                fields.push(field("appended", s.appended));
            }
            sink.event(Level::Info, "sweep_done", &fields);
            sink.flush();
        }
        if let Some(path) = &self.metrics_file {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(parent);
                }
            }
            std::fs::write(path, self.registry.render())
                .unwrap_or_else(|e| panic!("--metrics: cannot write {}: {e}", path.display()));
        }
        if self.show_progress {
            let snap = self.progress.snapshot();
            eprintln!(
                "progress[{}]: {} in {:.0} ms",
                self.sweep,
                snap.render(),
                snap.elapsed_ms
            );
        }
    }
}

/// The periodic-refresh policies of Fig. 9 (display label, registry
/// handle), with refresh-access pairing optionally disabled on every HiRA
/// point (the `--no-refresh-access` ablation of Fig. 9).
pub fn periodic_schemes_ablated(no_refresh_access: bool) -> Vec<(&'static str, PolicyHandle)> {
    let hira = |n: u32| {
        if no_refresh_access {
            policy::hira_custom(
                format!("hira{n}-noRA"),
                hira_core::config::HiraConfig::hira_n(n).without_refresh_access(),
            )
        } else {
            policy::hira(n)
        }
    };
    vec![
        ("Baseline", policy::baseline()),
        ("HiRA-0", hira(0)),
        ("HiRA-2", hira(2)),
        ("HiRA-4", hira(4)),
        ("HiRA-8", hira(8)),
    ]
}

/// The preventive-refresh arrangements of Fig. 12 (PARA ± HiRA), layered
/// over Baseline periodic refresh. `p_th` is resolved per arrangement from
/// the §9.1 analysis (slack-aware).
pub fn preventive_schemes(nrh: u32) -> Vec<(&'static str, PolicyHandle)> {
    let base = policy::baseline();
    vec![
        ("PARA", base.clone().with_para_immediate(pth_for(nrh, 0))),
        ("HiRA-0", base.clone().with_para_hira(pth_for(nrh, 0), 0)),
        ("HiRA-2", base.clone().with_para_hira(pth_for(nrh, 2), 2)),
        ("HiRA-4", base.clone().with_para_hira(pth_for(nrh, 4), 4)),
        ("HiRA-8", base.with_para_hira(pth_for(nrh, 8), 8)),
    ]
}

/// The three-arrangement subset of [`preventive_schemes`] the geometry
/// sweeps plot (Figs. 15/16: PARA, HiRA-2, HiRA-4).
pub fn preventive_schemes_geometry(nrh: u32) -> Vec<(&'static str, PolicyHandle)> {
    preventive_schemes(nrh)
        .into_iter()
        .filter(|(name, _)| matches!(*name, "PARA" | "HiRA-2" | "HiRA-4"))
        .collect()
}

/// Prints every registered refresh policy with its one-line summary (the
/// `--policy=` part of a binary's `--list` output).
pub fn print_policy_list() {
    println!("registered refresh policies (--policy=<name>):");
    for h in PolicyRegistry::standard().handles() {
        println!("  {:<12} {}", h.name(), h.summary());
    }
    println!(
        "  {:<12} (dynamic) any slack point: tRefSlack = N*tRC",
        "hira<N>"
    );
}

/// Prints every registered device with its one-line summary (the
/// `--device=` part of a binary's `--list` output).
pub fn print_device_list() {
    println!("registered devices (--device=<name>):");
    for h in DeviceRegistry::standard().handles() {
        println!("  {:<18} {}", h.name(), h.summary());
    }
    println!(
        "  {:<18} (dynamic) DDR4-2400 part pinned at <Gb> (tRFC fixed)",
        "ddr4-2400@<Gb>"
    );
}

/// Prints every registered workload with its family and one-line summary
/// (the `--workload=` part of a binary's `--list` output).
pub fn print_workload_list() {
    println!("registered workloads (--workload=<name>):");
    for h in WorkloadRegistry::standard().handles() {
        println!("  {:<12} [{}] {}", h.name(), h.family(), h.summary());
    }
    for line in [
        "mix<N>       (dynamic) multiprogrammed roster mix N of the standard suite",
        "zipf<N>      (dynamic) zipfian generator with theta = N/100",
        "rw<N>        (dynamic) uniform-random generator with N% stores (N <= 100)",
        "open<N>      (dynamic) open-loop generator at N accesses per kinst (N >= 1)",
        "trace:<path> (dynamic) replay of the .trace file at <path>",
    ] {
        println!("  {line}");
    }
}

/// Prints the accepted probe forms (the `--probe=` grammar of
/// [`ProbeSpec::from_args`]) with the CLI shorthands.
pub fn print_probe_list() {
    println!("probe forms (--probe=<form>, repeatable):");
    for (form, what) in ProbeRegistry::standard().forms() {
        println!("  {form:<28} {what}");
    }
    for line in [
        "--cmdtrace=<prefix>          shorthand for --probe=cmdtrace:<prefix>",
        "--stats-epoch=<cycles>       shorthand for --probe=epochs:<cycles>",
        "--telemetry                  print the per-point run telemetry table",
    ] {
        println!("  {line}");
    }
}

/// The probe selection of a sweep binary: every `--probe=<form>` argument
/// (repeatable; see [`hira_sim::ProbeRegistry`] for the grammar) plus the
/// shorthands `--cmdtrace=<prefix>` and `--stats-epoch=<cycles>`. Probes
/// are read-only observers — results are bit-identical with or without
/// them — so any sweep binary can carry the same flags through one shared
/// parsing path.
#[derive(Debug, Clone, Default)]
pub struct ProbeSpec {
    specs: Vec<String>,
}

impl ProbeSpec {
    /// Parses the probe flags from the process arguments.
    ///
    /// # Panics
    ///
    /// Panics (with the accepted forms) when a spec does not resolve —
    /// before any simulation runs.
    pub fn from_args() -> Self {
        let mut specs = axis_args("probe");
        specs.extend(
            axis_args("cmdtrace")
                .into_iter()
                .map(|p| format!("cmdtrace:{p}")),
        );
        specs.extend(
            axis_args("stats-epoch")
                .into_iter()
                .map(|e| format!("epochs:{e}")),
        );
        for s in &specs {
            let _ = hira_sim::probe::probe(s);
        }
        ProbeSpec { specs }
    }

    /// True when any probe flag was passed.
    pub fn is_active(&self) -> bool {
        !self.specs.is_empty()
    }

    /// The selected specs, as normalized registry forms.
    pub fn specs(&self) -> &[String] {
        &self.specs
    }

    /// Attaches the selected probes to every point of `sweep`. Each
    /// point's output paths get the point's sanitized scenario key spliced
    /// in (before the extension), so concurrently-running points never
    /// write to the same file. A no-op when no probe flag was passed.
    pub fn attach(&self, sweep: Sweep<SystemConfig>) -> Sweep<SystemConfig> {
        if self.specs.is_empty() {
            return sweep;
        }
        sweep.map(|key, cfg| cfg.with_probe(self.handle_for(key)))
    }

    /// The (possibly multi-) probe handle for one scenario key.
    fn handle_for(&self, key: &ScenarioKey) -> ProbeHandle {
        assert!(self.is_active(), "handle_for needs at least one probe");
        let tag = sanitize_key(key);
        let mut handles: Vec<ProbeHandle> = self
            .specs
            .iter()
            .map(|s| hira_sim::probe::probe(&per_point_spec(s, &tag)))
            .collect();
        if handles.len() == 1 {
            handles.pop().expect("one handle")
        } else {
            ProbeHandle::multi(handles)
        }
    }
}

/// Splices `tag` into a probe spec's output path (via the engine's shared
/// [`suffix_path`] helper — the same one the sweep store names its shards
/// with) so every sweep point writes distinct files. Specs without a path
/// component (or an empty tag) pass through unchanged.
fn per_point_spec(spec: &str, tag: &str) -> String {
    if tag.is_empty() {
        return spec.to_owned();
    }
    let Some((kind, rest)) = spec.split_once(':') else {
        return spec.to_owned();
    };
    match kind {
        "cmdtrace" | "latency" | "act-exposure" => format!("{kind}:{}", suffix_path(rest, tag)),
        "epochs" => match rest.split_once(':') {
            Some((every, path)) if !path.is_empty() => {
                format!("epochs:{every}:{}", suffix_path(path, tag))
            }
            _ => format!("epochs:{rest}:{}", suffix_path("epochs.jsonl", tag)),
        },
        _ => spec.to_owned(),
    }
}

/// Prints the run's telemetry table when `--telemetry` was passed (and
/// the run carries any telemetry).
pub fn maybe_print_telemetry(run: &RunSet) {
    if !std::env::args().any(|a| a == "--telemetry") {
        return;
    }
    let table = run.telemetry_table();
    if table.is_empty() {
        println!("\n(no run telemetry recorded)");
    } else {
        println!("\n-- run telemetry: wall time, kernel events, peak queue per point --");
        print!("{table}");
    }
}

/// Writes `BENCH_<sweep>.json` into `HIRA_BENCH_DIR` — or the working
/// directory when it is unset — and says where; a failed write is a
/// warning, not an error.
pub fn write_bench(run: &RunSet) {
    let dir = std::env::var("HIRA_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    match run.write_bench_json(Path::new(&dir)) {
        Ok(path) => println!("(result store written to {})", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_{}.json: {e}", run.sweep),
    }
}

/// Extracts the first `metric` record's value from a `BENCH_*.json`
/// payload — a targeted scan for the perf-baseline check (the emitter
/// writes `"metric":"<name>","value":<v>` adjacently), not a general JSON
/// parser.
pub fn extract_metric_value(json: &str, metric: &str) -> Option<f64> {
    let needle = format!("\"metric\":\"{metric}\",\"value\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// True when `--list` was passed: the binary prints the registries its
/// flags draw from and exits.
fn list_requested() -> bool {
    std::env::args().any(|a| a == "--list")
}

/// Collects the comma-separated values of every `--<flag>=` argument.
fn axis_args(flag: &str) -> Vec<String> {
    let prefix = format!("--{flag}=");
    std::env::args()
        .filter_map(|a| a.strip_prefix(&prefix).map(str::to_owned))
        .flat_map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The names `--<flag>=` arguments select, or `defaults` when none were
/// passed.
fn selected(flag: &str, defaults: &[&str]) -> Vec<String> {
    let chosen = axis_args(flag);
    if chosen.is_empty() {
        defaults.iter().map(|s| (*s).to_owned()).collect()
    } else {
        chosen
    }
}

/// Resolves each name through `resolve` — which panics, listing the
/// registered names, on an unknown one — into a labelled sweep axis.
fn resolve_axis<T>(names: Vec<String>, resolve: impl Fn(&str) -> T) -> Vec<(String, T)> {
    names
        .into_iter()
        .map(|name| {
            let handle = resolve(&name);
            (name, handle)
        })
        .collect()
}

/// The policy axis of a sweep, from `--policy=name[,name...]` arguments
/// (label = registry key), or every policy in the standard registry when
/// none is passed — an open, string-keyed axis instead of enum plumbing.
///
/// # Panics
///
/// Panics (with the registered names) when an argument names an unknown
/// policy.
pub fn policy_axis_from_args() -> Vec<(String, PolicyHandle)> {
    let registry = PolicyRegistry::standard();
    resolve_axis(selected("policy", &registry.names()), policy::policy)
}

/// Prints the accepted controller-plugin forms (the `--plugin=` grammar)
/// plus the `none` baseline.
pub fn print_plugin_list() {
    println!("controller plugins (--plugin=<form>, repeatable):");
    println!(
        "  {:<20} no plugin attached (the undefended baseline)",
        "none"
    );
    for (form, what) in PluginRegistry::standard().forms() {
        println!("  {form:<20} (dynamic) {what}");
    }
}

/// The controller-plugin axis `--plugin=` arguments select: empty when the
/// flag was never passed, so a sweep gains its `plugin` axis opt-in and
/// its keys (and the committed `BENCH_*.json` keys) are otherwise
/// unchanged.
///
/// # Panics
///
/// Panics (with the accepted forms) when an argument matches no plugin
/// form.
pub fn plugin_axis_from_args() -> Vec<(String, Option<PluginHandle>)> {
    plugin_axis(axis_args("plugin"))
}

/// Resolves plugin forms into a plugin axis: `none` is the undefended
/// `None` point, and every other form is keyed by its handle's canonical
/// name (`oracle:01024` and `oracle:1024` land on one scenario key and
/// cache entry).
fn plugin_axis(forms: Vec<String>) -> Vec<(String, Option<PluginHandle>)> {
    forms
        .into_iter()
        .map(|spec| {
            if spec == "none" {
                return (spec, None);
            }
            let h = hira_sim::plugin::plugin(&spec);
            (h.name().to_owned(), Some(h))
        })
        .collect()
}

/// Prints the accepted kernel modes (the `--kernel=` values of
/// [`kernel_from_args`]).
pub fn print_kernel_list() {
    println!("simulation kernels (--kernel=<name>):");
    for (name, what) in [
        ("event", "event-driven time-skipping kernel (default)"),
        ("dense", "cycle-by-cycle reference kernel (bit-identical)"),
    ] {
        println!("  {name:<12} {what}");
    }
}

/// The simulation kernel selected by `--kernel=dense|event` (default:
/// [`KernelMode::Event`], the fast path). The dense kernel is the
/// bit-identical legacy reference — `--kernel=dense` is the escape hatch
/// for A/B-ing a result against it (see the `perf_kernel` binary for the
/// systematic harness).
///
/// # Panics
///
/// Panics when the argument names an unknown kernel mode.
pub fn kernel_from_args() -> KernelMode {
    let selected = axis_args("kernel");
    assert!(
        selected.len() <= 1,
        "--kernel selects the run's single kernel mode, not an axis: got {selected:?} \
         (use the perf_kernel binary to A/B both kernels)"
    );
    selected
        .first()
        .map(|name| name.parse().expect("--kernel"))
        .unwrap_or_default()
}

/// `p_th` for a RowHammer threshold under the §9.1 analysis, with the slack
/// of the given HiRA-N (0 for plain PARA).
pub fn pth_for(nrh: u32, slack_acts: u32) -> f64 {
    let params = hira_core::security::SecurityParams::paper_defaults(slack_acts);
    hira_core::security::solve_pth(&params, nrh)
}

/// Formats one numeric series row for the harness output.
pub fn print_series(label: &str, xs: &[f64]) {
    let body: Vec<String> = xs.iter().map(|v| format!("{v:>8.4}")).collect();
    println!("{label:<12} {}", body.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_are_sane() {
        let s = Scale::from_env();
        assert!(s.mixes >= 1);
        assert!(s.insts >= 1_000);
        assert!(s.warmup < s.insts);
    }

    #[test]
    fn scheme_lists_cover_the_paper_configs() {
        assert_eq!(periodic_schemes_ablated(false).len(), 5);
        assert_eq!(preventive_schemes(512).len(), 5);
    }

    #[test]
    fn pth_is_monotone_in_nrh() {
        assert!(pth_for(64, 0) > pth_for(1024, 0));
    }

    fn tiny_scale() -> Scale {
        Scale {
            mixes: 2,
            insts: 2_000,
            warmup: 400,
            rows: 16,
        }
    }

    fn run(threads: usize) -> SweepRun {
        SweepRun::new(Executor::with_threads(threads), tiny_scale())
    }

    #[test]
    fn alone_ipc_of_an_edited_trace_follows_its_records() {
        // A long-lived process (a `serve` session) sees a trace file
        // rewritten under its path: the memo keys by what the file holds.
        let dir = std::env::temp_dir().join(format!("hira-bench-alone-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edited.trace");
        let name = format!("trace:{}", path.display());
        let save = |wl: WorkloadHandle| {
            let env = hira_workload::WorkloadEnv {
                core: 0,
                cores: 1,
                seed: 7,
            };
            hira_workload::Trace::capture(wl.build(&env).as_mut(), 4_000)
                .save(&path)
                .unwrap();
        };
        let (dev, scale) = (hira_sim::device::ddr4_2400(), tiny_scale());
        save(hira_workload::random());
        let random = alone_ipc(&name, &dev, 1, 1, scale);
        assert_eq!(alone_ipc(&name, &dev, 1, 1, scale), random, "a repeat hits");
        save(hira_workload::stream());
        let stream = alone_ipc(&name, &dev, 1, 1, scale);
        let direct = compute_alone_ipc(&hira_workload::workload(&name), &dev, 1, 1, scale);
        // 1.0005 for the stream records, where a name-keyed memo answered
        // the random records' 0.6161.
        assert_eq!(stream, direct, "the memo answered for the old records");
        assert_ne!(stream, random);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ws_table_means_match_engine_records() {
        let sweep = Sweep::new("ws_smoke").axis(
            "scheme",
            [
                ("NoRefresh", policy::noref()),
                ("Baseline", policy::baseline()),
            ],
            |_, s| SystemConfig::table3(8.0, s.clone()),
        );
        let t = run(2).ws_over_mixes(sweep);
        assert_eq!(t.means.len(), 2);
        // The mean over the mix axis really is the average of the records.
        let per_mix: Vec<f64> = t
            .run
            .records
            .iter()
            .filter(|r| r.metric == "ws" && r.key.matches(&[("scheme", "NoRefresh")]))
            .map(|r| r.value)
            .collect();
        assert_eq!(per_mix.len(), 2);
        let mean = per_mix.iter().sum::<f64>() / per_mix.len() as f64;
        assert!((t.mean(&[("scheme", "NoRefresh")]) - mean).abs() < 1e-12);
        // Refresh can only cost performance relative to the ideal system.
        assert!(t.mean(&[("scheme", "Baseline")]) <= t.mean(&[("scheme", "NoRefresh")]));
    }

    #[test]
    fn ws_stats_task_emits_channel_metrics() {
        let devices = [
            ("ddr4-2400", hira_sim::device::ddr4_2400()),
            ("lpddr4-3200", hira_sim::device::lpddr4_3200()),
        ];
        let sweep = Sweep::new("stats_smoke").axis("dev", devices, |_, d| {
            SystemBuilder::new()
                .device(d.clone())
                .policy(policy::baseline())
                .workload(hira_workload::stream())
                .build()
                .unwrap()
        });
        let t = run(2).task(Task::WsStats).ws(sweep);
        for m in ["ws", "read_lat", "write_lat", "dbus"] {
            assert!(
                t.run.records.iter().any(|r| r.metric == m),
                "{m} missing from the record set"
            );
        }
        // The grid is addressable per device; absent cells answer None.
        assert!(t.try_mean(&[("dev", "ddr4-2400")]).is_some());
        assert!(t.try_mean(&[("dev", "nope")]).is_none());
        // Streaming traffic keeps the bus meaningfully busy on both parts.
        for r in t.run.records.iter().filter(|r| r.metric == "dbus") {
            assert!(r.value > 0.0 && r.value <= 1.0, "dbus {}", r.value);
        }
    }

    #[test]
    fn policy_handles_carry_their_pth_in_the_identity() {
        let a = preventive_schemes(64);
        let b = preventive_schemes(1024);
        // Same label, different p_th: the handles must not compare equal,
        // or a sweep would silently collapse distinct configurations.
        assert_ne!(a[0].1, b[0].1);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn ablated_schemes_rename_their_hira_points() {
        let plain = periodic_schemes_ablated(false);
        let ablated = periodic_schemes_ablated(true);
        assert_eq!(plain[1].1.name(), "hira0");
        assert_eq!(ablated[1].1.name(), "hira0-noRA");
        assert_eq!(plain[0].1, ablated[0].1, "Baseline is not ablatable");
    }

    #[test]
    fn ws_records_carry_run_telemetry() {
        let mut sweep = Sweep::from_points("tel_smoke", hira_engine::DEFAULT_BASE_SEED, Vec::new());
        sweep.push(
            ScenarioKey::root(),
            SystemConfig::table3(8.0, policy::baseline()),
        );
        let t = run(1).ws_over_mixes(sweep);
        for r in &t.run.records {
            let tel = r.telemetry.expect("every ws record carries telemetry");
            assert!(tel.events > 0);
            assert!(tel.peak_queue > 0);
        }
        assert!(!t.run.telemetry_table().is_empty());
    }

    #[test]
    fn per_point_specs_splice_the_key_tag_into_paths() {
        assert_eq!(
            suffix_path("out/epochs.jsonl", "mix-0"),
            "out/epochs.mix-0.jsonl"
        );
        assert_eq!(suffix_path("trace", "mix-0"), "trace.mix-0");
        assert_eq!(suffix_path("dir.d/file", "t"), "dir.d/file.t");
        assert_eq!(
            per_point_spec("cmdtrace:out/t", "policy-hira4"),
            "cmdtrace:out/t.policy-hira4"
        );
        assert_eq!(
            per_point_spec("epochs:5000", "mix-1"),
            "epochs:5000:epochs.mix-1.jsonl"
        );
        assert_eq!(
            per_point_spec("epochs:5000:e.jsonl", "mix-1"),
            "epochs:5000:e.mix-1.jsonl"
        );
        assert_eq!(
            per_point_spec("latency:lat.jsonl", ""),
            "latency:lat.jsonl",
            "an empty tag (root key) leaves the spec untouched"
        );
        let key = ScenarioKey::root().with("policy", "hira4").with("cap", "8");
        assert_eq!(sanitize_key(&key), "policy-hira4_cap-8");
        assert_eq!(sanitize_key(&ScenarioKey::root()), "");
        let odd = ScenarioKey::root().with("wl", "trace:/tmp/a.trace");
        assert_eq!(sanitize_key(&odd), "wl-trace--tmp-a.trace");
    }

    #[test]
    fn probe_spec_attaches_distinct_handles_per_point() {
        let spec = ProbeSpec {
            specs: vec!["latency:lat.jsonl".into(), "epochs:5000".into()],
        };
        assert!(spec.is_active());
        let sweep = Sweep::new("probe_attach").axis(
            "policy",
            [("noref", policy::noref()), ("baseline", policy::baseline())],
            |_, p| SystemConfig::table3(8.0, p.clone()),
        );
        let attached = spec.attach(sweep);
        let probes: Vec<_> = attached
            .points()
            .iter()
            .map(|(_, cfg)| cfg.probe.clone().expect("probe attached"))
            .collect();
        assert_eq!(probes.len(), 2);
        assert_ne!(probes[0], probes[1], "points must not share output files");
        assert!(probes[0].name().contains("latency:lat.policy-noref.jsonl"));
        assert!(probes[0].name().contains('+'), "multi-probe handle");
        // An inactive spec leaves configs untouched.
        let plain = ProbeSpec::default().attach(Sweep::from_points(
            "noop",
            0,
            vec![(
                ScenarioKey::root(),
                SystemConfig::table3(8.0, policy::noref()),
            )],
        ));
        assert!(plain.points()[0].1.probe.is_none());
    }

    #[test]
    fn extract_metric_value_reads_bench_json() {
        let json = r#"{"sweep":"x","records":[{"key":{},"metric":"speedup","value":2.5,"wall_ms":1},{"key":{},"metric":"speedup_total","value":3.25}]}"#;
        assert_eq!(extract_metric_value(json, "speedup_total"), Some(3.25));
        assert_eq!(extract_metric_value(json, "speedup"), Some(2.5));
        assert_eq!(extract_metric_value(json, "nope"), None);
    }

    #[test]
    fn single_point_ws_sweeps_are_deterministic() {
        let sweep = || {
            let cfg = SystemConfig::table3(8.0, policy::baseline());
            Sweep::from_points("one_point", 0, vec![(ScenarioKey::root(), cfg)])
        };
        let a = run(2).ws_over_mixes(sweep()).mean(&[]);
        let b = run(1).ws_over_mixes(sweep()).mean(&[]);
        assert_eq!(a, b, "a single-point ws sweep must be deterministic");
    }

    /// A two-device table whose cells differ: lookups that leave `dev`
    /// open must fail loudly, and `mean_over` must average both cells.
    fn two_device_table() -> WsTable {
        let devices = [
            ("ddr4-2400", hira_sim::device::ddr4_2400()),
            ("lpddr4-3200", hira_sim::device::lpddr4_3200()),
        ];
        let sweep = Sweep::new("two_devices").axis("dev", devices, |_, d| {
            SystemBuilder::new()
                .device(d.clone())
                .workload(hira_workload::stream())
                .build()
                .unwrap()
        });
        run(2).ws(sweep)
    }

    #[test]
    #[should_panic(expected = "matches 2 cells, not one: dev=ddr4-2400; dev=lpddr4-3200")]
    fn lookups_matching_several_cells_panic_and_list_them() {
        two_device_table().mean(&[]);
    }

    #[test]
    fn mean_over_averages_the_named_axes() {
        let t = two_device_table();
        let a = t.mean(&[("dev", "ddr4-2400")]);
        let b = t.mean(&[("dev", "lpddr4-3200")]);
        assert_ne!(a, b, "the two parts must differ for this test to bite");
        assert_eq!(t.mean_over(&["dev"], "ws", &[]), Some((a + b) / 2.0));
        assert_eq!(t.mean_over(&["dev"], "ws", &[("dev", "x")]), None);
        assert_eq!(t.mean_over(&[], "ws", &[("dev", "ddr4-2400")]), Some(a));
    }

    #[test]
    fn ws_canonical_separates_tasks_and_configs() {
        let a = SystemConfig::table3(8.0, policy::baseline());
        let b = SystemConfig::table3(64.0, policy::baseline());
        assert_eq!(ws_canonical("ws", &a), ws_canonical("ws", &a));
        assert_ne!(
            ws_canonical("ws", &a),
            ws_canonical("ws+stats", &a),
            "tasks measuring different metric sets must not share keys"
        );
        assert_ne!(ws_canonical("ws", &a), ws_canonical("ws", &b));
    }

    #[test]
    fn cache_salt_is_stable_within_a_process() {
        assert_eq!(cache_salt(), cache_salt());
    }

    #[test]
    fn cache_spec_selection_rules() {
        assert!(!CacheSpec::disabled().is_active());
        let spec = CacheSpec::at("/tmp/somewhere");
        assert!(spec.is_active());
        assert_eq!(spec.dir().unwrap(), Path::new("/tmp/somewhere"));
        // Probe-attached sweeps refuse the cache (their output files need
        // the simulations to actually run).
        let probed = ProbeSpec {
            specs: vec!["epochs:5000".into()],
        }
        .attach(Sweep::from_points(
            "probed",
            0,
            vec![(
                ScenarioKey::root(),
                SystemConfig::table3(8.0, policy::noref()),
            )],
        ));
        assert!(spec.open_for(&probed).is_none());
    }

    #[test]
    fn cached_run_ws_replays_bench_json_byte_identically() {
        let dir = std::env::temp_dir().join(format!("hira-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = || {
            Sweep::new("cache_smoke").axis(
                "policy",
                [("noref", policy::noref()), ("baseline", policy::baseline())],
                |_, p| SystemConfig::table3(8.0, p.clone()),
            )
        };
        let uncached = run(2).ws_over_mixes(mk());
        let spec = CacheSpec::at(&dir);
        let cold = run(2).cache(spec.clone()).ws_over_mixes(mk());
        let warm = run(2).cache(spec.clone()).ws_over_mixes(mk());
        // A different worker count on a warm store must not matter either:
        // nothing runs, so only the reported thread width can change.
        let warm_serial = run(1).cache(spec).ws_over_mixes(mk());
        assert_eq!(
            uncached.run.canonical_json(),
            cold.run.canonical_json(),
            "caching must not change results"
        );
        assert_eq!(
            cold.run.bench_json(),
            warm.run.bench_json(),
            "a warm replay must be byte-identical, wall times included"
        );
        assert_eq!(cold.run.canonical_json(), warm_serial.run.canonical_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
