//! Kernel A/B harness: times the event-driven kernel against the dense
//! reference over the headline policy sweep (every registered refresh
//! policy × the Table 3 capacity × the standard mix suite) and — point by
//! point — asserts the two kernels' [`hira_sim::SimResult`]s are
//! **identical**. This is the executable form of the
//! [`hira_sim::policy::RefreshPolicy::next_wake`] contract: any policy
//! whose wake declaration is too eager shows up here as a result mismatch,
//! not as a silently wrong BENCH baseline.
//!
//! Timing is single-threaded ([`hira_bench::Task::PerfKernel`] on a
//! one-thread [`hira_bench::SweepRun`]) so the wall-clock comparison
//! measures the kernels, not the executor. Always
//! writes `BENCH_perf_kernel.json` (into `HIRA_BENCH_DIR`, or the working
//! directory when unset) with per-point `wall_dense_ms` / `wall_event_ms`
//! / `speedup` records plus the aggregate `speedup_total`. The wall-clock
//! figures naturally vary run to run — unlike the matrix baselines, this
//! file is a snapshot, not a byte-reproducible artifact — *except* under
//! a warm `--cache`, which replays the stored walls verbatim (the
//! kernel-identity assertion ran when each point was first computed).
//!
//! Flags:
//!
//! * `--policy=<name>[,<name>...]` (repeatable) — subset the policy axis;
//!   default: the full standard registry,
//! * `--plugin=<name>[,<name>...]` (repeatable) — cross the sweep with a
//!   controller-plugin axis; the dense-vs-event identity assertion then
//!   runs with each plugin attached; without the flag no plugin axis is
//!   added and the sweep keys are unchanged,
//! * `--cache=<dir>` / `--no-cache` / `--cache-stats` — the shared sweep
//!   cache: replay previously timed points and run only the misses (see
//!   [`hira_bench::CacheSpec`]),
//! * `--check-baseline=<path>` — after the sweep, compare `speedup_total`
//!   against the one recorded in the `BENCH_perf_kernel.json` at `<path>`
//!   and fail when it regressed by more than the tolerance — the CI guard
//!   on the event kernel's speed relative to the dense one (the per-point
//!   dense == event assertion runs with or without it). A ratio of the
//!   two kernels cannot see a cost both pay, such as the no-probe
//!   notification sites,
//! * `--baseline-tolerance=<frac>` — allowed fractional regression for
//!   `--check-baseline` (default 0.35; wall-clock ratios are noisy on
//!   shared runners),
//! * `--trace[=<path>]` / `--metrics[=<path>]` / `--progress` /
//!   `--log-level=<level>` — the shared observability axis: JSONL span
//!   log, Prometheus dump, live progress on stderr and the slow-point
//!   report (see [`hira_bench::ObsSpec`]),
//! * `--list` — print every policy and plugin name and form the two axis
//!   flags accept, then exit.
//!
//! Scale: `HIRA_MIXES` × `HIRA_INSTS` as everywhere else.

use hira_bench::presets::labels;
use hira_bench::{
    axis_from_args, extract_metric_value, list, list_requested, print_series, write_bench,
    CacheSpec, Grid, ObsSpec, Scale, SweepRun, Task, PERF_KERNEL_AXES,
};
use hira_engine::{Executor, RunRecord, ScenarioKey};
use hira_sim::config::KernelMode;
use hira_sim::{PluginHandle, PolicyHandle};

/// The single value of a `--<flag>=` argument, when passed.
fn flag_value(flag: &str) -> Option<String> {
    let prefix = format!("--{flag}=");
    std::env::args().find_map(|a| a.strip_prefix(&prefix).map(str::to_owned))
}

fn main() {
    if list_requested() {
        print!("{}", list(PERF_KERNEL_AXES, false));
        return;
    }
    let scale = Scale::from_env();
    let policies = axis_from_args::<PolicyHandle>(true, "");
    let plugins = axis_from_args::<PluginHandle>(true, "");
    let cache = CacheSpec::from_args();
    let obs = ObsSpec::from_args();
    // Read the baseline before the sweep so a bad path fails fast.
    let baseline = flag_value("check-baseline").map(|path| {
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("--check-baseline: cannot read {path}: {e}"));
        let total = extract_metric_value(&body, "speedup_total")
            .unwrap_or_else(|| panic!("--check-baseline: no speedup_total record in {path}"));
        (path, total)
    });
    let tolerance: f64 = flag_value("baseline-tolerance")
        .map(|v| v.parse().expect("--baseline-tolerance"))
        .unwrap_or(0.35);

    println!(
        "== perf_kernel: dense vs event over {} policies x {} mixes x {} insts at 8 Gb ==",
        policies.len(),
        scale.mixes,
        scale.insts
    );
    if !plugins.is_empty() {
        println!(
            "plugins: {} (per-policy walls sum over the plugin axis)",
            labels(&plugins).join(", ")
        );
    }

    let (sweep, _) = Grid::new("perf_kernel")
        .policies(&policies)
        .mixes(scale.mixes)
        .plugins(&plugins)
        .build(scale, KernelMode::default())
        .unwrap_or_else(|e| panic!("perf_kernel: {e}"));
    let (mut run, stats) = SweepRun::new(Executor::with_threads(1), scale)
        .task(Task::PerfKernel)
        .cache(cache)
        .obs(obs)
        .run(sweep);
    // Replayed points skipped both kernel runs; their identity was
    // asserted when they were first computed into the store.
    let note = if stats.hits == 0 {
        "results identical"
    } else {
        "identity verified at first computation for replayed points"
    };

    let sum_for = |name: &str, metric: &str| -> f64 {
        run.records
            .iter()
            .filter(|r| r.metric == metric && r.key.matches(&[("policy", name)]))
            .map(|r| r.value)
            .sum()
    };
    let mut total_dense = 0.0;
    let mut total_event = 0.0;
    let mut speedups = Vec::new();
    for (name, _) in &policies {
        let policy_dense = sum_for(name, "wall_dense_ms");
        let policy_event = sum_for(name, "wall_event_ms");
        total_dense += policy_dense;
        total_event += policy_event;
        speedups.push(policy_dense / policy_event);
        println!(
            "{name:<12} dense {policy_dense:>9.1} ms   event {policy_event:>9.1} ms   \
             speedup {:>5.2}x   ({note})",
            policy_dense / policy_event
        );
    }

    let total = total_dense / total_event;
    println!("\n-- speedup per policy --");
    print_series("speedup", &speedups);
    println!(
        "\ntotal: dense {total_dense:.1} ms, event {total_event:.1} ms -> {total:.2}x \
         over the headline sweep"
    );
    run.records.push(RunRecord {
        key: ScenarioKey::root(),
        metric: "speedup_total".to_owned(),
        value: total,
        wall_ms: total_dense + total_event,
        telemetry: None,
    });

    if let Some((path, expected)) = baseline {
        let floor = expected * (1.0 - tolerance);
        println!(
            "baseline check: speedup_total {total:.2}x vs {expected:.2}x in {path} \
             (floor {floor:.2}x at tolerance {tolerance})"
        );
        assert!(
            total >= floor,
            "event-kernel speedup regressed: {total:.2}x < {floor:.2}x \
             ({expected:.2}x in {path} minus {tolerance} tolerance) — \
             did the event kernel lose ground against the dense one?"
        );
    }

    write_bench(&run);
}
