//! End-to-end contract of the sweep cache at the bench API surface, with
//! real system configurations: caching changes nothing, warm stores run
//! nothing, and tasks measuring different metric sets never share keys.

use hira_bench::{CacheSpec, Scale, SweepRun, Task};
use hira_engine::{Executor, Sweep};
use hira_sim::config::SystemConfig;
use hira_sim::policy;
use hira_workload::{Trace, WorkloadEnv};

fn tiny_scale() -> Scale {
    Scale {
        mixes: 1,
        insts: 2_000,
        warmup: 400,
        rows: 16,
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hira-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mk_sweep(name: &str) -> Sweep<SystemConfig> {
    Sweep::new(name).axis(
        "policy",
        [
            ("noref", policy::noref()),
            ("baseline", policy::baseline()),
            ("hira4", policy::hira(4)),
        ],
        |_, p| SystemConfig::table3(8.0, p.clone()),
    )
}

fn shard_lines(dir: &std::path::Path, sweep: &str) -> usize {
    let body = std::fs::read_to_string(dir.join(format!("{sweep}.jsonl")))
        .unwrap_or_else(|e| panic!("shard for `{sweep}` missing: {e}"));
    body.lines().count()
}

/// Cached and uncached runs agree bit-for-bit, whatever the executor width
/// and however hits and misses interleave across passes.
#[test]
fn cached_runs_are_bit_identical_across_thread_counts() {
    let dir = scratch("threads");
    let scale = tiny_scale();
    let reference = SweepRun::new(Executor::with_threads(1), scale).ws(mk_sweep("it_threads"));
    // Cold pass at 8 threads populates the store.
    let spec = CacheSpec::at(&dir);
    let cold = SweepRun::new(Executor::with_threads(8), scale)
        .cache(spec.clone())
        .ws(mk_sweep("it_threads"));
    assert_eq!(reference.run.canonical_json(), cold.run.canonical_json());
    // Warm pass at 8 threads replays everything, wall times included.
    let warm = SweepRun::new(Executor::with_threads(8), scale)
        .cache(spec.clone())
        .ws(mk_sweep("it_threads"));
    assert_eq!(cold.run.bench_json(), warm.run.bench_json());
    assert_eq!(
        shard_lines(&dir, "it_threads"),
        3,
        "the warm pass must not have appended anything"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `ws` and `ws+stats` tasks measure different metric sets over the
/// same configurations; the task tag in the canonical string keeps them
/// from replaying each other's records.
#[test]
fn ws_and_ws_with_stats_never_share_cache_keys() {
    let dir = scratch("tasks");
    let scale = tiny_scale();
    let spec = CacheSpec::at(&dir);
    let plain = SweepRun::new(Executor::with_threads(2), scale)
        .cache(spec.clone())
        .ws(mk_sweep("it_tasks"));
    assert_eq!(shard_lines(&dir, "it_tasks"), 3);
    // Identical configurations, richer task: every point must MISS — a hit
    // would replay a record set without the channel metrics.
    let stats = SweepRun::new(Executor::with_threads(2), scale)
        .task(Task::WsStats)
        .cache(spec.clone())
        .ws(mk_sweep("it_tasks"));
    assert_eq!(
        shard_lines(&dir, "it_tasks"),
        6,
        "the ws+stats pass must have appended its own three points"
    );
    assert!(stats.run.records.iter().any(|r| r.metric == "read_lat"));
    assert!(
        plain.run.records.iter().all(|r| r.metric == "ws"),
        "the plain task stays plain"
    );
    // And the richer records really were cached under their own keys.
    let warm = SweepRun::new(Executor::with_threads(2), scale)
        .task(Task::WsStats)
        .cache(spec.clone())
        .ws(mk_sweep("it_tasks"));
    assert_eq!(stats.run.bench_json(), warm.run.bench_json());
    assert_eq!(shard_lines(&dir, "it_tasks"), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `trace:<path>` workload is keyed by the records it loaded, not by its
/// path: editing the file in place moves the descriptor and turns a warm
/// sweep into a miss, and restoring the file makes it hit again.
#[test]
fn trace_workloads_are_keyed_by_their_content() {
    let dir = scratch("trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay.trace");
    let env = WorkloadEnv {
        core: 0,
        cores: 1,
        seed: 7,
    };
    let trace = Trace::capture(hira_workload::random().build(&env).as_mut(), 400);
    let mut edited = trace.records().to_vec();
    edited[123].addr += 64;
    let edited = Trace::new(edited).unwrap();
    let spec = CacheSpec::at(dir.join("store"));
    // Each pass resolves the workload anew, as a fresh process would.
    let pass = |trace: &Trace| {
        trace.save(&path).unwrap();
        let handle = hira_workload::workload(&format!("trace:{}", path.display()));
        let cfg = SystemConfig::table3(8.0, policy::noref()).with_workload(handle.clone());
        let sweep = Sweep::new("it_trace").axis("wl", [("replay", handle)], |_, h| {
            SystemConfig::table3(8.0, policy::noref()).with_workload(h.clone())
        });
        let (_, stats) = SweepRun::new(Executor::with_threads(1), tiny_scale())
            .cache(spec.clone())
            .run(sweep);
        (cfg.cache_descriptor(), (stats.hits, stats.misses))
    };
    let (original, cold) = pass(&trace);
    assert_eq!(cold, (0, 1));
    assert!(original.contains(&format!("workload=trace:{}#", path.display())));
    assert_eq!(pass(&trace), (original.clone(), (1, 0)), "warm pass");
    let (moved, stats) = pass(&edited);
    assert_ne!(moved, original, "an edited record must move the descriptor");
    assert_eq!(stats, (0, 1), "the edited trace replayed a stale result");
    assert_eq!(
        pass(&trace),
        (original, (1, 0)),
        "the restored trace missed"
    );
    // Every other workload keeps the descriptor it had: its name alone.
    let mix = SystemConfig::table3(8.0, policy::noref());
    assert!(mix.cache_descriptor().contains(";workload=mix0;"));
    let _ = std::fs::remove_dir_all(&dir);
}
