//! The observability contract at the bench API surface: with tracing,
//! metrics and progress fully attached, canonical results are
//! byte-identical to an unobserved run — at any thread count, and whether
//! points are computed or replayed from the cache.

use hira_bench::{CacheSpec, ObsSpec, Scale, SweepRun, SLOW_POINT_FACTOR};
use hira_engine::{Executor, Sweep};
use hira_obs::parse_prometheus;
use hira_sim::config::SystemConfig;
use hira_sim::policy;

fn tiny_scale() -> Scale {
    Scale {
        mixes: 2,
        insts: 2_000,
        warmup: 400,
        rows: 16,
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hira-obs-it-{tag}-{}", std::process::id()));
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

/// One JSONL line: every `point` event carries the full phase split and
/// every line is an object with `t_us`/`level`/`event`.
fn check_trace_line(line: &str) {
    let v = hira_engine::json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line}: {e}"));
    assert!(v.get("t_us").and_then(|t| t.as_u64()).is_some(), "{line}");
    assert!(v.get("level").and_then(|l| l.as_str()).is_some(), "{line}");
    assert!(v.get("event").and_then(|e| e.as_str()).is_some(), "{line}");
    if v.get("event").and_then(|e| e.as_str()) == Some("point") {
        for f in [
            "point",
            "queue_wait_ms",
            "warmup_ms",
            "measure_ms",
            "serialize_ms",
            "wall_ms",
        ] {
            assert!(v.get(f).is_some(), "point event lacks `{f}`: {line}");
        }
    }
}

#[test]
fn fully_observed_runs_are_byte_identical_to_unobserved() {
    let dir = scratch("identity");
    let scale = tiny_scale();
    let reference =
        SweepRun::new(Executor::with_threads(1), scale).ws_over_mixes(mk_sweep("obs_identity"));
    let canonical = reference.run.canonical_json();

    // Cold at 1 thread, then cold+warm at 8 threads against one store —
    // each pass fully observed (trace + metrics + progress) into its own
    // output directory.
    let store = dir.join("store");
    for (pass, threads, cache) in [
        ("cold1", 1, CacheSpec::disabled()),
        ("cold8", 8, CacheSpec::at(&store)),
        ("warm8", 8, CacheSpec::at(&store)),
    ] {
        let out = dir.join(pass);
        let obs = ObsSpec::disabled()
            .with_trace(&out)
            .with_metrics(&out)
            .with_progress();
        let observed = SweepRun::new(Executor::with_threads(threads), scale)
            .cache(cache)
            .obs(obs)
            .ws_over_mixes(mk_sweep("obs_identity"));
        assert_eq!(
            canonical,
            observed.run.canonical_json(),
            "{pass}: observation must not perturb canonical results"
        );

        // The trace is real JSONL with one point event per point.
        let trace = std::fs::read_to_string(out.join("obs_identity.trace.jsonl"))
            .unwrap_or_else(|e| panic!("{pass}: trace missing: {e}"));
        let lines: Vec<&str> = trace.lines().collect();
        for line in &lines {
            check_trace_line(line);
        }
        let points = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"point\""))
            .count();
        assert_eq!(
            points, 6,
            "{pass}: one point event per sweep point (3 policies x 2 mixes)"
        );
        assert!(trace.contains("\"event\":\"sweep_done\""), "{pass}");

        // The metrics dump parses as strict Prometheus text and accounts
        // for every point.
        let prom = std::fs::read_to_string(out.join("obs_identity.prom"))
            .unwrap_or_else(|e| panic!("{pass}: metrics missing: {e}"));
        let samples = parse_prometheus(&prom).unwrap_or_else(|e| panic!("{pass}: {e}"));
        let value = |name: &str, label: Option<(&str, &str)>| -> f64 {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && label
                            .is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
                })
                .unwrap_or_else(|| panic!("{pass}: no sample {name}"))
                .value
        };
        let computed = value("hira_points_total", Some(("result", "computed")));
        let replayed = value("hira_points_total", Some(("result", "replayed")));
        assert_eq!(computed + replayed, 6.0, "{pass}");
        match pass {
            "warm8" => {
                assert_eq!(replayed, 6.0, "{pass}: warm pass replays everything");
                assert_eq!(value("hira_cache_hits_total", None), 6.0, "{pass}");
            }
            "cold8" => {
                assert_eq!(value("hira_cache_misses_total", None), 6.0, "{pass}");
                assert_eq!(value("hira_cache_appended_total", None), 6.0, "{pass}");
            }
            _ => assert_eq!(computed, 6.0, "{pass}"),
        }
        assert!(
            value("hira_kernel_events_total", None) > 0.0,
            "{pass}: kernel telemetry reaches the metrics"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_point_report_flags_outliers_against_the_median() {
    use hira_engine::{RunRecord, RunSet, ScenarioKey};
    let rec = |tag: &str, wall: f64| RunRecord {
        key: ScenarioKey::root().with("p", tag),
        metric: "ws".to_owned(),
        value: 1.0,
        wall_ms: wall,
        telemetry: None,
    };
    let run = RunSet {
        sweep: "slow".to_owned(),
        threads: 1,
        wall_ms: 117.0,
        records: vec![rec("a", 1.0), rec("b", 2.0), rec("c", 3.0), rec("d", 100.0)],
    };
    let (median, slow) = hira_bench::slow_points(&run, SLOW_POINT_FACTOR);
    assert_eq!(median, 2.5);
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].0.to_string(), "p=d");
    assert_eq!(slow[0].1, 100.0);
}
