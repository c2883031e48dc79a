//! Cross-crate integration: the experiment-orchestration engine must
//! produce bit-identical results regardless of its worker-thread count —
//! both for pure compute tasks and for the full simulator pipeline the
//! figure binaries run.

use hira::engine::{derive_seed, metric, Executor, ScenarioKey, Sweep};
use hira::prelude::{policy, SystemConfig};
use hira_bench::{Scale, SweepRun};

fn tiny_scale() -> Scale {
    Scale {
        mixes: 3,
        insts: 2_000,
        warmup: 400,
        rows: 16,
    }
}

fn ws_sweep() -> Sweep<SystemConfig> {
    Sweep::new("determinism").axis(
        "scheme",
        [
            ("NoRefresh", policy::noref()),
            ("Baseline", policy::baseline()),
        ],
        |_, s| SystemConfig::table3(8.0, s.clone()),
    )
}

#[test]
fn simulator_sweep_is_byte_identical_across_1_2_and_8_threads() {
    let canonical = |threads: usize| {
        SweepRun::new(Executor::with_threads(threads), tiny_scale())
            .ws_over_mixes(ws_sweep())
            .run
            .canonical_json()
    };
    let single = canonical(1);
    assert!(!single.is_empty());
    assert_eq!(single, canonical(2), "2 threads diverged from 1");
    assert_eq!(single, canonical(8), "8 threads diverged from 1");
    // 2 schemes × 3 mixes, one `ws` record each.
    assert_eq!(single.matches("\"metric\":\"ws\"").count(), 6);
}

#[test]
fn policy_sweep_is_byte_identical_across_thread_counts() {
    // The policy_matrix axis: every standard policy through the engine.
    // Stateful policy objects (HiRA-MC tables, RAIDR cursors) must never
    // leak scheduling into results.
    let sweep = || {
        Sweep::new("policy_axis").axis(
            "policy",
            hira::prelude::PolicyRegistry::standard()
                .handles()
                .map(|h| (h.name().to_owned(), h.clone()))
                .collect::<Vec<_>>(),
            |_, h| SystemConfig::table3(8.0, h.clone()),
        )
    };
    let scale = Scale {
        mixes: 1,
        insts: 1_500,
        warmup: 300,
        rows: 16,
    };
    let canonical = |threads: usize| {
        SweepRun::new(Executor::with_threads(threads), scale)
            .ws_over_mixes(sweep())
            .run
            .canonical_json()
    };
    let single = canonical(1);
    assert_eq!(single, canonical(4), "4 threads diverged from 1");
}

#[test]
fn compute_sweep_is_byte_identical_across_thread_counts() {
    // 64 points of uneven, seed-driven busywork: enough that any
    // scheduling leak into results or ordering would show.
    let sweep = Sweep::new("compute").axis("i", (0..64u64).map(|i| (i.to_string(), i)), |_, &i| i);
    let run_at = |threads: usize| {
        Executor::with_threads(threads)
            .run(&sweep, |sc| {
                let mut x = sc.seed;
                for _ in 0..(*sc.params % 7) * 1_000 + 100 {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                }
                vec![metric("x", (x >> 16) as f64)]
            })
            .canonical_json()
    };
    let single = run_at(1);
    for threads in [2, 3, 8, 32] {
        assert_eq!(single, run_at(threads), "threads={threads}");
    }
}

#[test]
fn scenario_seeds_are_stable_and_scheduling_free() {
    // A point's seed depends only on (base_seed, key): recomputing it in
    // any order, thread, or sweep composition gives the same value.
    let sweep = Sweep::with_seed("seeds", 0xDEAD_BEEF)
        .axis("a", [("1", ()), ("2", ())], |_, _| ())
        .axis("b", [("x", ()), ("y", ())], |_, _| ());
    let seeds: Vec<u64> = Executor::with_threads(4).map(&sweep, |sc| sc.seed);
    for (i, (key, _)) in sweep.points().iter().enumerate() {
        assert_eq!(seeds[i], derive_seed(0xDEAD_BEEF, key));
    }
    let direct = derive_seed(
        0xDEAD_BEEF,
        &ScenarioKey::root().with("a", "2").with("b", "y"),
    );
    assert_eq!(seeds[3], direct);
}
