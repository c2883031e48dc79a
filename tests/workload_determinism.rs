//! Cross-crate integration for the open workload frontend: every
//! registered workload must drive the engine to bit-identical results for
//! any thread count, and the trace round-trip (capture → write → parse →
//! replay) must be lossless end to end through the simulator.

use hira::engine::{Executor, Sweep};
use hira::prelude::*;
use hira_bench::{Scale, SweepRun};

fn tiny_scale() -> Scale {
    Scale {
        mixes: 1,
        insts: 1_000,
        warmup: 200,
        rows: 16,
    }
}

#[test]
fn every_registered_workload_is_thread_count_invariant() {
    // The registry-wide property: the full standard registry — roster
    // benchmarks, mixes, every generator family, the embedded trace —
    // through the engine at 1 vs 8 threads, byte-identical canonical
    // results (the HIRA_THREADS guarantee, end to end through every
    // frontend's per-core Stream seeding).
    let sweep = || {
        Sweep::new("workload_axis").axis(
            "wl",
            WorkloadRegistry::standard()
                .handles()
                .map(|h| (h.name().to_owned(), h.clone()))
                .collect::<Vec<_>>(),
            |_, h| SystemConfig::table3(8.0, policy::baseline()).with_workload(h.clone()),
        )
    };
    let canonical = |threads: usize| {
        SweepRun::new(Executor::with_threads(threads), tiny_scale())
            .ws(sweep())
            .run
            .canonical_json()
    };
    let single = canonical(1);
    assert!(
        single.matches("\"metric\":\"ws\"").count() >= 30,
        "registry should span all three families"
    );
    assert_eq!(single, canonical(8), "8 threads diverged from 1");
}

#[test]
fn trace_written_parsed_and_replayed_matches_its_generator() {
    // Capture a generator at core 0, write the trace to disk, load it back
    // through the `trace:` frontend, and simulate both: the replayed
    // system must report the same per-core IPC as the generator-driven one
    // (single core, so the capture covers the whole measured region).
    let env = WorkloadEnv {
        core: 0,
        cores: 1,
        seed: 0x5157,
    };
    let mut gen = hira::workload::random().build(&env);
    // 6k records comfortably cover 1.2k instructions of warmup + budget.
    let trace = Trace::capture(gen.as_mut(), 6_000);
    let dir = std::env::temp_dir().join(format!("hira-wl-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.trace");
    trace.save(&path).unwrap();

    let replay = trace_file(path.to_str().unwrap()).expect("written trace must parse");
    let run = |wl: WorkloadHandle| {
        let mut cfg = SystemConfig::table3(8.0, policy::baseline())
            .with_insts(1_000, 200)
            .with_workload(wl);
        cfg.cores = 1;
        System::new(cfg).run()
    };
    let a = run(hira::workload::random());
    let b = run(replay);
    assert_eq!(a.ipc, b.ipc, "trace replay diverged from its generator");
    assert_eq!(a.cycles, b.cycles);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_trace_files_surface_typed_errors_through_the_frontend() {
    // The registry's `trace:` form and the builder's by-name selection
    // both refuse malformed files without panicking.
    let dir = std::env::temp_dir().join(format!("hira-wl-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.trace");
    std::fs::write(&path, "1 0x40\ntotal nonsense here\n").unwrap();
    let name = format!("trace:{}", path.display());

    let err = trace_file(path.to_str().unwrap()).unwrap_err();
    assert!(
        matches!(err, ParseError::BadBubble { line: 2, .. }),
        "{err:?}"
    );
    assert!(WorkloadRegistry::standard().lookup(&name).is_none());
    let build_err = SystemBuilder::new()
        .workload_name(&name)
        .build()
        .unwrap_err();
    assert_eq!(
        build_err,
        BuildError::Unknown(hira::engine::UnknownName {
            axis: "workload",
            name
        })
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mix_handles_reproduce_the_legacy_suite_composition() {
    // The paper's mix suite, through the new frontend: mix0 under the
    // standard suite seed must still assemble 8 roster members and drive a
    // full 8-core simulation deterministically.
    let cfg = || {
        SystemConfig::table3(8.0, policy::noref())
            .with_insts(1_500, 300)
            .with_workload(mix(0))
    };
    let a = System::new(cfg()).run();
    let b = System::new(cfg()).run();
    assert_eq!(a.ipc, b.ipc);
    assert_eq!(a.workloads.len(), 8);
    assert!(a.workloads.iter().all(|n| benchmark(n).is_some()));
    assert_eq!(a.workloads, mix(0).instance_names(8, cfg().seed));
}
