//! Engine smoke sweep: a fast end-to-end exercise of the orchestration
//! subsystem — a small `scheme × capacity` weighted-speedup grid run twice,
//! at 1 thread and at the configured thread count, asserting the canonical
//! result sets are byte-identical. Prints the engine's own result table.
//!
//! This is the cheap CI-facing proof that scheduling never leaks into
//! results; the figure binaries then scale the same machinery up.

use hira_bench::{alone_ipc, Scale, SweepRun, WsTable};
use hira_engine::{flabel, Executor, Sweep};
use hira_sim::config::SystemConfig;
use hira_sim::policy;
use hira_workload::mix;
use std::time::Instant;

fn sweep() -> Sweep<SystemConfig> {
    Sweep::new("engine_smoke")
        .axis(
            "scheme",
            [
                ("NoRefresh", policy::noref()),
                ("Baseline", policy::baseline()),
            ],
            |_, s| s.clone(),
        )
        .axis("cap", [8.0, 64.0].map(|c| (flabel(c), c)), |s, c| {
            SystemConfig::table3(*c, s.clone())
        })
}

fn main() {
    let scale = Scale {
        mixes: 2,
        insts: 4_000,
        warmup: 800,
        rows: 16,
    };
    let ex = Executor::from_env();

    println!("== engine smoke: {} worker thread(s) vs 1 ==", ex.threads());
    // Both timed runs must do the same work: the alone-IPC denominators
    // are memoized process-wide, so whichever run went first would also
    // pay for every alone run. Fill the memo untimed.
    for id in 0..scale.mixes {
        let cfg = SystemConfig::table3(8.0, policy::noref()).with_workload(mix(id));
        for name in cfg.workload.instance_names(cfg.cores, cfg.seed) {
            alone_ipc(&name, &cfg.device, cfg.channels, cfg.ranks, scale);
        }
    }
    // The run set's wall is the summed per-point work; the speed of the
    // executor shows in the elapsed time, timed here.
    let timed = |ex: Executor| -> (WsTable, f64) {
        let start = Instant::now();
        let t = SweepRun::new(ex, scale).ws_over_mixes(sweep());
        (t, start.elapsed().as_secs_f64() * 1e3)
    };
    let (parallel, parallel_ms) = timed(ex);
    let (serial, serial_ms) = timed(Executor::with_threads(1));
    assert_eq!(
        parallel.run.canonical_json(),
        serial.run.canonical_json(),
        "engine results must be independent of thread count"
    );
    println!("canonical result sets byte-identical: yes");
    println!(
        "sweep wall time: {parallel_ms:.0} ms at {} thread(s), {serial_ms:.0} ms at 1",
        parallel.run.threads
    );
    println!();
    print!("{}", parallel.run.table());
    parallel.emit();
}
