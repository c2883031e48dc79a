//! Workload matrix: workload × refresh policy, through one engine
//! weighted-speedup sweep — the comparison surface the open
//! [`hira_workload`] frontend exists for. Where `policy_matrix` holds the
//! workload fixed and sweeps policies, this grid crosses both axes: how
//! much each refresh arrangement costs under streaming, random, pointer-
//! chasing, skewed, write-heavy, open-loop and multiprogrammed-mix
//! traffic, side by side.
//!
//! Always writes `BENCH_workload_matrix.json` (into `HIRA_BENCH_DIR`, or
//! the working directory when unset): the tracked perf baseline for the
//! workload comparison surface.
//!
//! Flags: the shared matrix flags of [`hira_bench::MatrixArgs`] —
//! `--workload=` (default: a representative point per family, including
//! the dynamic `mix<N>`, `zipf<N>`, `rw<N>`, `open<N>` and `trace:<path>`
//! forms), `--policy=` (default: the full standard registry) and an
//! opt-in `--plugin=` axis, plus `--kernel=`, the probe, cache and
//! observability flags, `--telemetry`, `--list` and `--check-determinism`
//! (re-run the sweep single-threaded and assert the canonical result sets
//! are byte-identical, enforced end-to-end through every workload
//! frontend).

use hira_bench::presets::labels;
use hira_bench::{print_series, Matrix, MatrixArgs};

fn main() {
    let args = MatrixArgs::from_args(Matrix::Workload);
    let (wl_names, pol_names) = (labels(&args.workloads), labels(&args.policies));
    println!(
        "== workload matrix: {} workloads x {} policies at 8 Gb, {} insts ==",
        wl_names.len(),
        pol_names.len(),
        args.scale.insts
    );
    println!("workloads: {}", wl_names.join(", "));
    println!("policies:  {}", pol_names.join(", "));
    args.print_plugins(11, "cells");
    let t = args.run();

    let ws = |wl: &str, p: &str| {
        t.mean_over(&["plugin"], "ws", &[("wl", wl), ("policy", p)])
            .expect("every workload x policy cell runs")
    };
    println!("\n-- weighted speedup, rows = workloads, columns = policies --");
    let header: Vec<String> = pol_names.iter().map(|n| format!("{n:>8}")).collect();
    println!("{:<12} {}", "", header.join(" "));
    for wl in &wl_names {
        let row: Vec<f64> = pol_names.iter().map(|p| ws(wl, p)).collect();
        print_series(wl, &row);
    }
    if pol_names.contains(&"noref") {
        println!("\n-- normalized to noref (refresh-interference cost per workload) --");
        for wl in &wl_names {
            let row: Vec<f64> = pol_names
                .iter()
                .map(|p| ws(wl, p) / ws(wl, "noref"))
                .collect();
            print_series(wl, &row);
        }
    }
    args.finish(&t);
}
