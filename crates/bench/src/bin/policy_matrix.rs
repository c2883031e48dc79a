//! Policy matrix: every registered refresh policy × chip capacity, through
//! one engine weighted-speedup sweep — the comparison surface the open
//! [`hira_sim::policy`] API exists for. Where Fig. 9 compares the paper's
//! three arrangements, this matrix spans the whole registry: `noref`,
//! `baseline`, `refpb`, `raidr` and the `hira<N>` family side by side (and
//! any `--policy=` subset of them).
//!
//! Always writes `BENCH_policy_matrix.json` (into `HIRA_BENCH_DIR`, or the
//! working directory when unset): the tracked perf baseline for the policy
//! comparison surface.
//!
//! Flags: the shared matrix flags of [`hira_bench::MatrixArgs`] —
//! `--policy=` (default: the full standard registry) and an opt-in
//! `--plugin=` axis, plus `--kernel=`, the probe, cache and observability
//! flags, `--telemetry`, `--list` and `--check-determinism` (re-run the
//! sweep single-threaded and assert the canonical result sets are
//! byte-identical — the engine's guarantee, enforced end-to-end through
//! every policy object).

use hira_bench::presets::labels;
use hira_bench::{print_series, Matrix, MatrixArgs};
use hira_engine::flabel;

fn main() {
    let args = MatrixArgs::from_args(Matrix::Policy);
    let names = labels(&args.policies);
    let caps = &args.caps;
    println!(
        "== policy matrix: {} policies x capacities {caps:?}, {} mixes x {} insts ==",
        names.len(),
        args.scale.mixes,
        args.scale.insts
    );
    println!("policies: {}", names.join(", "));
    args.print_plugins(10, "rows");
    let t = args.run();

    let series = |name: &str| -> Vec<f64> {
        caps.iter()
            .map(|&c| {
                t.mean_over(&["plugin"], "ws", &[("policy", name), ("cap", &flabel(c))])
                    .expect("every policy x capacity cell runs")
            })
            .collect()
    };
    println!("\n-- weighted speedup by capacity (Gb): {caps:?} --");
    for name in &names {
        print_series(name, &series(name));
    }
    if names.contains(&"noref") {
        let ideal = series("noref");
        println!("\n-- normalized to noref (refresh-interference cost) --");
        for name in &names {
            let norm: Vec<f64> = series(name)
                .iter()
                .zip(&ideal)
                .map(|(w, i)| w / i)
                .collect();
            print_series(name, &norm);
        }
    }
    args.finish(&t);
}
