//! RowHammer-defense matrix: controller plugin × refresh policy × device,
//! through one engine weighted-speedup sweep — the comparison surface the
//! open [`hira_sim::plugin`] API exists for. Every cell runs the same
//! row-reuse-heavy workload under a different (defense, refresh
//! arrangement, DRAM part) triple, so the grid answers the paper's §9
//! question end-to-end: what does each preventive-refresh defense cost on
//! top of each refresh arrangement — and how much victim exposure does it
//! leave behind?
//!
//! Besides `ws` (and the per-point defense counters `plugin_acts`,
//! `plugin_injected`, `victim_max_exposure`, `victim_mean_exposure`,
//! `rows_over_threshold` on every plugin-bearing point), the result store
//! carries derived `ws_vs_none` records: each defended cell's weighted
//! speedup relative to the undefended `none` cell of the same (policy,
//! device, workload) — the defense's performance overhead, isolated from
//! everything else.
//!
//! Combos the builder refuses with
//! [`hira_sim::builder::BuildError::DeviceLacksHira`] (a HiRA policy on a
//! HiRA-inert part) or
//! [`hira_sim::builder::BuildError::DeviceLacksVrr`] (a directed-refresh
//! plugin on a part that drops vendor directed-refresh commands) are
//! skipped and reported explicitly — absent cells print as `-`, never as
//! silent zeros.
//!
//! Always writes `BENCH_rh_matrix.json` (into `HIRA_BENCH_DIR`, or the
//! working directory when unset): the tracked perf baseline for the
//! defense comparison surface.
//!
//! Flags: the shared matrix flags of [`hira_bench::MatrixArgs`] —
//! `--plugin=` (default: `none` plus one working point per shipped
//! defense), `--policy=` (default: the all-bank baseline, per-bank refresh
//! and HiRA-4), `--device=` (default: the DDR4-2400 and LPDDR4-3200
//! presets) and `--workload=` (default: the row-reuse-heavy `hotspot`
//! generator), plus `--kernel=`, the probe, cache and observability flags,
//! `--telemetry`, `--list` and `--check-determinism` (enforced end-to-end
//! through every plugin).

use hira_bench::presets::labels;
use hira_bench::{Matrix, MatrixArgs};

fn main() {
    let args = MatrixArgs::from_args(Matrix::Rh);
    let plug_names = labels(&args.plugins);
    let pol_names = labels(&args.policies);
    let dev_names = labels(&args.devices);
    let wl_names = labels(&args.workloads);
    println!(
        "== rh matrix: {} plugins x {} policies x {} devices x {} workloads, {} insts ==",
        plug_names.len(),
        pol_names.len(),
        dev_names.len(),
        wl_names.len(),
        args.scale.insts
    );
    println!("plugins:   {}", plug_names.join(", "));
    println!("policies:  {}", pol_names.join(", "));
    println!("devices:   {}", dev_names.join(", "));
    println!("workloads: {}", wl_names.join(", "));
    let t = args.run();

    // One plugin x policy cell per entry, averaged over devices and
    // workloads; `-` where every device skipped the combination.
    let cell = |metric: &str, g: &str, p: &str| match t.mean_over(
        &["dev", "wl"],
        metric,
        &[("plugin", g), ("policy", p)],
    ) {
        Some(v) => format!("{v:>8.4}"),
        None => format!("{:>8}", "-"),
    };
    println!(
        "\n-- weighted speedup, rows = plugin, columns = policy (mean over devices and workloads) --"
    );
    let header: Vec<String> = pol_names.iter().map(|n| format!("{n:>8}")).collect();
    println!("{:<18} {}", "", header.join(" "));
    for g in &plug_names {
        let row: Vec<String> = pol_names.iter().map(|p| cell("ws", g, p)).collect();
        println!("{g:<18} {}", row.join(" "));
    }

    if plug_names.contains(&"none") {
        println!("\n-- defense overhead: ws relative to `none` (1.0 = free) --");
        println!("{:<18} {}", "", header.join(" "));
        for g in plug_names.iter().filter(|g| **g != "none") {
            let row: Vec<String> = pol_names.iter().map(|p| cell("ws_vs_none", g, p)).collect();
            println!("{g:<18} {}", row.join(" "));
        }
    }

    println!("\n-- victim exposure per plugin (mean over the grid) --");
    println!(
        "{:<18} {:>12} {:>12} {:>14} {:>15} {:>10}",
        "", "acts", "injected", "max_exposure", "mean_exposure", "rows>tRH"
    );
    for g in &plug_names {
        let mean = |metric: &str| t.mean_over(&["policy", "dev", "wl"], metric, &[("plugin", g)]);
        match (
            mean("plugin_acts"),
            mean("plugin_injected"),
            mean("victim_max_exposure"),
            mean("victim_mean_exposure"),
            mean("rows_over_threshold"),
        ) {
            (Some(a), Some(i), Some(mx), Some(mn), Some(ro)) => {
                println!("{g:<18} {a:>12.0} {i:>12.0} {mx:>14.0} {mn:>15.2} {ro:>10.0}")
            }
            // The `none` row tracks nothing: say so instead of zeros.
            _ => println!(
                "{g:<18} {:>12} {:>12} {:>14} {:>15} {:>10}",
                "-", "-", "-", "-", "-"
            ),
        }
    }
    args.finish(&t);
}
