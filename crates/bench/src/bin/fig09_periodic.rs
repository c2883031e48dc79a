//! Fig. 9: periodic-refresh performance vs chip capacity (2-128 Gb):
//! (a) normalized to the ideal No-Refresh system, (b) normalized to the
//! Baseline (rank-level REF). One engine sweep over `scheme × capacity`.

use hira_bench::{periodic_schemes_ablated, print_series, Scale, SweepRun};
use hira_engine::{flabel, Executor, Sweep};
use hira_sim::config::SystemConfig;
use hira_sim::policy;

fn main() {
    let scale = Scale::from_env();
    let no_ra = std::env::args().any(|a| a == "--no-refresh-access");
    let caps = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

    let mut schemes = vec![("NoRefresh", policy::noref())];
    schemes.extend(periodic_schemes_ablated(no_ra));
    let names: Vec<&str> = schemes.iter().skip(1).map(|(n, _)| *n).collect();

    println!(
        "== Fig. 9: periodic refresh, capacities 2..128 Gb, {} mixes x {} insts ==",
        scale.mixes, scale.insts
    );
    println!("capacity (Gb): {caps:?}");

    let sweep = Sweep::new("fig09_periodic")
        .axis("scheme", schemes, |_, s| s.clone())
        .axis("cap", caps.map(|c| (flabel(c), c)), |s, c| {
            SystemConfig::table3(*c, s.clone())
        });
    let t = SweepRun::new(Executor::from_env(), scale).ws_over_mixes(sweep);
    let series = |name: &str| -> Vec<f64> {
        caps.iter()
            .map(|&c| t.mean(&[("scheme", name), ("cap", &flabel(c))]))
            .collect()
    };
    let ideal = series("NoRefresh");
    let base = series("Baseline");

    println!(
        "\n-- Fig. 9a: WS normalized to No-Refresh (paper: baseline drops to ~0.74 at 128 Gb) --"
    );
    for name in &names {
        let norm: Vec<f64> = series(name)
            .iter()
            .zip(&ideal)
            .map(|(w, i)| w / i)
            .collect();
        print_series(name, &norm);
    }

    println!("\n-- Fig. 9b: WS normalized to Baseline (paper: HiRA-2 reaches ~1.126 at 128 Gb) --");
    for name in &names {
        let norm: Vec<f64> = series(name).iter().zip(&base).map(|(w, b)| w / b).collect();
        print_series(name, &norm);
    }
    t.emit();
}
