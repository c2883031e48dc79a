//! Ablation study (DESIGN.md §8): which HiRA-MC mechanism buys what.
//!
//! Runs HiRA-4 on 64 Gb chips with refresh-access and refresh-refresh
//! pairing individually disabled, against the full configuration, the
//! Baseline and the ideal No-Refresh system — one engine sweep over the
//! `scheme` axis, every point a registered-or-custom policy handle.

use hira_bench::{print_series, Scale, SweepRun};
use hira_core::config::HiraConfig;
use hira_engine::{Executor, Sweep};
use hira_sim::config::SystemConfig;
use hira_sim::policy;

fn main() {
    let scale = Scale::from_env();
    let cap = 64.0;
    let schemes = vec![
        ("NoRefresh", policy::noref()),
        ("Baseline", policy::baseline()),
        ("HiRA-4 full", policy::hira(4)),
        (
            "no refresh-access",
            policy::hira_custom("hira4-noRA", HiraConfig::hira_n(4).without_refresh_access()),
        ),
        (
            "no refresh-refresh",
            policy::hira_custom(
                "hira4-noRR",
                HiraConfig::hira_n(4).without_refresh_refresh(),
            ),
        ),
        (
            "singles only",
            policy::hira_custom(
                "hira4-singles",
                HiraConfig::hira_n(4)
                    .without_refresh_access()
                    .without_refresh_refresh(),
            ),
        ),
    ];
    let names: Vec<&str> = schemes.iter().skip(1).map(|(n, _)| *n).collect();

    println!(
        "== Ablation: HiRA-4 mechanisms at {cap} Gb, {} mixes x {} insts ==",
        scale.mixes, scale.insts
    );
    let sweep = Sweep::new("ablation_mechanisms").axis("scheme", schemes, |_, s| {
        SystemConfig::table3(cap, s.clone())
    });
    let t = SweepRun::new(Executor::from_env(), scale).ws_over_mixes(sweep);
    let ideal = t.mean(&[("scheme", "NoRefresh")]);

    println!("(weighted speedup normalized to the ideal No-Refresh system)");
    for name in names {
        print_series(name, &[t.mean(&[("scheme", name)]) / ideal]);
    }
    t.emit();
}
