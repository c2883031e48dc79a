//! Fig. 12: PARA preventive-refresh performance vs RowHammer threshold:
//! (a) normalized to a baseline with no RowHammer defense, (b) HiRA's
//! improvement over plain PARA. The `p_th` of each scheme depends on the
//! `NRH` axis, so the scheme axis uses point-dependent expansion.

use hira_bench::{preventive_schemes, print_series, Scale, SweepRun};
use hira_engine::{Executor, ScenarioKey, Sweep};
use hira_sim::config::SystemConfig;
use hira_sim::policy;

fn main() {
    let scale = Scale::from_env();
    let nrhs = [1024u32, 512, 256, 128, 64];
    let names: Vec<&str> = preventive_schemes(nrhs[0])
        .iter()
        .map(|(n, _)| *n)
        .collect();
    println!(
        "== Fig. 12: PARA +- HiRA, NRH sweep {:?}, {} mixes x {} insts ==",
        nrhs, scale.mixes, scale.insts
    );

    let mut sweep = Sweep::new("fig12_para")
        .axis("nrh", nrhs.map(|n| (n.to_string(), n)), |_, n| *n)
        .expand("scheme", |_, &nrh| {
            preventive_schemes(nrh)
                .into_iter()
                .map(|(name, handle)| (name.to_string(), SystemConfig::table3(8.0, handle)))
                .collect()
        });
    // The normalization baseline: periodic refresh only, no RowHammer defense.
    sweep.push(
        ScenarioKey::root().with("scheme", "no-defense"),
        SystemConfig::table3(8.0, policy::baseline()),
    );
    let t = SweepRun::new(Executor::from_env(), scale).ws_over_mixes(sweep);

    let base_ws = t.mean(&[("scheme", "no-defense")]);
    let series = |name: &str| -> Vec<f64> {
        nrhs.iter()
            .map(|&n| t.mean(&[("nrh", &n.to_string()), ("scheme", name)]))
            .collect()
    };

    println!("\n-- Fig. 12a: WS normalized to no-defense baseline --");
    println!("(paper: PARA 0.71 at NRH=1024 down to 0.04 at NRH=64)");
    println!("NRH:         {nrhs:?}");
    for name in &names {
        let norm: Vec<f64> = series(name).iter().map(|w| w / base_ws).collect();
        print_series(name, &norm);
    }

    println!("\n-- Fig. 12b: WS normalized to plain PARA --");
    println!("(paper: HiRA-2 1.054x at NRH=1024, 2.75x at NRH=64; HiRA-4 3.73x at NRH=64)");
    let para = series("PARA");
    for name in &names {
        let norm: Vec<f64> = series(name).iter().zip(&para).map(|(w, p)| w / p).collect();
        print_series(name, &norm);
    }
    t.emit();
}
