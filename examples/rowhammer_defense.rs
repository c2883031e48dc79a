//! RowHammer-defense case study (§9, one data point of Fig. 12): configures
//! PARA for a vulnerable chip (NRH = 256) via the security analysis, then
//! compares plain PARA against PARA + HiRA-4 — both composed onto the
//! Baseline policy's handle, which the builder takes through `.policy()`.
//!
//! Run with: `cargo run --release --example rowhammer_defense`

use hira::prelude::*;

fn main() {
    let nrh = 256;
    let pth0 = solve_pth(&SecurityParams::paper_defaults(0), nrh);
    let pth4 = solve_pth(&SecurityParams::paper_defaults(4), nrh);
    println!("NRH = {nrh}: p_th = {pth0:.4} (immediate) / {pth4:.4} (with 4*tRC slack)\n");

    // The legacy `mixes(1, 8, 11)[0]` workload, through the handle
    // frontend.
    let system = |refresh: PolicyHandle| {
        SystemBuilder::new()
            .policy(refresh)
            .workload(mix_with_seed(0, 11))
            .insts(25_000, 5_000)
            .build()
            .unwrap()
    };
    let mut results = Vec::new();
    for (name, refresh) in [
        ("no defense", policy::baseline()),
        ("PARA", policy::baseline().with_para_immediate(pth0)),
        ("PARA + HiRA-4", policy::baseline().with_para_hira(pth4, 4)),
    ] {
        let r = System::new(system(refresh)).run();
        let ipc_sum: f64 = r.ipc.iter().sum();
        println!("{name:<15} IPC-sum {ipc_sum:>6.3}");
        results.push((name, ipc_sum));
    }
    let para = results[1].1;
    println!(
        "\nHiRA-4 speedup over plain PARA: {:.2}x",
        results[2].1 / para
    );
}
