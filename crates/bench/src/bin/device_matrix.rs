//! Device matrix: device × refresh policy × workload, through one engine
//! weighted-speedup sweep — the comparison surface the open
//! [`hira_sim::device`] API exists for. Where `policy_matrix` holds the
//! device fixed and sweeps policies, and `workload_matrix` crosses
//! workloads with policies, this grid adds the third axis: how each
//! refresh arrangement costs on each DRAM part, under each traffic shape.
//! Weighted speedup is normalized per device (each cell's alone-IPC
//! denominators run on that cell's device), so the numbers isolate
//! refresh interference rather than raw inter-device speed.
//!
//! Besides `ws`, every record set carries the channel metrics: `read_lat`
//! / `write_lat` (average demand latencies, memory cycles) and `dbus`
//! (mean per-channel data-bus busy fraction).
//!
//! Combos the builder refuses with
//! [`hira_sim::builder::BuildError::DeviceLacksHira`] (a HiRA policy on a
//! HiRA-inert part) or
//! [`hira_sim::builder::BuildError::DeviceLacksVrr`] (a directed-refresh
//! plugin on a part that drops vendor directed-refresh commands) are
//! skipped and reported explicitly — absent cells print as `-`, never as
//! silent zeros.
//!
//! Always writes `BENCH_device_matrix.json` (into `HIRA_BENCH_DIR`, or
//! the working directory when unset): the tracked perf baseline for the
//! device comparison surface.
//!
//! Flags: the shared matrix flags of [`hira_bench::MatrixArgs`] —
//! `--device=` (default: the HiRA-capable presets plus a pinned 32 Gb
//! part, including the dynamic `ddr4-2400@<Gb>` form), `--policy=`
//! (default: a representative arrangement per family), `--workload=`
//! (default: a mix, a streaming, a random and a write-heavy generator) and
//! an opt-in `--plugin=` axis (each combo validated through the builder,
//! so VRR-less parts skip directed-refresh plugins), plus `--kernel=`, the
//! probe, cache and observability flags, `--telemetry`, `--list` and
//! `--check-determinism`.

use hira_bench::presets::labels;
use hira_bench::{Matrix, MatrixArgs};

fn main() {
    let args = MatrixArgs::from_args(Matrix::Device);
    let dev_names = labels(&args.devices);
    let pol_names = labels(&args.policies);
    let wl_names = labels(&args.workloads);
    println!(
        "== device matrix: {} devices x {} policies x {} workloads, {} insts ==",
        dev_names.len(),
        pol_names.len(),
        wl_names.len(),
        args.scale.insts
    );
    println!("devices:   {}", dev_names.join(", "));
    println!("policies:  {}", pol_names.join(", "));
    println!("workloads: {}", wl_names.join(", "));
    args.print_plugins(11, "cells");
    let t = args.run();

    println!("\n-- weighted speedup, rows = device x policy, columns = workloads --");
    let header: Vec<String> = wl_names.iter().map(|n| format!("{n:>8}")).collect();
    println!("{:<30} {}", "", header.join(" "));
    for d in &dev_names {
        for p in &pol_names {
            let row: Vec<String> = wl_names
                .iter()
                .map(|w| {
                    match t.mean_over(&["plugin"], "ws", &[("dev", d), ("policy", p), ("wl", w)]) {
                        Some(v) => format!("{v:>8.4}"),
                        None => format!("{:>8}", "-"),
                    }
                })
                .collect();
            println!("{:<30} {}", format!("{d} / {p}"), row.join(" "));
        }
    }

    // Channel metrics under one representative policy: `baseline` when it
    // is on the axis, the first selected policy otherwise.
    let policy = *pol_names
        .iter()
        .find(|n| **n == "baseline")
        .unwrap_or(&pol_names[0]);
    println!("\n-- channel metrics per device ({policy} policy, mean over workloads) --");
    println!(
        "{:<18} {:>10} {:>10} {:>8} {:>9} {:>9} {:>9}",
        "", "read_lat", "write_lat", "dbus", "read_p50", "read_p99", "write_p99"
    );
    for d in &dev_names {
        let mean = |metric: &str| {
            t.mean_over(&["wl", "plugin"], metric, &[("dev", d), ("policy", policy)])
        };
        match (
            mean("read_lat"),
            mean("write_lat"),
            mean("dbus"),
            mean("read_p50"),
            mean("read_p99"),
            mean("write_p99"),
        ) {
            (Some(rl), Some(wl), Some(db), Some(r50), Some(r99), Some(w99)) => {
                println!(
                    "{d:<18} {rl:>10.2} {wl:>10.2} {db:>8.4} {r50:>9.1} {r99:>9.1} {w99:>9.1}"
                );
            }
            // A skipped device x policy combo has no records: say so.
            _ => println!(
                "{d:<18} {:>10} {:>10} {:>8} {:>9} {:>9} {:>9}",
                "-", "-", "-", "-", "-", "-"
            ),
        }
    }
    args.finish(&t);
}
