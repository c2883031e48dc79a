//! Cross-crate integration for the open device axis: every registered
//! device must drive the engine to bit-identical results for any thread
//! count, and the `ddr4-2400` preset must reproduce the exact system the
//! pre-API simulator hard-coded.

use hira::engine::{Executor, Sweep};
use hira::prelude::*;
use hira_bench::{Scale, SweepRun, Task};

fn tiny_scale() -> Scale {
    Scale {
        mixes: 1,
        insts: 1_000,
        warmup: 200,
        rows: 16,
    }
}

#[test]
fn every_registered_device_is_thread_count_invariant() {
    // The registry-wide property, in the workload_determinism pattern:
    // the full standard device registry (skipping HiRA-incompatible
    // combos via a non-HiRA policy) × a HiRA point on the capable parts,
    // through the engine at 1 vs 8 threads — byte-identical canonical
    // results, including the channel-stats metrics.
    let sweep = || {
        let mut points = Vec::new();
        for dev in DeviceRegistry::standard().handles() {
            let policies: &[&str] = if dev.profile().supports_hira {
                &["baseline", "hira2"]
            } else {
                &["baseline"]
            };
            for pol in policies {
                let key = hira::engine::ScenarioKey::root()
                    .with("dev", dev.name())
                    .with("policy", *pol);
                let cfg = SystemBuilder::new()
                    .device(dev.clone())
                    .policy_name(pol)
                    .workload_name("random")
                    .build()
                    .unwrap();
                points.push((key, cfg));
            }
        }
        Sweep::from_points("device_axis", hira::engine::DEFAULT_BASE_SEED, points)
    };
    let canonical = |threads: usize| {
        SweepRun::new(Executor::with_threads(threads), tiny_scale())
            .task(Task::WsStats)
            .ws(sweep())
            .run
            .canonical_json()
    };
    let single = canonical(1);
    assert!(
        single.matches("\"metric\":\"ws\"").count() >= 7,
        "registry should span all four presets (plus HiRA points)"
    );
    assert_eq!(single, canonical(8), "8 threads diverged from 1");
}

#[test]
fn ddr4_2400_reproduces_the_pre_api_system() {
    // The compatibility anchor behind the tracked BENCH baselines: the
    // default-device configuration equals the explicit ddr4-2400 one,
    // field for field, and simulates identically.
    let explicit = SystemBuilder::new()
        .device(device::ddr4_2400())
        .policy(policy::baseline())
        .insts(1_500, 300)
        .build()
        .unwrap();
    let implicit = SystemConfig::table3(8.0, policy::baseline()).with_insts(1_500, 300);
    assert_eq!(explicit, implicit);
    let a = System::new(explicit).run();
    let b = System::new(implicit).run();
    assert_eq!(a.ipc, b.ipc);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.mem_cycles, b.mem_cycles);
}

#[test]
fn clock_ratio_flows_from_the_device_into_the_simulation() {
    // A 3200 MT/s part ticks its memory clock at 1/2 the CPU clock
    // instead of 3/8: the simulated mem-cycle count per CPU cycle must
    // follow the device, end to end.
    let run = |dev: DeviceHandle| {
        let cfg = SystemBuilder::new()
            .device(dev)
            .policy(policy::noref())
            .workload_name("stream")
            .insts(1_500, 300)
            .build()
            .unwrap();
        System::new(cfg).run()
    };
    let slow = run(device::ddr4_2400());
    let fast = run(device::ddr4_3200());
    let slow_ratio = slow.mem_cycles as f64 / slow.cycles as f64;
    let fast_ratio = fast.mem_cycles as f64 / fast.cycles as f64;
    assert!((slow_ratio - 3.0 / 8.0).abs() < 1e-3, "{slow_ratio}");
    assert!((fast_ratio - 1.0 / 2.0).abs() < 1e-3, "{fast_ratio}");
}

#[test]
fn native_refpb_path_runs_end_to_end_on_lpddr4() {
    // The lpddr4-3200 preset exercises the REFpb execution path with the
    // device-quoted tRFCpb over its 8-bank geometry.
    let cfg = SystemBuilder::new()
        .device(device::lpddr4_3200())
        .policy(policy::refpb())
        .workload_name("random")
        .insts(2_000, 400)
        .build()
        .unwrap();
    assert!(cfg.device.profile().native_refpb);
    assert_eq!(cfg.banks, 8);
    let r = System::new(cfg).run();
    let refpb: u64 = r.channel_stats.iter().map(|s| s.refpb_commands).sum();
    let rank_refs: u64 = r.channel_stats.iter().map(|s| s.ref_commands).sum();
    assert!(refpb > 0, "no REFpb commands issued");
    assert_eq!(rank_refs, 0, "REFpb must not issue rank-level REF");
    let ps = r.policy_stats.first().expect("policy stats");
    assert_eq!(ps.bank_refs, refpb);
}
