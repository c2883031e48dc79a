//! Dense-vs-event kernel equality: the event-driven time-skipping kernel
//! must produce **identical** [`SimResult`]s to the dense reference loop —
//! bit-level on every IPC, cycle count, channel statistic, HiRA-MC counter
//! and policy counter — for every registered refresh policy, a workload
//! sample spanning the shipped families, and more than one device clock
//! ratio. This is the integration-level enforcement of the
//! [`RefreshPolicy::next_wake`] contract and of the core model's
//! sleep/compute-batching arithmetic.

use hira::engine::{Executor, Sweep};
use hira::prelude::*;
use hira::workload::workload;
use hira_bench::{Scale, SweepRun};

fn build(
    device: &DeviceHandle,
    policy: &PolicyHandle,
    workload: &WorkloadHandle,
    kernel: KernelMode,
) -> Option<SystemConfig> {
    match SystemBuilder::new()
        .device(device.clone())
        .policy(policy.clone())
        .workload(workload.clone())
        .insts(2_500, 500)
        .kernel(kernel)
        .build()
    {
        Ok(cfg) => Some(cfg),
        // A HiRA policy on a HiRA-inert part is a legitimately absent
        // grid cell, same as in the device_matrix binary.
        Err(BuildError::DeviceLacksHira { .. }) => None,
        Err(e) => panic!("unexpected build failure: {e}"),
    }
}

#[test]
fn every_policy_workload_device_point_is_kernel_invariant() {
    // Every registered policy × a sample of every workload family × two
    // devices with different CPU↔memory tick rationals (3:8 and 1:2).
    let devices = [device::ddr4_2400(), device::lpddr4_3200()];
    let workloads = [workload("mix0"), workload("stream"), workload("random")];
    let mut checked = 0;
    for policy in PolicyRegistry::standard().handles() {
        for dev in &devices {
            for wl in &workloads {
                let Some(dense_cfg) = build(dev, policy, wl, KernelMode::Dense) else {
                    continue;
                };
                let event_cfg = build(dev, policy, wl, KernelMode::Event).unwrap();
                let dense = System::new(dense_cfg).run();
                let event = System::new(event_cfg).run();
                assert_eq!(
                    dense,
                    event,
                    "kernels diverged: policy {} x device {} x workload {}",
                    policy.name(),
                    dev.name(),
                    wl.name()
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 20, "grid unexpectedly small: {checked} points");
}

#[test]
fn write_drain_and_refresh_cells_are_kernel_invariant() {
    // The cells above are shorter than one tREFI and never write to DRAM.
    // A 16 KB LLC under rw50 evicts dirty lines from the start, so these
    // runs drive the write queue through both drain watermarks, and at
    // 20,000 instructions they span several tREFI: every registered
    // policy's refresh machinery runs beside demand reads and writes.
    let mut per_kcycle = Vec::new();
    for policy in PolicyRegistry::standard().handles() {
        let run = |kernel| {
            let cfg = SystemBuilder::table3(64.0)
                .policy(policy.clone())
                .workload(workload("rw50"))
                .llc(16 << 10, 8)
                .insts(20_000, 2_000)
                .kernel(kernel)
                .build()
                .unwrap();
            System::new(cfg).run_telemetered()
        };
        let (dense, _) = run(KernelMode::Dense);
        let (event, telemetry) = run(KernelMode::Event);
        assert_eq!(dense, event, "kernels diverged under {}", policy.name());
        per_kcycle.push(telemetry.events as f64 * 1_000.0 / event.cycles as f64);
        let writes: u64 = dense.channel_stats.iter().map(|s| s.writes_done).sum();
        let refs: u64 = dense.channel_stats.iter().map(|s| s.ref_commands).sum();
        let refpbs: u64 = dense.channel_stats.iter().map(|s| s.refpb_commands).sum();
        assert!(
            writes > 0,
            "{}: no DRAM write — the cell is vacuous",
            policy.name()
        );
        match policy.name() {
            "baseline" => assert!(refs > 0, "baseline issued no REF"),
            "refpb" => assert!(refpbs > 0, "refpb issued no REFpb"),
            _ => {}
        }
    }
    // With no reads and at most WQ_LOW writes queued, the write-drain
    // toggle flips on every tick while FR-FCFS picks from the write queue
    // either way. The event kernel applies those flips in closed form
    // instead of processing each tick: about 131 events per kcycle on
    // these cells, against 161 when it processed them.
    let mean = per_kcycle.iter().sum::<f64>() / per_kcycle.len() as f64;
    assert!(
        mean <= 145.0,
        "{mean:.1} events per kcycle over the policies: {per_kcycle:?}"
    );
}

#[test]
fn para_layers_are_kernel_invariant() {
    // The composition layers have their own next_wake logic (immediate
    // queues, a second HiRA-MC): cover both over a non-HiRA inner policy
    // and the natively-absorbing HiRA inner.
    let layered = [
        policy::baseline().with_para_immediate(0.5),
        policy::baseline().with_para_hira(0.5, 4),
        policy::hira(4).with_para_hira(0.5, 4),
    ];
    for p in layered {
        let run = |kernel| {
            let cfg = SystemBuilder::new()
                .policy(p.clone())
                .insts(2_500, 500)
                .kernel(kernel)
                .build()
                .unwrap();
            System::new(cfg).run()
        };
        let dense = run(KernelMode::Dense);
        let event = run(KernelMode::Event);
        assert_eq!(dense, event, "kernels diverged under layer {}", p.name());
        assert!(
            dense.policy_stats[0].preventive_queued > 0,
            "{}: the PARA layer never triggered — the point is untested",
            p.name()
        );
    }
}

#[test]
fn capped_runs_report_the_cap_under_both_kernels() {
    // Pin the safety cap below the run's natural length: both kernels
    // must stop at *exactly* the cap with equal results — the event
    // kernel clamps its time skips to it (no overshoot however far the
    // next wake lay; SimResult::cycles documents this).
    let natural = System::new(
        SystemBuilder::new()
            .cores(1)
            .policy(policy::baseline())
            .workload(workload("chase"))
            .insts(2_000, 400)
            .build()
            .unwrap(),
    )
    .run()
    .cycles;
    let cap = natural / 2;
    let run = |kernel| {
        let cfg = SystemBuilder::new()
            .cores(1)
            .policy(policy::baseline())
            .workload(workload("chase"))
            .insts(2_000, 400)
            .kernel(kernel)
            .build()
            .unwrap()
            .with_cycle_cap(cap);
        System::new(cfg).run()
    };
    let dense = run(KernelMode::Dense);
    let event = run(KernelMode::Event);
    assert_eq!(dense.cycles, cap, "dense run must stop at the cap");
    assert_eq!(event.cycles, cap, "event run must not overshoot the cap");
    assert_eq!(dense, event);
}

#[test]
fn epoch_samples_are_kernel_invariant_across_policies() {
    // The epoch sampler fires at exact dense cycle boundaries; the event
    // kernel clamps its time skips to them, so the recorded time series
    // must match the dense one sample for sample — ipc, bandwidths, queue
    // depths, refresh occupancy, everything — for every registered policy.
    for policy in PolicyRegistry::standard().handles() {
        let run = |kernel| {
            let (handle, sink) = probe::epoch_collector(4_096);
            let cfg = SystemBuilder::new()
                .policy(policy.clone())
                .insts(2_500, 500)
                .kernel(kernel)
                .probe(handle)
                .build()
                .unwrap();
            let result = System::new(cfg).run();
            let samples = sink.lock().unwrap().clone();
            (result, samples)
        };
        let (dense, dense_samples) = run(KernelMode::Dense);
        let (event, event_samples) = run(KernelMode::Event);
        assert_eq!(dense, event, "results diverged under {}", policy.name());
        assert!(
            dense_samples.len() >= 2,
            "{}: too few epochs ({}) — the boundary semantics are untested",
            policy.name(),
            dense_samples.len()
        );
        assert_eq!(
            dense_samples,
            event_samples,
            "epoch time series diverged under {}",
            policy.name()
        );
        // The samples land exactly on multiples of the epoch period, in
        // order, and the cumulative view is consistent.
        for (i, s) in dense_samples.iter().enumerate() {
            assert_eq!(s.epoch as usize, i);
            assert_eq!(s.cycle, (i as u64 + 1) * 4_096);
        }
    }
}

#[test]
fn probe_attachment_leaves_results_bit_identical() {
    // Probes are read-only observers: attaching the whole built-in kit at
    // once must leave the SimResult bit-identical to the bare run, under
    // both kernels and across policy families.
    let dir = std::env::temp_dir().join("hira-probe-identity");
    std::fs::create_dir_all(&dir).unwrap();
    for policy in [policy::baseline(), policy::refpb(), policy::hira(4)] {
        for kernel in [KernelMode::Dense, KernelMode::Event] {
            let build = |probe_handle: Option<ProbeHandle>| {
                let mut b = SystemBuilder::new()
                    .policy(policy.clone())
                    .insts(2_000, 400)
                    .kernel(kernel);
                if let Some(p) = probe_handle {
                    b = b.probe(p);
                }
                System::new(b.build().unwrap()).run()
            };
            let bare = build(None);
            let tag = format!("{}-{}", policy.name(), kernel);
            let latency = probe::probe(&format!(
                "latency:{}",
                dir.join(format!("{tag}.lat.jsonl")).display()
            ));
            let (epochs, _) = epoch_collector(2_048);
            let (acts, _) = probe::act_exposure_collector();
            let trace = probe::probe(&format!("cmdtrace:{}", dir.join(&tag).display()));
            let probed = build(Some(ProbeHandle::multi(vec![trace, epochs, latency, acts])));
            assert_eq!(
                bare,
                probed,
                "probes perturbed the run: policy {} x kernel {kernel}",
                policy.name()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_registered_plugin_is_kernel_invariant() {
    // The controller-plugin hook points (per-ACT notification, injected
    // preventive refreshes, plugin wakes feeding the event gate) have
    // their own next_wake logic: dense and event must stay bit-identical
    // with every shipped defense attached. The registry samples cover the
    // canonical parameterizations; the extra low-threshold instances force
    // the *injection* paths to actually fire within a short run (oracle
    // triggers on victim exposure, graphene on aggressor count).
    let mut roster = PluginRegistry::standard().samples();
    // tRH = 1 instances are deliberately absent: a defense whose injected
    // refreshes immediately re-trigger it (every refresh is itself an
    // activation) cascades without bound.
    roster.extend([
        plugin::oracle(2),
        plugin::para(0.5),
        plugin::graphene(2, 64),
    ]);
    for handle in roster {
        for policy in [policy::baseline(), policy::hira(4)] {
            let run = |kernel| {
                let cfg = SystemBuilder::new()
                    .policy(policy.clone())
                    .workload(workload("hotspot"))
                    .plugin(handle.clone())
                    .insts(2_500, 500)
                    .kernel(kernel)
                    .build()
                    .unwrap();
                System::new(cfg).run()
            };
            let dense = run(KernelMode::Dense);
            let event = run(KernelMode::Event);
            assert_eq!(
                dense,
                event,
                "kernels diverged: plugin {} x policy {}",
                handle.name(),
                policy.name()
            );
            let totals = dense.plugin_totals();
            assert!(
                totals.acts_observed > 0,
                "{}: the plugin never observed an ACT — the point is untested",
                handle.name()
            );
            if ["para:0.5", "oracle:2", "graphene:2:64"].contains(&handle.name()) {
                assert!(
                    totals.injected > 0,
                    "{}: the injection path never fired — the point is untested",
                    handle.name()
                );
            }
        }
    }
}

#[test]
fn engine_thread_count_determinism_holds_in_event_mode() {
    // The engine determinism guarantee re-checked with the event kernel
    // explicitly selected: results byte-identical at 1 vs 8 threads.
    let scale = Scale {
        mixes: 2,
        insts: 2_000,
        warmup: 400,
        rows: 16,
    };
    let sweep = || {
        Sweep::new("event_determinism").axis(
            "policy",
            [("baseline", policy::baseline()), ("hira4", policy::hira(4))],
            |_, p| SystemConfig::table3(8.0, p.clone()).with_kernel(KernelMode::Event),
        )
    };
    let canonical = |threads| {
        SweepRun::new(Executor::with_threads(threads), scale)
            .ws_over_mixes(sweep())
            .run
            .canonical_json()
    };
    let single = canonical(1);
    assert!(!single.is_empty());
    assert_eq!(single, canonical(8), "8 threads diverged from 1");
}

#[test]
fn event_kernel_processes_few_events_per_kcycle() {
    // The event kernel's reason to exist: on the Table 3 system at 64 Gb,
    // every policy family processes at most one cycle in five. Compute
    // stretches past in-flight loads are batched, channels wake only when
    // a queued request could be picked, and refresh queues only when
    // queued work can move — a regression in any of the three shows here.
    for name in ["noref", "baseline", "raidr", "hira0", "hira4"] {
        let cfg = SystemBuilder::table3(64.0)
            .policy_name(name)
            .workload(workload("mix0"))
            .insts(10_000, 2_000)
            .build()
            .unwrap();
        let (result, telemetry) = System::new(cfg).run_telemetered();
        let per_kcycle = telemetry.events as f64 * 1_000.0 / result.cycles as f64;
        assert!(
            per_kcycle <= 200.0,
            "{name}: {per_kcycle:.1} events per kcycle ({} events over {} cycles)",
            telemetry.events,
            result.cycles
        );
    }
}

#[test]
fn event_kernel_updates_a_core_only_when_it_wakes() {
    // Each processed event touches only what woke: a core whose wake lies
    // ahead is caught up lazily, in one skip, when it is next touched. On
    // the same cells, all eight cores together take at most two
    // `Core::tick`/`Core::skip` calls per event; advancing every core on
    // every event costs about twelve. Likewise a rank's refresh wake is
    // recomputed only after a request is queued to the rank, the rank
    // passes the refresh gate or a demand commit lands on it: about one
    // fresh wake every two events, against 0.73–0.75 when every tick
    // cleared every rank's wake. The dense/event wall ratio cannot see
    // such a regression when both kernels share the cost.
    for name in ["noref", "baseline", "raidr", "hira0", "hira4"] {
        let cfg = SystemBuilder::table3(64.0)
            .policy_name(name)
            .workload(workload("mix0"))
            .insts(10_000, 2_000)
            .build()
            .unwrap();
        let (_, telemetry) = System::new(cfg).run_telemetered();
        assert!(
            telemetry.core_updates <= 2 * telemetry.events,
            "{name}: {} core updates over {} events",
            telemetry.core_updates,
            telemetry.events
        );
        assert!(
            telemetry.rank_wakes as f64 <= 0.6 * telemetry.events as f64,
            "{name}: {} rank wakes over {} events",
            telemetry.rank_wakes,
            telemetry.events
        );
    }
}
