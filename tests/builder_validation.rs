//! Property-based tests for [`SystemBuilder`] validation, in the repo's
//! established style: cases generated from the deterministic [`Stream`] RNG
//! (fixed seeds, many random cases per property) rather than an external
//! property-testing dependency. Every failure message includes the case
//! inputs, so a red run reproduces exactly.

use hira::dram::rng::Stream;
use hira::dram::timing::{trfc_for_capacity, TimingParams};
use hira::prelude::*;

/// Deterministic case source for one property.
fn cases(property_tag: u64) -> Stream {
    Stream::from_words(&[0x4255_494C_4452, property_tag])
}

#[test]
fn zero_structural_counts_are_always_rejected() {
    let mut rng = cases(1);
    for case in 0..64 {
        // Randomize the other dimensions; zero out one structural count.
        let which = rng.next_below(5);
        let cores = 1 + rng.next_below(15) as usize;
        let channels = 1 + rng.next_below(7) as usize;
        let ranks = 1 + rng.next_below(7) as usize;
        let banks = 4u16 << rng.next_below(3);
        let b = SystemBuilder::new()
            .cores(if which == 0 { 0 } else { cores })
            .geometry(
                if which == 1 { 0 } else { channels },
                if which == 2 { 0 } else { ranks },
            )
            .banks(
                if which == 3 { 0 } else { banks },
                if which == 3 { 4 } else { banks / 4 },
            )
            .queue_depth(if which == 4 { 0 } else { 64 });
        let err = b.build().expect_err(&format!(
            "case {case}: zero count {which} accepted (cores={cores} ch={channels} rk={ranks})"
        ));
        assert!(
            matches!(err, BuildError::ZeroCount { .. }),
            "case {case}: wrong error {err:?}"
        );
    }
}

#[test]
fn bank_groups_must_divide_banks() {
    let mut rng = cases(2);
    for case in 0..64 {
        let banks = 1 + rng.next_below(64) as u16;
        let groups = 1 + rng.next_below(16) as u16;
        let result = SystemBuilder::new().banks(banks, groups).build();
        if banks.is_multiple_of(groups) {
            assert!(
                result.is_ok(),
                "case {case}: {banks}/{groups} wrongly rejected: {:?}",
                result.unwrap_err()
            );
        } else {
            assert_eq!(
                result.unwrap_err(),
                BuildError::BankGroupMismatch {
                    banks,
                    bank_groups: groups
                },
                "case {case}: {banks}/{groups}"
            );
        }
    }
}

#[test]
fn refresh_window_and_row_cycle_cross_checks_hold() {
    let mut rng = cases(3);
    for case in 0..64 {
        let mut t = TimingParams::ddr4_2400();
        // Random tRFC around tREFI: beyond it must be rejected.
        t.t_rfc = t.t_refi * (0.2 + 1.6 * rng.next_f64());
        let result = SystemBuilder::new().timing(t).build();
        if t.t_rfc >= t.t_refi {
            assert!(
                matches!(result, Err(BuildError::RefreshWindowTooTight { .. })),
                "case {case}: tRFC {} vs tREFI {} accepted",
                t.t_rfc,
                t.t_refi
            );
        } else {
            assert!(result.is_ok(), "case {case}: valid timing rejected");
        }
        // Random tRC below tRAS+tRP must be rejected.
        let mut t = TimingParams::ddr4_2400();
        t.t_rc = (t.t_ras + t.t_rp) * (0.5 + 0.7 * rng.next_f64());
        let result = SystemBuilder::new().timing(t).build();
        if t.t_rc + 1e-9 < t.t_ras + t.t_rp {
            assert!(
                matches!(result, Err(BuildError::RowCycleInconsistent { .. })),
                "case {case}: tRC {} accepted below {}",
                t.t_rc,
                t.t_ras + t.t_rp
            );
        } else {
            assert!(result.is_ok(), "case {case}: valid tRC rejected");
        }
    }
}

#[test]
fn warmup_must_stay_below_the_instruction_budget() {
    let mut rng = cases(4);
    for case in 0..64 {
        let insts = 1 + rng.next_below(100_000);
        let warmup = rng.next_below(200_000);
        let result = SystemBuilder::new().insts(insts, warmup).build();
        if warmup >= insts {
            assert_eq!(
                result.unwrap_err(),
                BuildError::WarmupExceedsBudget { warmup, insts },
                "case {case}"
            );
        } else {
            assert!(result.is_ok(), "case {case}: {warmup} < {insts} rejected");
        }
    }
}

#[test]
fn budgets_that_overflow_the_cycle_count_are_rejected() {
    // The default safety cap is 120 × (warmup + insts) + 4 M cycles; the
    // largest run target whose cap still fits in a u64:
    let max_target = (u64::MAX - 4_000_000) / 120;
    let mut rng = cases(8);
    for case in 0..64 {
        let target = max_target - 32 + rng.next_below(64);
        let warmup = rng.next_below(target / 2);
        let insts = target - warmup;
        let result = SystemBuilder::new().insts(insts, warmup).build();
        if target <= max_target {
            assert!(result.is_ok(), "case {case}: {warmup} + {insts} rejected");
        } else {
            assert_eq!(
                result.unwrap_err(),
                BuildError::BudgetOverflow { warmup, insts },
                "case {case}"
            );
        }
    }
    // A target past u64::MAX, and budgets a serve request can name (its
    // warmup is a fifth of `insts`): refused, never overflowed in a run.
    for insts in [u64::MAX, u64::MAX - 2047, 200_000_000_000_000_000] {
        let warmup = insts / 5;
        assert_eq!(
            SystemBuilder::new()
                .insts(insts, warmup)
                .build()
                .unwrap_err(),
            BuildError::BudgetOverflow { warmup, insts },
            "insts {insts}"
        );
    }
}

#[test]
fn builder_reproduces_the_legacy_table3_struct_literals() {
    // The builder's output must equal the hand-assembled configuration the
    // harness used to carry, for every Table 3 capacity × policy preset.
    let caps = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
    let policies = [policy::noref(), policy::baseline(), policy::hira(4)];
    for &cap in &caps {
        for p in &policies {
            let mut timing = TimingParams::ddr4_2400();
            timing.t_rfc = trfc_for_capacity(cap);
            let legacy = SystemConfig {
                cores: 8,
                channels: 1,
                ranks: 1,
                banks: 16,
                bank_groups: 4,
                chip_gbit: cap,
                device: device::ddr4_2400(),
                timing,
                refresh: p.clone(),
                workload: mix(0),
                llc_bytes: 8 << 20,
                llc_ways: 8,
                queue_depth: 64,
                insts_per_core: 100_000,
                warmup_insts: 20_000,
                spt_fraction: 0.32,
                seed: 0x5157,
                kernel: KernelMode::default(),
                cycle_cap: None,
                probe: None,
                plugins: Vec::new(),
            };
            let built = SystemBuilder::table3(cap)
                .policy(p.clone())
                .build()
                .unwrap();
            assert_eq!(built, legacy, "cap={cap} policy={}", p.name());
            assert_eq!(built, SystemConfig::table3(cap, p.clone()));
        }
    }
}

#[test]
fn hira_lead_timings_are_validated_against_the_device() {
    // Property: a custom HiRA lead pair builds iff 0 < t1 <= t2 < tRAS.
    // Random pairs on the SoftMC 1.5 ns grid (§4.1 fn. 5) plus sign and
    // overshoot cases.
    use hira::core::config::HiraConfig;
    use hira::core::hira_op::HiraOperation;
    let t_ras = TimingParams::ddr4_2400().t_ras;
    let mut rng = cases(7);
    for case in 0..64 {
        let t1 = 1.5 * rng.next_below(30) as f64 - 4.5; // -4.5 .. 39
        let t2 = 1.5 * rng.next_below(30) as f64 - 4.5;
        let mut c = HiraConfig::hira_n(4);
        c.op = HiraOperation::with_timings(HiraTimings { t1, t2 });
        let result = SystemBuilder::new()
            .policy(policy::hira_custom(format!("hira-case{case}"), c))
            .build();
        if t1 > 0.0 && t1 <= t2 && t2 < t_ras {
            assert!(
                result.is_ok(),
                "case {case}: valid lead ({t1}, {t2}) rejected: {:?}",
                result.unwrap_err()
            );
        } else {
            assert_eq!(
                result.unwrap_err(),
                BuildError::HiraLeadInvalid { t1, t2, t_ras },
                "case {case}: ({t1}, {t2})"
            );
        }
    }
}

#[test]
fn every_registered_device_satisfies_the_timing_invariants() {
    // Registry-wide property: each device's capacity-scaled table must be
    // internally consistent at every capacity — the contract documented
    // on `DeviceModel::timing`.
    let registry = DeviceRegistry::standard();
    assert!(registry.len() >= 4, "need at least four device presets");
    let mut devices: Vec<DeviceHandle> = registry.handles().cloned().collect();
    devices.push(device::ddr4_2400_at(32)); // the dynamic form, too
    for d in &devices {
        for cap in [4.0, 8.0, 32.0, 64.0, 128.0] {
            let t = d.timing(cap);
            let tag = format!("{} at {cap} Gb", d.name());
            assert!(t.t_rc + 1e-9 >= t.t_ras + t.t_rp, "{tag}: tRC < tRAS+tRP");
            assert!(t.t_rfc < t.t_refi, "{tag}: tRFC {} >= tREFI", t.t_rfc);
            assert!(
                t.t_faw + 1e-9 >= 4.0 * t.t_rrd_s,
                "{tag}: tFAW {} < 4*tRRD_S {}",
                t.t_faw,
                4.0 * t.t_rrd_s
            );
            // And the builder accepts the table it produced.
            let cfg = SystemBuilder::new()
                .device(d.clone())
                .chip_gbit(cap)
                .build()
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(cfg.device.name(), d.name());
        }
        // The profile's clock rational is consistent with its frequencies
        // (MemClock::new asserts it) and the geometry divides evenly.
        let p = d.profile();
        let _ = p.clock();
        assert_eq!(p.banks % p.bank_groups, 0, "{}", d.name());
    }
}

#[test]
fn valid_random_configurations_build_and_simulate() {
    // Fuzz the whole builder surface with valid inputs: the result must
    // always construct and pass its own invariants.
    let mut rng = cases(6);
    let registry = PolicyRegistry::standard();
    let names = registry.names();
    for case in 0..24 {
        let banks_pow = rng.next_below(3); // 4, 8, 16
        let banks = 4u16 << banks_pow;
        let groups = 1u16 << rng.next_below(banks_pow + 1);
        let policy_name = names[rng.next_below(names.len() as u64) as usize];
        let insts = 1_000 + rng.next_below(4_000);
        let cfg = SystemBuilder::new()
            .chip_gbit([2.0, 8.0, 32.0, 128.0][rng.next_below(4) as usize])
            .banks(banks, groups)
            .geometry(
                1 + rng.next_below(4) as usize,
                1 + rng.next_below(4) as usize,
            )
            .policy(registry.lookup(policy_name).unwrap())
            .insts(insts, insts / 5)
            .seed(rng.next_u64())
            .build()
            .unwrap_or_else(|e| panic!("case {case}: valid config rejected: {e}"));
        assert!(cfg.banks.is_multiple_of(cfg.bank_groups), "case {case}");
        assert!(cfg.timing.t_rfc < cfg.timing.t_refi, "case {case}");
    }
}

#[test]
fn llc_geometries_the_cache_cannot_build_are_rejected() {
    for (bytes, ways) in [
        (3 << 20, 8),      // 6,144 sets: not a power of two
        (8 << 20, 12),     // 10,922 sets: not a power of two
        (64 * 8 - 1, 8),   // no whole set
        (64 * 17, 17),     // one set of 17 ways: a 5-bit rank beside a 58-bit tag
        (64 * 2 * 33, 33), // two sets of 33 ways: a 6-bit rank beside a 57-bit tag
    ] {
        let err = SystemBuilder::new()
            .llc(bytes, ways)
            .build()
            .expect_err(&format!("{bytes} B at {ways} ways accepted"));
        assert_eq!(err, BuildError::LlcGeometry { bytes, ways });
        let msg = err.to_string();
        assert!(msg.contains(&bytes.to_string()), "{msg}");
    }
}

#[test]
fn llc_geometries_the_cache_can_build_run() {
    // One 3-way set; the largest way counts at one and two sets; the
    // Table 3 8 MB cache and the 256 KB and 16 KB caches of the write-path
    // benchmarks and tests.
    for (bytes, ways) in [
        (192, 3),
        (64 * 16, 16),
        (64 * 2 * 32, 32),
        (8 << 20, 8),
        (256 << 10, 8),
        (16 << 10, 8),
    ] {
        let cfg = SystemBuilder::new()
            .cores(2)
            .workload(hira::workload::rw(50))
            .llc(bytes, ways)
            .insts(2_000, 400)
            .build()
            .unwrap_or_else(|e| panic!("{bytes} B at {ways} ways rejected: {e}"));
        let r = System::new(cfg).run();
        assert!(
            r.ipc.iter().all(|&ipc| ipc > 0.0),
            "{bytes} B at {ways} ways: {:?}",
            r.ipc
        );
    }
}
