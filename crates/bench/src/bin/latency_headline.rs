//! §4.2 headline numbers: two-row refresh latency with and without HiRA.
//!
//! Runs through `hira-engine` and always emits `BENCH_headline.json` (into
//! `HIRA_BENCH_DIR`, or the working directory when unset) so every PR's perf
//! trajectory has a machine-readable baseline.

use hira_core::hira_op::HiraOperation;
use hira_dram::timing::TimingParams;
use hira_engine::{metric, Executor, ScenarioKey, Sweep};

fn main() {
    let mut sweep = Sweep::from_points("headline", hira_engine::DEFAULT_BASE_SEED, Vec::new());
    sweep.push(
        ScenarioKey::root().with("timing", "ddr4_2400"),
        TimingParams::ddr4_2400(),
    );
    let run = Executor::from_env().run(&sweep, |sc| {
        let t = sc.params;
        let op = HiraOperation::nominal();
        vec![
            metric("conventional_two_row_ns", t.two_row_refresh_ns()),
            metric("hira_two_row_ns", op.two_row_refresh_ns(t)),
            metric(
                "latency_reduction_pct",
                op.refresh_latency_reduction(t) * 100.0,
            ),
            metric("access_lead_ns", op.lead_ns()),
            metric("t_rc_ns", t.t_rc),
        ]
    });

    println!("== HiRA headline latencies (DDR4-2400, t1=t2=3 ns) ==");
    println!(
        "conventional two-row refresh : {:>7.2} ns (tRAS+tRP+tRAS)",
        run.value(&[], "conventional_two_row_ns")
    );
    println!(
        "HiRA two-row refresh         : {:>7.2} ns (t1+t2+tRAS)",
        run.value(&[], "hira_two_row_ns")
    );
    println!(
        "latency reduction            : {:>6.1} %  (paper: 51.4 %)",
        run.value(&[], "latency_reduction_pct")
    );
    println!(
        "access after refresh         : {:>7.2} ns lead (paper: as small as 6 ns, vs tRC {:.2})",
        run.value(&[], "access_lead_ns"),
        run.value(&[], "t_rc_ns")
    );
    hira_bench::write_bench(&run);
}
