//! Repository benchmark for the HiRA reproduction.
//!
//! ```text
//! perfbench --workload <periodic_refresh|defense_writeback|sweep_service>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets up the workload, measures it for `--seconds`, checks the outputs
//! and prints one JSON result line last: end-to-end metrics with
//! `--trace 0`, per-layer metrics (plus the span self-time table above
//! the result) with `--trace 1`. Exits non-zero when the outputs are
//! wrong. See README.md for the workloads, the metrics and the way host
//! time is made to repeat on a drifting host.

mod service;
mod sim;
mod util;

use util::{Checks, Report, Tracer};

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Every per-layer metric with its unit. A traced run reports all of
/// them; a layer the workload does not drive reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("system.events", "count"),
    ("system.events_per_kcycle", "1/kcycle"),
    ("system.ns_per_event", "ns"),
    ("system.build_ms", "ms"),
    ("system.dense_over_event", "ratio"),
    ("workload.ns_per_access", "ns"),
    ("plugin.acts_observed", "count"),
    ("plugin.injected", "count"),
    ("plugin.extra_events", "count"),
    ("plugin.host_ns_per_act", "ns"),
    ("controller.reads", "count"),
    ("controller.writes", "count"),
    ("controller.row_hit_rate", "ratio"),
    ("controller.read_latency_cycles", "cycles"),
    ("controller.write_latency_cycles", "cycles"),
    ("controller.refresh_busy_frac", "ratio"),
    ("controller.peak_queue", "count"),
    ("policy.rank_refs", "count"),
    ("policy.bank_refs", "count"),
    ("policy.rows_refreshed", "count"),
    ("hira_core.hidden_frac", "ratio"),
    ("hira_core.max_lateness_ns", "ns"),
    ("metrics.ws_mean", "ws"),
    ("metrics.insts", "count"),
    ("engine.points", "count"),
    ("engine.overhead_ms", "ms"),
    ("bench.alone_runs", "count"),
    ("bench.alone_s", "s"),
    ("store.points", "count"),
    ("store.bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.plan_us_per_point", "us"),
    ("store.salt_us", "us"),
    ("store.hit_frac", "ratio"),
    ("serve.requests", "count"),
    ("serve.records", "count"),
    ("serve.bytes_out", "bytes"),
    ("serve.parse_us", "us"),
    ("serve.grid_build_us_per_point", "us"),
    ("serve.handle_us_per_point", "us"),
    ("obs.metrics_render_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
    ("host.ref_slowdown", "ratio"),
];

/// The process's peak resident set (`VmHWM`), as the kernel reports it.
fn peak_rss() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    Some(line["VmHWM:".len()..].trim().to_owned())
}

/// Prints the per-span-name self-time table of a traced run.
pub fn print_self_times(tracer: &Tracer) {
    let lines = tracer.lines();
    println!(
        "-- spans: {} recorded; self time by layer call --",
        lines.len()
    );
    println!(
        "{:<28} {:>9} {:>13} {:>13}",
        "span", "calls", "incl_ms", "self_ms"
    );
    for (name, calls, incl, own) in util::self_times(&lines) {
        println!(
            "{name:<28} {calls:>9} {:>13.3} {:>13.3}",
            incl / 1e6,
            own / 1e6
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let mut checks = Checks::default();
    let (attempted, failed) = match args.workload.as_str() {
        "periodic_refresh" => sim::run(sim::Grid::PeriodicRefresh, &args, &mut report, &mut checks),
        "defense_writeback" => {
            sim::run(sim::Grid::DefenseWriteback, &args, &mut report, &mut checks)
        }
        "sweep_service" => service::run(&args, &mut report, &mut checks),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            report.fill(name, unit);
        }
        for policy in hira_sim::PolicyRegistry::standard().names() {
            report.fill(&format!("system.events_per_kcycle.{policy}"), "1/kcycle");
        }
    }
    for f in &checks.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    eprintln!(
        "perfbench: {} checks passed, {} failed",
        checks.passed,
        checks.failures.len()
    );
    eprintln!(
        "perfbench: peak RSS {} vs counted peak heap {:.3} MB",
        peak_rss().unwrap_or_else(|| "unknown".into()),
        util::peak_heap_mb()
    );
    let correct = checks.failures.is_empty();
    println!("{}", report.json(correct, attempted, failed));
    if !correct {
        std::process::exit(1);
    }
}
