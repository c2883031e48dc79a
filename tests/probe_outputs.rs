//! Built-in probe output validation: the command-trace files round-trip
//! through the strict [`hira::sim::probe::parse_cmdtrace`] parser and
//! agree — command by command — with the controller's own counters, and
//! the parser survives mutated traces; the epoch JSONL matches the
//! in-memory collector; the latency file exports the always-on
//! histograms; the ACT-exposure map accounts for every activation, its
//! file lists the collector's hottest rows, and its neighbor (victim-row)
//! counts agree with the OracleRh defense's tracker; and the run
//! telemetry distinguishes the two kernels. The bit-identity of probed vs
//! bare runs is asserted separately in `tests/kernel_equivalence.rs`.

use hira::dram::rng::Stream;
use hira::prelude::*;
use hira::sim::probe::{CmdTraceProbe, CmdTraceRecord, RowAddr, ACT_EXPOSURE_TOP};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

fn out_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hira-probe-outputs-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small(policy: PolicyHandle) -> SystemBuilder {
    SystemBuilder::new().policy(policy).insts(2_000, 400)
}

#[test]
fn cmdtrace_round_trips_and_matches_the_command_counters() {
    let dir = out_dir("cmdtrace");
    let prefix = dir.join("baseline");
    // A small LLC, so dirty evictions put `WR` commands in the trace too.
    let cfg = small(policy::baseline())
        .llc(16 << 10, 8)
        .probe(probe::probe(&format!("cmdtrace:{}", prefix.display())))
        .build()
        .unwrap();
    let r = System::new(cfg).run();

    let mut acts = 0u64;
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut refs = 0u64;
    let mut pres = 0u64;
    for (ch, stats) in r.channel_stats.iter().enumerate() {
        let path = CmdTraceProbe::channel_path(&prefix, ch);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing trace {}: {e}", path.display()));
        let records = probe::parse_cmdtrace(&text).expect("trace must satisfy its own parser");
        assert!(!records.is_empty(), "channel {ch} trace is empty");
        for rec in &records {
            match rec.cmd {
                DramCmd::Act => {
                    acts += 1;
                    assert!(rec.bank.is_some() && rec.row.is_some());
                }
                DramCmd::Rd => reads += 1,
                DramCmd::Wr => writes += 1,
                DramCmd::Ref => refs += 1,
                DramCmd::Pre | DramCmd::PreA => pres += 1,
                DramCmd::RefPb => {}
            }
        }
        assert!(stats.reads_done > 0);
    }
    let expect_acts: u64 = r
        .channel_stats
        .iter()
        .map(|s| s.demand_acts + s.refresh_acts)
        .sum();
    let expect_refs: u64 = r.channel_stats.iter().map(|s| s.ref_commands).sum();
    let expect_writes: u64 = r.channel_stats.iter().map(|s| s.writes_done).sum();
    assert_eq!(acts, expect_acts, "every ACT must appear in the trace");
    assert_eq!(reads, r.total_reads(), "every RD must appear in the trace");
    assert!(expect_writes > 0, "the run issued no writes");
    assert_eq!(writes, expect_writes, "every WR must appear in the trace");
    assert_eq!(refs, expect_refs, "every REF must appear in the trace");
    assert!(pres > 0, "precharges must be traced");
    std::fs::remove_dir_all(&dir).ok();
}

/// A valid trace of up to 16 random commands, rendered as the probe
/// writes it.
fn random_trace(rng: &mut Stream) -> String {
    let cmds = [
        DramCmd::Act,
        DramCmd::Pre,
        DramCmd::PreA,
        DramCmd::Rd,
        DramCmd::Wr,
        DramCmd::Ref,
        DramCmd::RefPb,
    ];
    let mut text = String::new();
    for _ in 0..rng.next_below(17) {
        let cmd = cmds[rng.next_below(cmds.len() as u64) as usize];
        let rank_wide = matches!(cmd, DramCmd::PreA | DramCmd::Ref);
        let rec = CmdTraceRecord {
            at: rng.next_u64() >> rng.next_below(64),
            cmd,
            rank: rng.next_below(4) as usize,
            bank: (!rank_wide).then(|| rng.next_below(1 << 16) as u16),
            row: (cmd == DramCmd::Act).then(|| rng.next_u64() as u32),
        };
        text.push_str(&format!("{rec}\n"));
    }
    text
}

/// One random corruption of `text`: a truncation, a flipped byte, a
/// dropped or extra field, or a number replaced by an out-of-range or
/// oddly spelled one.
fn mutate(rng: &mut Stream, text: &str) -> String {
    const ODD: [&str; 9] = [
        "18446744073709551616", // u64::MAX + 1
        "4294967296",           // u32::MAX + 1
        "65536",                // u16::MAX + 1
        "-1",
        "+12",
        "0012",
        "",
        " 7",
        "99999999999999999999999999",
    ];
    let pick = |rng: &mut Stream, n: usize| rng.next_below(n.max(1) as u64) as usize;
    let kind = rng.next_below(5);
    if kind < 2 {
        let mut bytes = text.as_bytes().to_vec();
        if kind == 0 {
            bytes.truncate(pick(rng, bytes.len()));
        } else if !bytes.is_empty() {
            let i = pick(rng, bytes.len());
            bytes[i] ^= 1 + rng.next_below(255) as u8;
        }
        return String::from_utf8_lossy(&bytes).into_owned();
    }
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split(',').map(str::to_owned).collect())
        .collect();
    let n = lines.len();
    if let Some(line) = lines.get_mut(pick(rng, n)) {
        let field = pick(rng, line.len());
        match kind {
            2 => drop(line.remove(field)),
            3 => line.insert(pick(rng, line.len() + 1), rng.next_below(100).to_string()),
            _ => line[field] = ODD[pick(rng, ODD.len())].to_owned(),
        }
    }
    lines.iter().map(|l| l.join(",") + "\n").collect()
}

#[test]
fn parse_cmdtrace_never_panics_and_its_records_render_back() {
    let mut rng = Stream::from_words(&[0xC0D7_2ACE]);
    let (mut ok, mut err) = (0, 0);
    for _ in 0..4_000 {
        let mut text = random_trace(&mut rng);
        for _ in 0..=rng.next_below(3) {
            text = mutate(&mut rng, &text);
        }
        let parsed = std::panic::catch_unwind(|| probe::parse_cmdtrace(&text))
            .unwrap_or_else(|_| panic!("parse_cmdtrace panicked on {text:?}"));
        let Ok(records) = parsed else {
            err += 1;
            continue;
        };
        ok += 1;
        // `+12` and `0012` parse but render as `12`: compare records.
        let rendered: String = records.iter().map(|r| format!("{r}\n")).collect();
        assert_eq!(
            probe::parse_cmdtrace(&rendered).as_ref(),
            Ok(&records),
            "{text:?} rendered as {rendered:?}"
        );
    }
    assert!(ok > 100 && err > 100, "{ok} parsed, {err} rejected");
}

#[test]
fn epoch_jsonl_matches_the_in_memory_collector() {
    let dir = out_dir("epochs");
    let path = dir.join("epochs.jsonl");
    let (collector, sink) = epoch_collector(4_096);
    let jsonl = probe::probe(&format!("epochs:4096:{}", path.display()));
    let cfg = small(policy::baseline())
        .probe(ProbeHandle::multi(vec![jsonl, collector]))
        .build()
        .unwrap();
    System::new(cfg).run();

    let samples = sink.lock().unwrap().clone();
    assert!(samples.len() >= 2, "run too short for the epoch sampler");
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), samples.len());
    for (line, sample) in lines.iter().zip(&samples) {
        assert_eq!(*line, probe::epoch_jsonl_line(sample));
        // Sanity on the schema: parseable numbers in the documented keys.
        assert!(line.starts_with("{\"epoch\":"));
        assert!(line.contains("\"refresh_occupancy\":"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn latency_file_exports_the_builtin_histograms() {
    let dir = out_dir("latency");
    let path = dir.join("lat.jsonl");
    // A small LLC, so the write line carries samples too.
    let cfg = small(policy::baseline())
        .llc(16 << 10, 8)
        .probe(probe::probe(&format!("latency:{}", path.display())))
        .build()
        .unwrap();
    let r = System::new(cfg).run();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let kinds = [
        ("read", r.read_latency_histogram()),
        ("write", r.write_latency_histogram()),
    ];
    assert_eq!(lines.len(), kinds.len());
    for (line, (kind, h)) in lines.iter().zip(kinds) {
        assert!(h.count() > 0, "no {kind} latencies recorded");
        let q = |p| h.quantile(p).map_or("null".to_owned(), |v| v.to_string());
        let buckets = h.buckets.map(|n| n.to_string()).join(",");
        let expect = format!(
            "{{\"kind\":\"{kind}\",\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
             \"p999\":{},\"buckets\":[{buckets}]}}",
            h.count(),
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999)
        );
        assert_eq!(*line, expect);
    }
    // The quantiles surfaced in the matrix tables come from the same
    // histograms, so they agree by construction — spot-check the API.
    assert_eq!(
        r.read_latency_quantile(0.5),
        r.read_latency_histogram().quantile(0.5)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn act_exposure_accounts_for_every_activation() {
    let (handle, sink) = probe::act_exposure_collector();
    let cfg = small(policy::baseline()).probe(handle).build().unwrap();
    let r = System::new(cfg).run();
    let map = sink.lock().unwrap().clone();
    let total: u64 = map.values().sum();
    let expect: u64 = r
        .channel_stats
        .iter()
        .map(|s| s.demand_acts + s.refresh_acts)
        .sum();
    assert_eq!(total, expect, "every ACT must land on exactly one row");
    for addr in map.keys() {
        assert!(addr.channel < r.channel_stats.len());
    }
}

#[test]
fn act_exposure_file_lists_the_collectors_hottest_rows() {
    let dir = out_dir("act-exposure");
    let path = dir.join("acts.jsonl");
    let (collector, sink) = probe::act_exposure_collector();
    let file = probe::probe(&format!("act-exposure:{}", path.display()));
    let cfg = small(policy::hira(4))
        .probe(ProbeHandle::multi(vec![file, collector]))
        .build()
        .unwrap();
    System::new(cfg).run();

    let acts = sink.lock().unwrap().clone();
    assert!(
        acts.len() > ACT_EXPOSURE_TOP,
        "only {} rows activated: the top-row cut is untested",
        acts.len()
    );
    // Hottest first, ties broken by address.
    let mut rows: Vec<(RowAddr, u64)> = acts.iter().map(|(&a, &n)| (a, n)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let expect: Vec<String> = rows
        .iter()
        .take(ACT_EXPOSURE_TOP)
        .map(|&(a, n)| {
            format!(
                "{{\"channel\":{},\"rank\":{},\"bank\":{},\"row\":{},\"acts\":{n},\
                 \"neighbor_acts\":{}}}",
                a.channel,
                a.rank,
                a.bank,
                a.row,
                probe::neighbor_acts(&acts, a)
            )
        })
        .collect();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().collect::<Vec<_>>(), expect);
    std::fs::remove_dir_all(&dir).ok();
}

/// [`probe::neighbor_acts`] summed over every row adjacent to an
/// activated one, each row once.
fn neighbor_total(acts: &HashMap<RowAddr, u64>) -> u64 {
    let victims: HashSet<RowAddr> = acts
        .keys()
        .flat_map(|a| {
            [a.row.checked_sub(1), a.row.checked_add(1)]
                .into_iter()
                .flatten()
                .map(move |row| RowAddr { row, ..*a })
        })
        .collect();
    victims
        .into_iter()
        .map(|v| probe::neighbor_acts(acts, v))
        .sum()
}

#[test]
fn act_exposure_neighbor_probe_agrees_with_the_oracle_plugin() {
    // The same ACT stream through two independent observers: the
    // read-only ACT-counting probe and the OracleRh defense's per-row
    // exposure tracker. Direct and victim-row accounting must agree
    // exactly — including over the defense's own injected refreshes,
    // which execute as real activations and are re-observed by both
    // sides.
    let run = |t_rh: u64| {
        let (handle, sink) = probe::act_exposure_collector();
        let cfg = small(policy::baseline())
            .workload_name("hotspot")
            .plugin(plugin::oracle(t_rh))
            .probe(handle)
            .build()
            .unwrap();
        let r = System::new(cfg).run();
        let acts = sink.lock().unwrap();
        (r, acts.values().sum::<u64>(), neighbor_total(&acts))
    };
    // Quiet threshold: the plugin only watches.
    let (r, acts, neighbors) = run(1 << 40);
    let totals = r.plugin_totals();
    assert_eq!(totals.injected, 0, "nothing may fire at a quiet threshold");
    assert!(acts > 0);
    assert_eq!(acts, totals.acts_observed, "probe vs plugin ACT counts");
    assert_eq!(
        neighbors, totals.neighbor_increments,
        "probe vs plugin victim-row counts"
    );
    // Firing threshold: the stream now contains the plugin's own
    // preventive refreshes and the two accountings must still agree.
    let (r, acts, neighbors) = run(2);
    let totals = r.plugin_totals();
    assert!(
        totals.injected > 0,
        "the defended stream must include injections"
    );
    assert_eq!(acts, totals.acts_observed, "probe vs plugin ACT counts");
    assert_eq!(
        neighbors, totals.neighbor_increments,
        "probe vs plugin victim-row counts"
    );
}

#[test]
fn run_telemetry_separates_the_kernels() {
    let run = |kernel| {
        let cfg = small(policy::baseline()).kernel(kernel).build().unwrap();
        System::new(cfg).run_telemetered()
    };
    let (dense_r, dense_t) = run(KernelMode::Dense);
    let (event_r, event_t) = run(KernelMode::Event);
    assert_eq!(dense_r, event_r);
    // The dense kernel processes every CPU cycle; the event kernel skips
    // the uninteresting ones — that gap is the whole point of the
    // telemetry's `events` counter.
    assert_eq!(dense_t.events, dense_r.cycles);
    assert!(
        event_t.events < dense_t.events,
        "event kernel processed {} events, dense {}",
        event_t.events,
        dense_t.events
    );
    // Queue evolution is identical, so the high-water mark is too.
    assert_eq!(dense_t.peak_queue, event_t.peak_queue);
    assert!(dense_t.peak_queue > 0);
}

#[test]
fn captured_traces_replay_under_probes() {
    // The workload `.trace` tooling and the probe layer compose: capture a
    // generator's access stream, replay it through the `trace:` frontend
    // with the full probe kit attached, and the replay is bit-identical to
    // the unprobed replay.
    let dir = out_dir("trace-replay");
    let trace_path = dir.join("captured.trace");
    let mut wl = hira::workload::stream().build(&WorkloadEnv {
        core: 0,
        cores: 1,
        seed: 7,
    });
    Trace::capture(wl.as_mut(), 256).save(&trace_path).unwrap();
    // Round-trip through the .trace parser before simulating with it.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    assert_eq!(Trace::parse(&text).unwrap().records().len(), 256);

    let spec = format!("trace:{}", trace_path.display());
    let build = |probe_handle: Option<ProbeHandle>| {
        let mut b = SystemBuilder::new()
            .cores(1)
            .policy(policy::baseline())
            .workload_name(&spec)
            .insts(1_000, 200);
        if let Some(p) = probe_handle {
            b = b.probe(p);
        }
        System::new(b.build().unwrap()).run()
    };
    let bare = build(None);
    let probed = build(Some(ProbeHandle::multi(vec![
        probe::probe(&format!("latency:{}", dir.join("lat.jsonl").display())),
        probe::probe(&format!("cmdtrace:{}", dir.join("replay").display())),
    ])));
    assert_eq!(bare, probed);
    let trace0 = CmdTraceProbe::channel_path(&dir.join("replay"), 0);
    let recs = probe::parse_cmdtrace(&std::fs::read_to_string(trace0).unwrap()).unwrap();
    assert!(!recs.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
