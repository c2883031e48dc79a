//! The `sweep_service` workload: one closed-loop client against an
//! in-process `serve::Server` over an explicit on-disk store. Set-up fills
//! the store with one cold grid request and reopens it in a fresh server;
//! the measured phase replays a seeded stream of overlapping sub-grid
//! requests (all cache hits) with periodic `stats` and `metrics` ops.

use crate::util::Calibration::{MinOverMin, PairedMedian};
use crate::util::{
    input_seed, median, Checks, MinTimes, Reference, Report, Schedule, Step, Timed, Tracer,
};
use crate::Args;
use hira_bench::serve::{parse_op, Op, Server};
use hira_bench::{alone_ipc, cache_salt, ws_canonical, CacheSpec, Scale};
use hira_dram::rng::Stream as Rng;
use hira_engine::json::{self, Value};
use hira_engine::Executor;
use hira_sim::{System, SystemBuilder};
use hira_store::{SweepPlan, SweepStore};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Instructions per core of every served point.
const INSTS: u64 = 2_000;
const POLICIES: &[&str] = &[
    "noref", "baseline", "refpb", "raidr", "hira0", "hira2", "hira4", "hira8",
];
const WORKLOADS: &[&str] = &[
    "mix0", "mix1", "mix2", "mix3", "stream", "random", "hotspot", "rw50",
];
const CAPS: &[u32] = &[8, 16, 32, 64];
/// Points of the filled grid.
const GRID_POINTS: usize = POLICIES.len() * WORKLOADS.len() * CAPS.len();
/// Sweep requests per pass of the measured stream: at least ten lie
/// beyond the 99th percentile.
const SWEEPS_PER_PASS: usize = 1_200;
/// A `stats` op after every this many sweep requests.
const STATS_EVERY: usize = 50;
/// A `metrics` op after every this many sweep requests.
const METRICS_EVERY: usize = 100;
/// Cold requests per pass sent to a cacheless session whose scratch store
/// a dropped sibling session removed (see README: kept fault).
const FAULT_REQUESTS: u64 = 2;
/// Set-up repetitions per run (see [`Setup`]).
const SETUP_REPS: u64 = 6;
/// Served points re-simulated outside the server.
const RESIM_SAMPLE: usize = 6;

fn scale() -> Scale {
    Scale {
        mixes: 1,
        insts: INSTS,
        warmup: INSTS / 5,
        rows: 48,
    }
}

fn server(dir: Option<&Path>) -> Server {
    let cache = match dir {
        Some(d) => CacheSpec::at(d),
        None => CacheSpec::disabled(),
    };
    Server::new(Executor::with_threads(1), scale(), &cache)
}

fn jlist<T: std::fmt::Display>(items: &[T], quote: bool) -> String {
    let parts: Vec<String> = items
        .iter()
        .map(|s| {
            if quote {
                format!("\"{s}\"")
            } else {
                s.to_string()
            }
        })
        .collect();
    format!("[{}]", parts.join(","))
}

fn sweep_line(id: &str, policies: &[&str], workloads: &[&str], caps: &[u32], insts: u64) -> String {
    format!(
        "{{\"op\":\"sweep\",\"id\":\"{id}\",\"policies\":{},\"workloads\":{},\"caps\":{},\"insts\":{insts}}}",
        jlist(policies, true),
        jlist(workloads, true),
        jlist(caps, false)
    )
}

/// `k` distinct elements of `from`, in `from`'s order.
fn subset<T: Copy>(rng: &mut Rng, from: &[T], k: usize) -> Vec<T> {
    let mut idx: Vec<usize> = (0..from.len()).collect();
    for i in 0..k {
        let j = i + below(rng, from.len() - i);
        idx.swap(i, j);
    }
    let mut pick = idx[..k].to_vec();
    pick.sort_unstable();
    pick.into_iter().map(|i| from[i]).collect()
}

fn below(rng: &mut Rng, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

/// One op of the measured stream.
struct StreamOp {
    line: String,
    kind: Kind,
    points: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sweep,
    Stats,
    Metrics,
}

/// The seeded request stream: overlapping sub-grids of the filled grid,
/// with a `stats` op every [`STATS_EVERY`] and a `metrics` op every
/// [`METRICS_EVERY`] sweeps.
fn stream(seed: u64) -> Vec<StreamOp> {
    let mut rng = Rng::from_words(&[input_seed(seed, "serve-stream")]);
    let mut ops = Vec::new();
    for i in 0..SWEEPS_PER_PASS {
        let np = 1 + below(&mut rng, 3);
        let nw = 1 + below(&mut rng, 3);
        let nc = 1 + below(&mut rng, 2);
        let p = subset(&mut rng, POLICIES, np);
        let w = subset(&mut rng, WORKLOADS, nw);
        let c = subset(&mut rng, CAPS, nc);
        ops.push(StreamOp {
            line: sweep_line(&format!("r{i}"), &p, &w, &c, INSTS),
            kind: Kind::Sweep,
            points: np * nw * nc,
        });
        if (i + 1) % STATS_EVERY == 0 {
            ops.push(StreamOp {
                line: "{\"op\":\"stats\"}".into(),
                kind: Kind::Stats,
                points: 0,
            });
        }
        if (i + 1) % METRICS_EVERY == 0 {
            ops.push(StreamOp {
                line: "{\"op\":\"metrics\"}".into(),
                kind: Kind::Metrics,
                points: 0,
            });
        }
    }
    ops
}

/// Handles one line, collecting its events; returns them with the host
/// time of `Server::handle` in ns.
fn call(server: &mut Server, line: &str, events: &Mutex<Vec<String>>) -> f64 {
    events.lock().expect("events").clear();
    let emit = |l: &str| events.lock().expect("events").push(l.to_owned());
    let t = Instant::now();
    server.handle(line, &emit);
    t.elapsed().as_nanos() as f64
}

fn parsed(events: &Mutex<Vec<String>>) -> Vec<Value> {
    events
        .lock()
        .expect("events")
        .iter()
        .map(|l| json::parse(l).expect("server events are JSON"))
        .collect()
}

fn num(v: &Value, k: &str) -> u64 {
    v.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX)
}

fn event<'a>(evs: &'a [Value], name: &str) -> Option<&'a Value> {
    evs.iter()
        .find(|e| e.get("event").and_then(Value::as_str) == Some(name))
}

/// A record's identity: its key object rendered canonically.
fn record_key(e: &Value) -> String {
    let mut out = String::new();
    if let Some(entries) = e.get("key").and_then(Value::as_obj) {
        let mut pairs: Vec<(String, String)> = entries
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_owned()))
            .collect();
        pairs.sort();
        for (k, v) in pairs {
            out.push_str(&format!("{k}={v};"));
        }
    }
    out
}

/// What the cold fill streamed: the value per key.
struct Fill {
    values: HashMap<String, f64>,
}

fn total_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(args: &Args, report: &mut Report, checks: &mut Checks) -> (u64, u64) {
    let work = PathBuf::from(".perfbench").join(format!("sweep_service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(work.join("tmp")).expect("create work directory");
    // Cacheless servers keep their scratch store under the temp directory;
    // keep it inside the work directory.
    std::env::set_var(
        "TMPDIR",
        std::fs::canonicalize(work.join("tmp")).expect("work dir"),
    );
    let out = run_in(&work, args, report, checks);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench");
    out
}

/// Whether an event line marks a set-up segment boundary.
fn is_boundary(line: &str) -> bool {
    line.starts_with("{\"event\":\"accepted\"") || line.starts_with("{\"event\":\"record\"")
}

/// Set-up: a cold fill of the whole grid into a fresh store, then the store
/// reopened in a fresh server. It runs once before the measured phase and
/// [`SETUP_REPS`]` - 1` more times spread over it; `setup_s` sums the
/// calibrated per-segment times. The alone-IPC memo is process-global, so
/// repetition `r` asks for `r` more instructions per core: every fill
/// misses both the store and the memo, for the cost of a few instructions
/// in 2,400. Repetition 0, at [`INSTS`], builds the session's store.
struct Setup {
    work: PathBuf,
    /// The cold fill, cut at its `accepted` and `record` events: from
    /// `Server::new` to `accepted`, from each event to the next, and from
    /// the last record to the filled server's drop.
    fill: Timed,
    /// `SweepStore::open` plus `Server::new` on the filled store.
    reopen: Timed,
    /// `SweepStore::open` alone.
    open: Timed,
}

impl Setup {
    fn new(work: &Path) -> Self {
        Setup {
            work: work.to_owned(),
            fill: Timed::new(GRID_POINTS + 2, PairedMedian),
            reopen: Timed::new(1, PairedMedian),
            open: Timed::new(1, PairedMedian),
        }
    }

    /// Times set-up repetition `rep`; returns the reopened server, what
    /// its fill streamed and the store directory. Each fill segment is
    /// paired with a reference sample taken at its boundary, outside its
    /// timing: a fresh one when the last is 20 ms old.
    fn repeat(
        &mut self,
        rep: u64,
        tracer: &Tracer,
        reference: &mut Reference,
        checks: &mut Checks,
    ) -> (Server, Fill, PathBuf) {
        let store_dir = self.work.join(format!("store{rep}"));
        let line = sweep_line("fill", POLICIES, WORKLOADS, CAPS, INSTS + rep);
        let reference = Mutex::new(reference);
        let tick = || reference.lock().expect("reference").tick();
        let events = Mutex::new(Vec::new());
        // (start, reference sample) and end of every segment.
        let starts = Mutex::new(Vec::with_capacity(GRID_POINTS + 2));
        let ends = Mutex::new(Vec::with_capacity(GRID_POINTS + 2));
        let emit = |l: &str| {
            if is_boundary(l) {
                ends.lock().expect("ends").push(Instant::now());
                let r = tick();
                starts.lock().expect("starts").push((Instant::now(), r));
            }
            events.lock().expect("events").push(l.to_owned());
        };
        let r = reference.lock().expect("reference").sample();
        starts.lock().expect("starts").push((Instant::now(), r));
        let mut cold = tracer.time("Server::new", rep, || server(Some(&store_dir)));
        tracer.time("Server::handle", rep, || cold.handle(&line, &emit));
        drop(cold);
        ends.lock().expect("ends").push(Instant::now());
        let r = tick();
        let to = Instant::now();
        let reopened = tracer
            .time("SweepStore::open", rep, || SweepStore::open(&store_dir))
            .expect("reopen the filled store");
        let open_ns = to.elapsed().as_nanos() as f64;
        let fresh = tracer.time("Server::new", rep, || server(Some(&store_dir)));
        let reopen_ns = to.elapsed().as_nanos() as f64;
        let starts = starts.into_inner().expect("starts");
        let ends = ends.into_inner().expect("ends");
        checks.check(starts.len() == GRID_POINTS + 2, || {
            format!(
                "cold fill {rep} emitted {} accepted/record events for {GRID_POINTS} points",
                starts.len() - 1
            )
        });
        for (k, ((start, r), end)) in starts.iter().zip(&ends).take(GRID_POINTS + 2).enumerate() {
            self.fill.record(k, (*end - *start).as_nanos() as f64, *r);
        }
        self.reopen.record(0, reopen_ns, r);
        self.open.record(0, open_ns, r);
        checks.check(reopened.len() == GRID_POINTS, || {
            format!(
                "reopened store holds {} of {GRID_POINTS} points",
                reopened.len()
            )
        });
        let evs = parsed(&events);
        let done = event(&evs, "done");
        checks.check(
            done.is_some_and(|d| {
                num(d, "points") == GRID_POINTS as u64
                    && num(d, "misses") == GRID_POINTS as u64
                    && num(d, "appended") == GRID_POINTS as u64
            }),
            || format!("cold fill {rep} did not simulate and append every point"),
        );
        let mut fill = Fill {
            values: HashMap::new(),
        };
        for e in evs
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some("record"))
        {
            fill.values.insert(
                record_key(e),
                e.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
            );
        }
        checks.check(fill.values.len() == GRID_POINTS, || {
            format!(
                "cold fill {rep} streamed {} of {GRID_POINTS} points",
                fill.values.len()
            )
        });
        (fresh, fill, store_dir)
    }
}

fn run_in(work: &Path, args: &Args, report: &mut Report, checks: &mut Checks) -> (u64, u64) {
    let tracer = Tracer::new(args.trace);
    let mut reference = Reference::new();
    let mut setup = Setup::new(work);
    let (mut session, fill, store_dir) = setup.repeat(0, &tracer, &mut reference, checks);
    let fill = &fill;
    let ops = stream(args.seed);
    for s in &sample(args.seed) {
        resimulate(s, fill, checks);
    }
    let rates = rate_set();
    let st = Stream {
        ops: &ops,
        fill,
        rate_set: &rates,
    };
    let mut client = Client::default();
    let untraced = Tracer::new(false);
    let tracers: Vec<&Tracer> = if args.trace {
        vec![&untraced, &tracer]
    } else {
        vec![&tracer]
    };
    let mut series = measure(
        &mut session,
        &st,
        args.seconds,
        &tracers,
        &mut reference,
        &mut setup,
        &mut client,
        checks,
    );
    let traced = args.trace.then(|| series.pop().expect("traced series"));
    let plain = series.pop().expect("untraced series");
    let passes = plain.passes + traced.as_ref().map_or(0, |t| t.passes);
    let attempted = passes * (ops.len() as u64 + FAULT_REQUESTS);
    let failed = client.failed;

    // Read before the report's own allocations.
    let peak_heap_mb = crate::util::peak_heap_mb();
    match traced {
        None => {
            report.put(
                "setup_s",
                (setup.fill.sum() + setup.reopen.sum()) / 1e9,
                "s",
            );
            report.put("wall_s", plain.times.sum() / 1e9, "s");
            // Simulation rate of served configurations, from the rate set
            // re-simulated one point per pass (calibrated per point; a point
            // not yet re-simulated does not count).
            let (mut insts, mut ns) = (0.0, 0.0);
            for (i, s) in rates.iter().enumerate() {
                let t = plain.resim.calibrated(i);
                if t > 0.0 {
                    insts +=
                        (s.cfg.cores as u64 * (s.cfg.insts_per_core + s.cfg.warmup_insts)) as f64;
                    ns += t;
                }
            }
            eprintln!(
                "uncalibrated: setup {:.4} s, wall {:.4} s; reference slowdown {:.3}",
                (setup.fill.raw_sum() + setup.reopen.raw_sum()) / 1e9,
                plain.times.raw_sum() / 1e9,
                plain.times.slowdown()
            );
            report.put("sim_minst_per_s", insts / 1e6 / (ns / 1e9), "Minst/s");
            report.put("op_ms_p50", plain.times.quantile(0.5) / 1e6, "ms");
            report.put("op_ms_p99", plain.times.quantile(0.99) / 1e6, "ms");
            report.put("peak_heap_mb", peak_heap_mb, "MB");
        }
        Some(t) => {
            let store = tracer
                .time("SweepStore::open", 0, || SweepStore::open(&store_dir))
                .expect("reopen store");
            report.put("store.points", store.len() as f64, "count");
            report.put("store.bytes", total_bytes(&store_dir) as f64, "bytes");
            report.put("store.open_ms", setup.open.sum() / 1e6, "ms");
            layer_calls(&ops, &store, &tracer, report);
            let sweep_points: usize = ops.iter().map(|o| o.points).sum();
            let all = t.times.all();
            let handle_ns: f64 = ops
                .iter()
                .zip(&all)
                .filter(|(o, _)| o.kind == Kind::Sweep)
                .map(|(_, v)| v)
                .sum();
            report.put(
                "store.hit_frac",
                client.hits as f64 / client.points as f64,
                "ratio",
            );
            report.put("serve.requests", ops.len() as f64, "count");
            report.put("serve.records", (client.records / passes) as f64, "count");
            report.put(
                "serve.bytes_out",
                (client.bytes_out / passes) as f64,
                "bytes",
            );
            report.put(
                "serve.handle_us_per_point",
                handle_ns / sweep_points as f64 / 1e3,
                "us",
            );
            let render: Vec<f64> = ops
                .iter()
                .zip(&all)
                .filter(|(o, _)| o.kind == Kind::Metrics)
                .map(|(_, v)| *v)
                .collect();
            report.put("obs.metrics_render_ms", median(&render) / 1e6, "ms");
            report.put(
                "obs.trace_overhead_frac",
                t.times.sum() / plain.times.sum(),
                "ratio",
            );
            report.put("host.ref_slowdown", t.times.slowdown(), "ratio");
            crate::print_self_times(&tracer);
        }
    }
    (attempted, failed)
}

/// Client-side accounting across the whole measured phase.
#[derive(Default)]
struct Client {
    sweeps: u64,
    points: u64,
    hits: u64,
    records: u64,
    bytes_out: u64,
    failed: u64,
}

struct Measured {
    times: Timed,
    resim: Timed,
    passes: u64,
}

/// What every pass replays and checks against.
struct Stream<'a> {
    ops: &'a [StreamOp],
    fill: &'a Fill,
    rate_set: &'a [Sample],
}

/// Runs the measured phase for `seconds` (see [`Schedule`]): passes over
/// the stream, one series per tracer, with the set-up repetitions in
/// between; per-op minimum host time of `Server::handle` for each series.
/// Each pass also runs the kept-fault round and re-simulates one point of
/// the rate set.
#[allow(clippy::too_many_arguments)]
fn measure(
    session: &mut Server,
    st: &Stream<'_>,
    seconds: f64,
    tracers: &[&Tracer],
    reference: &mut Reference,
    setup: &mut Setup,
    client: &mut Client,
    checks: &mut Checks,
) -> Vec<Measured> {
    let events = Mutex::new(Vec::with_capacity(64));
    let mut series: Vec<Measured> = tracers
        .iter()
        .map(|_| Measured {
            times: Timed::new(st.ops.len(), MinOverMin),
            resim: Timed::new(st.rate_set.len(), PairedMedian),
            passes: 0,
        })
        .collect();
    for step in Schedule::new(tracers.len(), seconds, SETUP_REPS) {
        let (pass, k) = match step {
            Step::Setup(rep) => {
                setup.repeat(rep, tracers[tracers.len() - 1], reference, checks);
                continue;
            }
            Step::Pass(pass, k) => (pass, k),
        };
        let tracer = tracers[k];
        let m = &mut series[k];
        for (i, op) in st.ops.iter().enumerate() {
            let r = reference.tick();
            let ns = {
                let _s = tracer.span("Server::handle", i as u64);
                call(session, &op.line, &events)
            };
            m.times.record(i, ns, r);
            check_reply(op, &events, st.fill, client, checks);
        }
        fault_round(&events, client, checks);
        let j = (pass / tracers.len() as u64) as usize % st.rate_set.len();
        let r = reference.sample();
        m.resim
            .record(j, resimulate(&st.rate_set[j], st.fill, checks), r);
        m.passes += 1;
    }
    series
}

fn check_reply(
    op: &StreamOp,
    events: &Mutex<Vec<String>>,
    fill: &Fill,
    client: &mut Client,
    checks: &mut Checks,
) {
    client.bytes_out += events
        .lock()
        .expect("events")
        .iter()
        .map(|l| l.len() as u64 + 1)
        .sum::<u64>();
    let evs = parsed(events);
    match op.kind {
        Kind::Sweep => {
            client.sweeps += 1;
            let done = event(&evs, "done");
            let ok = done.is_some_and(|d| {
                num(d, "points") == op.points as u64
                    && num(d, "hits") == op.points as u64
                    && num(d, "misses") == 0
                    && num(d, "appended") == 0
            });
            checks.check(ok, || format!("warm request {} was not all hits", op.line));
            client.points += op.points as u64;
            client.hits += done.map_or(0, |d| num(d, "hits"));
            for e in evs
                .iter()
                .filter(|e| e.get("event").and_then(Value::as_str) == Some("record"))
            {
                client.records += 1;
                let k = record_key(e);
                let v = e.get("value").and_then(Value::as_f64);
                let cached = e.get("cached").and_then(|c| match c {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                });
                checks.check(
                    cached == Some(true) && v.is_some_and(|v| fill.values.get(&k) == Some(&v)),
                    || format!("replayed {k} = {v:?} differs from the cold fill"),
                );
            }
        }
        Kind::Stats => {
            // The session only ever sees warm requests.
            let ok = event(&evs, "stats").is_some_and(|s| {
                num(s, "points") == num(s, "hits") + num(s, "misses")
                    && num(s, "misses") == 0
                    && num(s, "appended") == 0
                    && num(s, "sweeps") == client.sweeps
                    && num(s, "points") == client.points
                    && num(s, "points_streamed") == client.records
            });
            checks.check(ok, || "stats totals do not add up".to_owned());
        }
        Kind::Metrics => {
            let text = event(&evs, "metrics")
                .and_then(|m| m.get("text"))
                .and_then(Value::as_str)
                .unwrap_or("");
            match hira_obs::parse_prometheus(text) {
                Ok(samples) => {
                    let streamed = samples
                        .iter()
                        .find(|s| s.name == "hira_serve_points_streamed_total")
                        .map(|s| s.value);
                    checks.check(streamed == Some(client.records as f64), || {
                        format!(
                            "metrics: points streamed {streamed:?}, client counted {}",
                            client.records
                        )
                    });
                }
                Err(e) => checks.check(false, || format!("metrics text does not parse: {e}")),
            }
        }
    }
}

/// The kept fault: two cacheless sessions share one scratch store
/// directory, and dropping the first removes it, so every cold request to
/// the second fails to persist its result. Counted as failed operations
/// while the fault stands.
fn fault_round(events: &Mutex<Vec<String>>, client: &mut Client, checks: &mut Checks) {
    let sibling = server(None);
    let mut orphan = server(None);
    drop(sibling);
    for k in 0..FAULT_REQUESTS {
        let line = format!(
            "{{\"op\":\"sweep\",\"id\":\"f{k}\",\"policies\":[\"baseline\"],\"workloads\":[\"mix0\"],\"insts\":1000}}"
        );
        call(&mut orphan, &line, events);
        let evs = parsed(events);
        let last = evs.last();
        let failed = last.is_some_and(|e| e.get("event").and_then(Value::as_str) == Some("error"));
        let done = last.is_some_and(|e| e.get("event").and_then(Value::as_str) == Some("done"));
        checks.check(failed || done, || {
            format!("cold request to a cacheless session ended without done or error: {line}")
        });
        if failed {
            client.failed += 1;
        }
    }
}

/// A served point re-simulated outside the server.
struct Sample {
    key: String,
    cfg: hira_sim::SystemConfig,
}

/// One point of the filled grid, built the way a sweep request builds it.
fn served_point(p: &str, w: &str, c: u32) -> Sample {
    let cfg = SystemBuilder::new()
        .policy_name(p)
        .workload_name(w)
        .insts(INSTS, INSTS / 5)
        .chip_gbit(f64::from(c))
        .build()
        .expect("served configuration builds");
    Sample {
        key: format!("cap={c};policy={p};wl={w};"),
        cfg,
    }
}

/// A seeded sample of the filled grid, checked once before the measured
/// phase.
fn sample(seed: u64) -> Vec<Sample> {
    let mut rng = Rng::from_words(&[input_seed(seed, "serve-resim")]);
    (0..RESIM_SAMPLE)
        .map(|_| {
            let p = POLICIES[below(&mut rng, POLICIES.len())];
            let w = WORKLOADS[below(&mut rng, WORKLOADS.len())];
            let c = CAPS[below(&mut rng, CAPS.len())];
            served_point(p, w, c)
        })
        .collect()
}

/// Every policy on `mix0` at 8 Gb: re-simulated one point per pass for
/// `sim_minst_per_s`. Fixed, so the rate does not depend on the seed.
fn rate_set() -> Vec<Sample> {
    POLICIES
        .iter()
        .map(|p| served_point(p, "mix0", 8))
        .collect()
}

/// Re-simulates one sampled point — `System::run` plus `alone_ipc` — and
/// compares with the ws the cold fill streamed; returns the host ns.
fn resimulate(s: &Sample, fill: &Fill, checks: &mut Checks) -> f64 {
    let t = Instant::now();
    let r = System::new(s.cfg.clone()).run();
    let alone: Vec<f64> = r
        .workloads
        .iter()
        .map(|n| alone_ipc(n, &s.cfg.device, s.cfg.channels, s.cfg.ranks, scale()))
        .collect();
    let ws = r.weighted_speedup(&alone);
    let ns = t.elapsed().as_nanos() as f64;
    let served = fill.values.get(&s.key).copied();
    checks.check(served == Some(ws), || {
        format!("re-simulated {} gives ws {ws}, served {served:?}", s.key)
    });
    ns
}

/// The layer calls behind one request, made standalone on every sweep
/// line of the stream (best of two rounds): `parse_op`, `SweepSpec::build`,
/// `cache_salt` and `SweepPlan::compute` against the reopened store.
fn layer_calls(ops: &[StreamOp], store: &SweepStore, tracer: &Tracer, r: &mut Report) {
    let sweeps: Vec<&StreamOp> = ops.iter().filter(|o| o.kind == Kind::Sweep).collect();
    let n = sweeps.len();
    let mut parse = MinTimes::new(n);
    let mut build = MinTimes::new(n);
    let mut salt = MinTimes::new(n);
    let mut plan = MinTimes::new(n);
    let mut points = 0usize;
    for round in 0..2 {
        for (i, op) in sweeps.iter().enumerate() {
            let id = i as u64;
            let t = Instant::now();
            let parsed = tracer.time("serve::parse_op", id, || parse_op(&op.line));
            parse.record(i, t.elapsed().as_nanos() as f64);
            let Ok(Op::Sweep(spec)) = parsed else {
                panic!("stream line does not parse as a sweep: {}", op.line)
            };
            let t = Instant::now();
            let (sweep, _) = tracer
                .time("SweepSpec::build", id, || spec.build(scale()))
                .expect("stream sub-grid builds");
            build.record(i, t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            let s = tracer.time("cache_salt", id, cache_salt);
            salt.record(i, t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            let p = tracer.time("SweepPlan::compute", id, || {
                SweepPlan::compute(store, &sweep, s, |sc| ws_canonical("ws", sc.params))
            });
            plan.record(i, t.elapsed().as_nanos() as f64);
            if round == 0 {
                points += p.len();
            }
        }
    }
    r.put("serve.parse_us", parse.sum() / n as f64 / 1e3, "us");
    r.put(
        "serve.grid_build_us_per_point",
        build.sum() / points as f64 / 1e3,
        "us",
    );
    r.put("store.salt_us", salt.sum() / n as f64 / 1e3, "us");
    r.put(
        "store.plan_us_per_point",
        plan.sum() / points as f64 / 1e3,
        "us",
    );
}
