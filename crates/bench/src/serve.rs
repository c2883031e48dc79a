//! The `hira serve` engine: a long-running sweep service over line-delimited
//! JSON, backed by the content-addressed sweep cache.
//!
//! The `serve` binary is a thin I/O wrapper (stdin/stdout or a Unix
//! socket) around [`Server`], which this module keeps transport-free so
//! the whole protocol is unit-testable: one request line in, a stream of
//! event lines out through an `emit` callback.
//!
//! ## Wire protocol
//!
//! Requests (client → server), one JSON object per line:
//!
//! * `{"op":"sweep","id":"a","task":"ws","policies":["baseline","hira4"],
//!   "workloads":["mix0"],"devices":["ddr4-2400"],"caps":[8],"insts":2000}`
//!   — run a grid sweep. `id` is the client's correlation token (echoed on
//!   every event). `task` is `"ws"` (weighted speedup, default) or
//!   `"ws+stats"` (plus the channel metrics). `policies` / `workloads`
//!   default to `["baseline"]` / `["mix0"]`; `devices`, `caps` and
//!   `plugins` are optional axes (absent → the builder's default part at
//!   the Table 3 capacity, no controller plugin). `plugins` entries are
//!   `--plugin=` forms (`none`, `oracle:<tRH>`, `para:<p>`,
//!   `graphene:<tRH>:<k>`; see [`hira_sim::plugin`]); an unknown form
//!   rejects the spec with a structured `error` event. `insts` overrides
//!   `HIRA_INSTS` for this sweep; one that is no `u64`, or whose run
//!   target or safety cycle cap overflows one, is rejected the same way.
//!   `name` selects the sweep/shard name (default `"serve"`).
//! * `{"op":"stats"}` — report the session's accumulated totals.
//! * `{"op":"metrics"}` — dump the session's metrics registry in
//!   Prometheus text format (the shared `hira_*` name catalogue plus the
//!   `hira_serve_*` counters; see the README's Observability section).
//! * `{"op":"shutdown"}` — say goodbye and stop.
//!
//! Events (server → client), one JSON object per line:
//!
//! * `{"event":"accepted","id":"a","sweep":"serve","points":4,"hits":2,
//!   "misses":2,"skipped":0}` — the sweep was planned against the store
//!   (before anything runs); `skipped` counts grid combos the builder
//!   rejects (e.g. a HiRA policy on a HiRA-inert device).
//! * `{"event":"record","id":"a","cached":true,"key":{...},"metric":"ws",
//!   "value":6.25,"wall_ms":12.5}` — one metric of one finished point.
//!   Cache hits stream first (in point order, milliseconds after
//!   `accepted`); computed points follow in completion order.
//! * `{"event":"done","id":"a","points":4,"hits":2,"misses":2,
//!   "appended":2,"wall_ms":25.0}` — the sweep finished; `wall_ms` is the
//!   sum of per-point simulation walls (replayed verbatim for hits).
//! * `{"event":"progress","id":"a","done":3,"total":4,"cached":2,
//!   "points_per_sec":2.5,"eta_ms":400.0}` — emitted after each finished
//!   point of an accepted sweep; `points_per_sec`/`eta_ms` count only
//!   computed points and are `null` until a rate is known.
//! * `{"event":"error","id":"a","line":7,"message":"..."}` — the request
//!   was rejected (unparsable line, unknown name, empty grid, an axis
//!   that repeats a value such as `caps` 8 and 8.0); `id` is the
//!   line's string `id` whenever the line is a JSON object carrying one
//!   (`""` otherwise), `line` is the 1-based request line number within
//!   the session, and the server keeps serving.
//! * `{"event":"stats","sweeps":2,"points":8,"hits":6,"misses":2,
//!   "appended":2,"uptime_ms":153.0,"sweeps_accepted":2,
//!   "points_streamed":8}` — answer to `{"op":"stats"}`.
//! * `{"event":"metrics","text":"# HELP ..."}` — answer to
//!   `{"op":"metrics"}`: one JSON string holding the Prometheus text.
//! * `{"event":"bye"}` — shutdown (op or end of input).

use crate::{CacheSpec, Grid, Meters, Scale, SweepRun, Task};
use hira_engine::json::{self, Value};
use hira_engine::{Executor, ScenarioKey, Sweep};
use hira_obs::{field, Counter, Gauge, Level, MetricsRegistry, Progress, TraceSink};
use hira_sim::config::{KernelMode, SystemConfig};
use hira_store::{CacheStats, SweepStore};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Run a grid sweep.
    Sweep(SweepSpec),
    /// Report session totals.
    Stats,
    /// Dump the session metrics in Prometheus text format.
    Metrics,
    /// Stop serving.
    Shutdown,
}

/// A grid-sweep request: policy × workload (× device × capacity).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Client correlation token, echoed on every event of this sweep.
    pub id: String,
    /// Sweep (and store shard) name.
    pub name: String,
    /// `true` → the `ws+stats` task (channel metrics besides `ws`).
    pub channel_stats: bool,
    /// Policy axis (registry names; default `["baseline"]`).
    pub policies: Vec<String>,
    /// Workload axis (registry names; default `["mix0"]`).
    pub workloads: Vec<String>,
    /// Optional device axis (absent → builder default, no `dev` axis).
    pub devices: Vec<String>,
    /// Optional capacity axis in Gb (absent → Table 3 capacity, no `cap`
    /// axis).
    pub caps: Vec<f64>,
    /// Optional controller-plugin axis (`--plugin=` forms, `"none"` for
    /// the undefended baseline point; absent → no `plugin` axis).
    pub plugins: Vec<String>,
    /// Measured instructions per core (absent → the session [`Scale`]).
    pub insts: Option<u64>,
}

fn str_list(v: &Value, field: &str) -> Result<Vec<String>, String> {
    match v.get(field) {
        None => Ok(Vec::new()),
        Some(list) => list
            .as_arr()
            .ok_or_else(|| format!("`{field}` must be an array of strings"))?
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("`{field}` must be an array of strings"))
            })
            .collect(),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a protocol-level message (for an `error` event) when the line
/// is not valid JSON, has no known `op`, or has malformed fields.
pub fn parse_op(line: &str) -> Result<Op, String> {
    let v = json::parse(line).map_err(|e| format!("bad request line: {e}"))?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("request needs a string `op` field")?;
    match op {
        "stats" => Ok(Op::Stats),
        "metrics" => Ok(Op::Metrics),
        "shutdown" => Ok(Op::Shutdown),
        "sweep" => {
            let id = v
                .get("id")
                .and_then(Value::as_str)
                .ok_or("sweep needs a string `id` field")?
                .to_owned();
            let name = v
                .get("name")
                .map(|n| {
                    n.as_str()
                        .map(str::to_owned)
                        .ok_or("`name` must be a string")
                })
                .transpose()?
                .unwrap_or_else(|| "serve".to_owned());
            let channel_stats = match v.get("task").map(|t| t.as_str()) {
                None => false,
                Some(Some("ws")) => false,
                Some(Some("ws+stats")) => true,
                Some(other) => {
                    return Err(format!(
                        "unknown task {other:?}: expected \"ws\" or \"ws+stats\""
                    ))
                }
            };
            let mut policies = str_list(&v, "policies")?;
            if policies.is_empty() {
                policies.push("baseline".to_owned());
            }
            let mut workloads = str_list(&v, "workloads")?;
            if workloads.is_empty() {
                workloads.push("mix0".to_owned());
            }
            let devices = str_list(&v, "devices")?;
            let plugins = str_list(&v, "plugins")?;
            let caps = match v.get("caps") {
                None => Vec::new(),
                Some(list) => list
                    .as_arr()
                    .ok_or("`caps` must be an array of numbers")?
                    .iter()
                    .map(|e| e.as_f64().ok_or("`caps` must be an array of numbers"))
                    .collect::<Result<Vec<f64>, _>>()?,
            };
            let insts = match v.get("insts") {
                None => None,
                Some(n) => Some(n.as_u64().ok_or("`insts` must be a positive integer")?),
            };
            Ok(Op::Sweep(SweepSpec {
                id,
                name,
                channel_stats,
                policies,
                workloads,
                devices,
                caps,
                plugins,
                insts,
            }))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// The standard registries a [`SweepSpec`] resolves its names against.
/// They are fixed per binary, so they are built once per process rather
/// than once per request.
struct Registries {
    policy: hira_sim::policy::PolicyRegistry,
    workload: hira_workload::WorkloadRegistry,
    device: hira_sim::device::DeviceRegistry,
    plugin: hira_sim::plugin::PluginRegistry,
}

impl Registries {
    fn get() -> &'static Registries {
        static REGISTRIES: OnceLock<Registries> = OnceLock::new();
        REGISTRIES.get_or_init(|| Registries {
            policy: hira_sim::policy::PolicyRegistry::standard(),
            workload: hira_workload::WorkloadRegistry::standard(),
            device: hira_sim::device::DeviceRegistry::standard(),
            plugin: hira_sim::plugin::PluginRegistry::standard(),
        })
    }
}

impl SweepSpec {
    /// Builds the grid: policy × workload (× device × cap × plugin),
    /// resolving every name against the standard registries. Combos the
    /// builder rejects as HiRA-incompatible — or as pairing a
    /// directed-refresh defense with a part that drops VRR — are skipped
    /// (second return); any other build failure or unknown name rejects
    /// the whole spec.
    ///
    /// # Errors
    ///
    /// Returns a message (for an `error` event) on unknown registry names,
    /// non-geometry build errors, or an empty grid.
    pub fn build(&self, scale: Scale) -> Result<(Sweep<SystemConfig>, usize), String> {
        fn resolve<T>(
            kind: &str,
            names: &[String],
            lookup: impl Fn(&str) -> Option<T>,
        ) -> Result<Vec<(String, T)>, String> {
            names
                .iter()
                .map(|n| {
                    let h = lookup(n).ok_or_else(|| format!("unknown {kind} `{n}`"))?;
                    Ok((n.clone(), h))
                })
                .collect()
        }
        let reg = Registries::get();
        // Unknown plugin forms reject the spec before any cell builds;
        // `none` is the undefended point, the rest key by canonical name.
        let plugins = self
            .plugins
            .iter()
            .map(|g| match g.as_str() {
                "none" => Ok((g.clone(), None)),
                _ => reg
                    .plugin
                    .lookup(g)
                    .map(|h| (h.name().to_owned(), Some(h)))
                    .ok_or_else(|| format!("unknown plugin `{g}`")),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let (sweep, skipped) = Grid::new(&self.name)
            .policies(&resolve("policy", &self.policies, |n| {
                reg.policy.lookup(n)
            })?)
            .workloads(&resolve("workload", &self.workloads, |n| {
                reg.workload.lookup(n)
            })?)
            .devices(&resolve("device", &self.devices, |n| reg.device.lookup(n))?)
            .caps(&self.caps)
            .plugins(&plugins)
            .build(self.scale(scale), KernelMode::default())?;
        if sweep.is_empty() {
            return Err("sweep grid is empty (every combo skipped or no axes)".to_owned());
        }
        Ok((sweep, skipped.len()))
    }

    /// The session scale with this spec's `insts` override applied (warmup
    /// a fifth of the budget, as [`Scale::from_env`] sets it) — alone-IPC
    /// keys include the instruction counts, so the override reaches them
    /// too.
    fn scale(&self, session: Scale) -> Scale {
        let insts = self.insts.unwrap_or(session.insts);
        Scale {
            insts,
            warmup: insts / 5,
            ..session
        }
    }
}

/// One event line under construction in a reused buffer: `{"event":` and
/// the event name, then each field in call order, then `}` on
/// [`EventLine::emit`]. Every value goes through [`json::write_str`] or
/// [`json::write_f64`], or is an integer or boolean in its `Display` form.
struct EventLine<'a>(&'a mut String);

impl<'a> EventLine<'a> {
    fn start(buf: &'a mut String, event: &str) -> Self {
        buf.clear();
        buf.push_str("{\"event\":");
        json::write_str(buf, event);
        EventLine(buf)
    }

    fn field(&mut self, name: &str) {
        self.0.push(',');
        json::write_str(self.0, name);
        self.0.push(':');
    }

    fn str(mut self, name: &str, v: &str) -> Self {
        self.field(name);
        json::write_str(self.0, v);
        self
    }

    /// An integer or boolean, as `Display` writes it.
    fn int(mut self, name: &str, v: impl std::fmt::Display) -> Self {
        self.field(name);
        let _ = write!(self.0, "{v}");
        self
    }

    /// `v`, or `null` when absent (as for any non-finite value).
    fn f64(mut self, name: &str, v: Option<f64>) -> Self {
        self.field(name);
        match v {
            Some(v) => json::write_f64(self.0, v),
            None => self.0.push_str("null"),
        }
        self
    }

    /// A point's scenario key as an object of its axes.
    fn key(mut self, name: &str, key: &ScenarioKey) -> Self {
        self.field(name);
        self.0.push('{');
        for (i, (axis, value)) in key.axes().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            json::write_str(self.0, axis);
            self.0.push(':');
            json::write_str(self.0, value);
        }
        self.0.push('}');
        self
    }

    fn emit(self, emit: &(dyn Fn(&str) + Sync)) {
        self.0.push('}');
        emit(self.0);
    }
}

/// The transport-free sweep service: feed request lines to
/// [`Server::handle`], receive event lines through its `emit` callback.
pub struct Server {
    ex: Executor,
    scale: Scale,
    store: SweepStore,
    /// Present when the store lives in a scratch directory this server
    /// created (no `--cache=`): removed again on drop.
    scratch: Option<PathBuf>,
    sweeps: usize,
    totals: CacheStats,
    started: Instant,
    /// Request lines received so far — the `line` field of error events.
    lines: u64,
    sweeps_accepted: u64,
    registry: MetricsRegistry,
    meters: Meters,
    errors: Counter,
    streamed: Counter,
    plugin_sweeps: Counter,
    uptime: Gauge,
    sink: Option<TraceSink>,
    /// The buffer every event line is rendered into, reused across
    /// requests.
    out: String,
}

impl Server {
    /// A server executing on `ex` at `scale`, caching in `cache`'s
    /// directory — or, when the spec is inactive, in a scratch store under
    /// the temp directory (hits then only span this session's lifetime).
    ///
    /// # Panics
    ///
    /// Panics when the store cannot be opened (an explicitly requested
    /// cache that cannot work is an error, not a silent slow path).
    pub fn new(ex: Executor, scale: Scale, cache: &CacheSpec) -> Self {
        // One scratch directory per server: dropping one server must not
        // remove the store of another in the same process.
        static SCRATCH: AtomicUsize = AtomicUsize::new(0);
        let (dir, scratch) = match cache.dir() {
            Some(dir) => (dir.to_path_buf(), None),
            None => {
                let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
                let name = format!("hira-serve-{}-{n}", std::process::id());
                let dir = std::env::temp_dir().join(name);
                (dir.clone(), Some(dir))
            }
        };
        let store = SweepStore::open(&dir)
            .unwrap_or_else(|e| panic!("serve: cannot open store at {}: {e}", dir.display()));
        let registry = MetricsRegistry::new();
        let meters = Meters::new(&registry);
        let errors = registry.counter("hira_serve_errors_total", "protocol errors answered");
        let streamed = registry.counter(
            "hira_serve_points_streamed_total",
            "points streamed to clients",
        );
        let plugin_sweeps = registry.counter(
            "hira_serve_plugin_sweeps",
            "accepted sweeps carrying a controller-plugin axis",
        );
        let uptime = registry.gauge("hira_serve_uptime_ms", "milliseconds since server start");
        Server {
            ex,
            scale,
            store,
            scratch,
            sweeps: 0,
            totals: CacheStats::default(),
            started: Instant::now(),
            lines: 0,
            sweeps_accepted: 0,
            registry,
            meters,
            errors,
            streamed,
            plugin_sweeps,
            uptime,
            sink: None,
            out: String::new(),
        }
    }

    /// Attaches a trace sink: the server then writes a span per sweep and
    /// an event per protocol error, beside whatever the transport wrapper
    /// logs (e.g. per-connection spans).
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The session metrics in Prometheus text format — what the
    /// `{"op":"metrics"}` request answers with.
    pub fn metrics_text(&self) -> String {
        self.uptime.set(self.started.elapsed().as_secs_f64() * 1e3);
        self.registry.render()
    }

    /// Session totals across all sweeps handled so far.
    pub fn totals(&self) -> CacheStats {
        self.totals
    }

    /// Handles one request line, emitting every resulting event line
    /// through `emit`. Returns `false` when the server should stop
    /// (shutdown op); protocol errors emit an `error` event and return
    /// `true` — a long-running service survives bad requests.
    pub fn handle(&mut self, line: &str, emit: &(dyn Fn(&str) + Sync)) -> bool {
        let mut out = std::mem::take(&mut self.out);
        let alive = self.answer(line, &mut out, emit);
        self.out = out;
        alive
    }

    /// [`Server::handle`], rendering each event into `out`.
    fn answer(&mut self, line: &str, out: &mut String, emit: &(dyn Fn(&str) + Sync)) -> bool {
        self.lines += 1;
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        let request_counter = |op: &str| {
            self.registry.counter_with(
                "hira_serve_requests_total",
                "requests handled",
                &[("op", op)],
            )
        };
        match parse_op(line) {
            Err(msg) => {
                // A rejected line still names its request when it is a
                // JSON object with a string `id`.
                let id = json::parse(line)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_owned))
                    .unwrap_or_default();
                self.error(out, &id, &msg, emit);
                true
            }
            Ok(Op::Shutdown) => {
                request_counter("shutdown").inc();
                EventLine::start(out, "bye").emit(emit);
                if let Some(s) = &self.sink {
                    s.flush();
                }
                false
            }
            Ok(Op::Stats) => {
                request_counter("stats").inc();
                let uptime_ms = self.started.elapsed().as_secs_f64() * 1e3;
                self.uptime.set(uptime_ms);
                EventLine::start(out, "stats")
                    .int("sweeps", self.sweeps)
                    .int("points", self.totals.points)
                    .int("hits", self.totals.hits)
                    .int("misses", self.totals.misses)
                    .int("appended", self.totals.appended)
                    .f64("uptime_ms", Some(uptime_ms))
                    .int("sweeps_accepted", self.sweeps_accepted)
                    .int("points_streamed", self.streamed.get())
                    .emit(emit);
                true
            }
            Ok(Op::Metrics) => {
                request_counter("metrics").inc();
                let text = self.metrics_text();
                EventLine::start(out, "metrics")
                    .str("text", &text)
                    .emit(emit);
                true
            }
            Ok(Op::Sweep(spec)) => {
                request_counter("sweep").inc();
                if let Err(msg) = self.run_sweep(&spec, out, emit) {
                    self.error(out, &spec.id, &msg, emit);
                }
                true
            }
        }
    }

    /// Counts, traces and answers a rejected request with its `error`
    /// event.
    fn error(&self, out: &mut String, id: &str, msg: &str, emit: &(dyn Fn(&str) + Sync)) {
        self.errors.inc();
        if let Some(s) = &self.sink {
            s.event(
                Level::Warn,
                "serve_error",
                &[field("line", self.lines), field("message", msg)],
            );
        }
        EventLine::start(out, "error")
            .str("id", id)
            .int("line", self.lines)
            .str("message", msg)
            .emit(emit);
    }

    fn run_sweep(
        &mut self,
        spec: &SweepSpec,
        out: &mut String,
        emit: &(dyn Fn(&str) + Sync),
    ) -> Result<(), String> {
        let (sweep, skipped) = spec.build(self.scale)?;
        let task = if spec.channel_stats {
            Task::WsStats
        } else {
            Task::Ws
        };
        let runner = SweepRun::new(self.ex, spec.scale(self.scale)).task(task);
        let plan = runner.plan(Some(&self.store), &sweep);
        let span = self.sink.as_ref().map(|s| {
            s.span(
                Level::Info,
                "sweep",
                vec![
                    field("id", spec.id.as_str()),
                    field("sweep", sweep.name()),
                    field("points", plan.len()),
                    field("hits", plan.hits()),
                ],
            )
        });
        self.sweeps_accepted += 1;
        if !spec.plugins.is_empty() {
            self.plugin_sweeps.inc();
        }
        EventLine::start(out, "accepted")
            .str("id", &spec.id)
            .str("sweep", sweep.name())
            .int("points", plan.len())
            .int("hits", plan.hits())
            .int("misses", plan.misses())
            .int("skipped", skipped)
            .emit(emit);

        let meters = &self.meters;
        let streamed = &self.streamed;
        let progress = Progress::new(plan.len());
        // Computed points arrive from worker threads.
        let shared = Mutex::new(&mut *out);
        let on_point = |o: hira_store::PointOutcome<'_>| {
            let mut out = shared.lock().expect("no event was left half-written");
            let key = &sweep.points()[o.index].0;
            for m in &o.point.metrics {
                EventLine::start(&mut out, "record")
                    .str("id", &spec.id)
                    .int("cached", o.cached)
                    .key("key", key)
                    .str("metric", &m.name)
                    .f64("value", Some(m.value))
                    .f64("wall_ms", Some(o.point.wall_ms))
                    .emit(emit);
            }
            streamed.inc();
            meters.point(o.cached, o.queue_wait_ms, o.point.wall_ms);
            let snap = progress.point_done(o.cached);
            EventLine::start(&mut out, "progress")
                .str("id", &spec.id)
                .int("done", snap.done)
                .int("total", snap.total)
                .int("cached", snap.cached)
                .f64(
                    "points_per_sec",
                    (snap.points_per_sec > 0.0).then_some(snap.points_per_sec),
                )
                .f64("eta_ms", snap.eta_ms)
                .emit(emit);
        };
        let (run, stats) = runner
            .execute(Some(&mut self.store), &sweep, &plan, None, &on_point)
            .map_err(|e| format!("cannot persist results: {e}"))?;
        self.meters.sweep_done(&run, Some(&stats));
        drop(span);
        if let Some(s) = &self.sink {
            s.flush();
        }
        self.sweeps += 1;
        self.totals.points += stats.points;
        self.totals.hits += stats.hits;
        self.totals.misses += stats.misses;
        self.totals.appended += stats.appended;
        EventLine::start(out, "done")
            .str("id", &spec.id)
            .int("points", stats.points)
            .int("hits", stats.hits)
            .int("misses", stats.misses)
            .int("appended", stats.appended)
            .f64("wall_ms", Some(run.wall_ms))
            .emit(emit);
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(dir) = &self.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn tiny_scale() -> Scale {
        Scale {
            mixes: 2,
            insts: 2_000,
            warmup: 400,
            rows: 16,
        }
    }

    fn collect(server: &mut Server, line: &str) -> (bool, Vec<String>) {
        let events: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let emit = |l: &str| events.lock().unwrap().push(l.to_owned());
        let alive = server.handle(line, &emit);
        (alive, events.into_inner().unwrap())
    }

    fn field<'a>(event: &'a str, key: &str) -> &'a str {
        let needle = format!("\"{key}\":");
        let at = event.find(&needle).unwrap_or_else(|| {
            panic!("event {event} has no `{key}` field");
        }) + needle.len();
        let rest = &event[at..];
        let end = rest
            .char_indices()
            .scan(0i32, |depth, (i, c)| match c {
                '{' | '[' => {
                    *depth += 1;
                    Some(i)
                }
                '}' | ']' if *depth > 0 => {
                    *depth -= 1;
                    Some(i)
                }
                ',' | '}' if *depth == 0 => None,
                _ => Some(i),
            })
            .last()
            .map_or(0, |i| i + 1);
        &rest[..end]
    }

    #[test]
    fn request_lines_parse_into_ops() {
        assert_eq!(parse_op("{\"op\":\"stats\"}"), Ok(Op::Stats));
        assert_eq!(parse_op("{\"op\":\"shutdown\"}"), Ok(Op::Shutdown));
        let spec = match parse_op(
            "{\"op\":\"sweep\",\"id\":\"a\",\"task\":\"ws+stats\",\
             \"policies\":[\"noref\",\"baseline\"],\"caps\":[8,64],\
             \"plugins\":[\"para:0.05\"],\"insts\":2000}",
        ) {
            Ok(Op::Sweep(s)) => s,
            other => panic!("expected sweep, got {other:?}"),
        };
        assert_eq!(spec.id, "a");
        assert_eq!(spec.name, "serve");
        assert!(spec.channel_stats);
        assert_eq!(spec.policies, vec!["noref", "baseline"]);
        assert_eq!(spec.workloads, vec!["mix0"], "defaulted");
        assert!(spec.devices.is_empty());
        assert_eq!(spec.caps, vec![8.0, 64.0]);
        assert_eq!(spec.plugins, vec!["para:0.05"]);
        assert_eq!(spec.insts, Some(2000));
        // Malformed requests carry their reason.
        assert!(parse_op("not json").is_err());
        assert!(parse_op("{\"no\":\"op\"}").is_err());
        assert!(parse_op("{\"op\":\"dance\"}").is_err());
        assert!(parse_op("{\"op\":\"sweep\"}").is_err(), "id is required");
        assert!(parse_op("{\"op\":\"sweep\",\"id\":\"a\",\"task\":\"nope\"}").is_err());
        assert!(
            parse_op("{\"op\":\"sweep\",\"id\":\"a\",\"policies\":[1]}").is_err(),
            "axis lists must hold strings"
        );
    }

    #[test]
    fn specs_build_registry_resolved_grids() {
        let spec = SweepSpec {
            id: "t".into(),
            name: "serve_test".into(),
            channel_stats: false,
            policies: vec!["noref".into(), "baseline".into()],
            workloads: vec!["stream".into()],
            devices: Vec::new(),
            caps: vec![8.0],
            plugins: Vec::new(),
            insts: None,
        };
        let (sweep, skipped) = spec.build(tiny_scale()).unwrap();
        assert_eq!(sweep.len(), 2);
        assert_eq!(skipped, 0);
        assert_eq!(
            sweep.points()[0].0.to_string(),
            "policy=noref wl=stream cap=8"
        );
        // Unknown names reject the whole spec with a message.
        let mut bad = spec.clone();
        bad.policies = vec!["nope".into()];
        assert!(bad.build(tiny_scale()).unwrap_err().contains("nope"));
        // HiRA-on-inert-device combos are skipped, not fatal.
        let hira_on_inert = SweepSpec {
            policies: vec!["hira4".into(), "baseline".into()],
            devices: vec!["samsung-ddr4-2400".into()],
            ..spec.clone()
        };
        let (sweep, skipped) = hira_on_inert.build(tiny_scale()).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(sweep.len(), 1);
        // An unregistered part rejects the spec by name.
        let unknown = SweepSpec {
            devices: vec!["ddr4-2133".into()],
            ..spec.clone()
        };
        assert!(unknown
            .build(tiny_scale())
            .unwrap_err()
            .contains("ddr4-2133"));
    }

    #[test]
    fn plugin_specs_expand_the_grid_and_reject_unknown_forms() {
        let spec = SweepSpec {
            id: "g".into(),
            name: "serve_plugins".into(),
            channel_stats: false,
            policies: vec!["baseline".into()],
            workloads: vec!["stream".into()],
            devices: Vec::new(),
            caps: Vec::new(),
            plugins: vec!["none".into(), "para:0.05".into(), "oracle:64".into()],
            insts: None,
        };
        let (sweep, skipped) = spec.build(tiny_scale()).unwrap();
        assert_eq!(sweep.len(), 3, "one point per plugin form");
        assert_eq!(skipped, 0);
        assert_eq!(
            sweep.points()[0].0.to_string(),
            "policy=baseline wl=stream plugin=none"
        );
        assert_eq!(
            sweep.points()[2].0.to_string(),
            "policy=baseline wl=stream plugin=oracle:64"
        );
        // An unknown form rejects the whole spec with a message.
        let mut bad = spec.clone();
        bad.plugins = vec!["blink:7".into()];
        assert!(bad.build(tiny_scale()).unwrap_err().contains("blink:7"));
        // Directed-refresh defenses on a VRR-less part are skipped cells,
        // not fatal; para survives (it refreshes via plain activations).
        let vrr_less = SweepSpec {
            devices: vec!["samsung-ddr4-2400".into()],
            ..spec.clone()
        };
        let (sweep, skipped) = vrr_less.build(tiny_scale()).unwrap();
        assert_eq!(skipped, 1, "oracle dropped on the VRR-less part");
        assert_eq!(sweep.len(), 2);
    }

    #[test]
    fn sweeps_stream_accepted_records_done_and_hit_on_replay() {
        let mut server = Server::new(
            Executor::with_threads(2),
            tiny_scale(),
            &CacheSpec::disabled(),
        );
        let req = "{\"op\":\"sweep\",\"id\":\"s1\",\"name\":\"serve_smoke\",\
                   \"policies\":[\"noref\",\"baseline\"],\"workloads\":[\"stream\"]}";
        let (alive, events) = collect(&mut server, req);
        assert!(alive);
        assert_eq!(field(&events[0], "event"), "\"accepted\"");
        assert_eq!(field(&events[0], "misses"), "2");
        let records: Vec<&String> = events
            .iter()
            .filter(|e| e.contains("\"event\":\"record\""))
            .collect();
        assert_eq!(records.len(), 2, "one ws record per point");
        assert!(records.iter().all(|r| field(r, "cached") == "false"));
        let done = events.last().unwrap();
        assert_eq!(field(done, "event"), "\"done\"");
        assert_eq!(field(done, "hits"), "0");
        assert_eq!(field(done, "appended"), "2");

        // The same sweep again: all hits, replayed in point order, and the
        // record payloads are byte-identical to the cold pass.
        let (_, replay) = collect(&mut server, req);
        assert_eq!(field(&replay[0], "hits"), "2");
        let replay_records: Vec<&String> = replay
            .iter()
            .filter(|e| e.contains("\"event\":\"record\""))
            .collect();
        assert!(replay_records.iter().all(|r| field(r, "cached") == "true"));
        let strip = |rs: &[&String]| -> Vec<String> {
            let mut v: Vec<String> = rs
                .iter()
                .map(|r| {
                    r.replace("\"cached\":true,", "")
                        .replace("\"cached\":false,", "")
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(strip(&records), strip(&replay_records));

        // Session totals accumulate across both sweeps.
        let (_, stats) = collect(&mut server, "{\"op\":\"stats\"}");
        assert_eq!(field(&stats[0], "sweeps"), "2");
        assert_eq!(field(&stats[0], "points"), "4");
        assert_eq!(field(&stats[0], "hits"), "2");
        assert_eq!(field(&stats[0], "misses"), "2");

        // Bad requests emit an error event and keep the server alive.
        let (alive, err) = collect(
            &mut server,
            "{\"op\":\"sweep\",\"id\":\"x\",\"policies\":[\"nope\"]}",
        );
        assert!(alive);
        assert_eq!(field(&err[0], "event"), "\"error\"");

        // Shutdown says goodbye and stops.
        let (alive, bye) = collect(&mut server, "{\"op\":\"shutdown\"}");
        assert!(!alive);
        assert_eq!(field(&bye[0], "event"), "\"bye\"");
    }

    #[test]
    fn a_huge_slack_hira_sweep_runs_to_done() {
        // `hira<N>` takes any u32; at u32::MAX the Refresh Table's capacity
        // is billions of entries, which must not be allocated up front.
        let mut server = Server::new(
            Executor::with_threads(1),
            tiny_scale(),
            &CacheSpec::disabled(),
        );
        let (alive, ev) = collect(
            &mut server,
            "{\"op\":\"sweep\",\"id\":\"x\",\"policies\":[\"hira4294967295\"],\
             \"workloads\":[\"stream\"]}",
        );
        assert!(alive);
        assert_eq!(field(ev.last().unwrap(), "event"), "\"done\"");
        let (_, stats) = collect(&mut server, "{\"op\":\"stats\"}");
        assert_eq!(field(&stats[0], "sweeps"), "1");
        assert_eq!(field(&stats[0], "points"), "1");
    }

    #[test]
    fn overflowing_budgets_answer_errors_and_keep_serving() {
        let mut server = Server::new(
            Executor::with_threads(1),
            tiny_scale(),
            &CacheSpec::disabled(),
        );
        // 2^64 - 1 (parses as 2^64), 2^64 - 2048 and 2e17: the first is no
        // u64, the others overflow the run's target or safety cap.
        for insts in [
            "18446744073709551615",
            "18446744073709549568",
            "200000000000000000",
        ] {
            let line = format!(
                "{{\"op\":\"sweep\",\"id\":\"big\",\"policies\":[\"baseline\"],\
                 \"workloads\":[\"stream\"],\"insts\":{insts}}}"
            );
            let (alive, ev) = collect(&mut server, &line);
            assert!(alive, "insts {insts}");
            assert_eq!(ev.len(), 1, "insts {insts}: {ev:?}");
            assert_eq!(field(&ev[0], "event"), "\"error\"", "insts {insts}");
            assert_eq!(field(&ev[0], "id"), "\"big\"", "insts {insts}");
        }
        let (alive, stats) = collect(&mut server, "{\"op\":\"stats\"}");
        assert!(alive);
        assert_eq!(field(&stats[0], "event"), "\"stats\"");
        assert_eq!(field(&stats[0], "sweeps"), "0");
    }

    #[test]
    fn errors_carry_line_numbers_and_feed_the_metrics() {
        let mut server = Server::new(
            Executor::with_threads(1),
            tiny_scale(),
            &CacheSpec::disabled(),
        );
        // Malformed JSON, an unknown op, and an unknown registry name in
        // an otherwise well-formed grid spec: each answers with a
        // structured error naming the request line, and serving continues.
        let (alive, ev) = collect(&mut server, "{not json");
        assert!(alive);
        assert_eq!(field(&ev[0], "event"), "\"error\"");
        assert_eq!(field(&ev[0], "line"), "1");
        let (_, ev) = collect(&mut server, "{\"op\":\"dance\"}");
        assert_eq!(field(&ev[0], "event"), "\"error\"");
        assert_eq!(field(&ev[0], "line"), "2");
        assert!(ev[0].contains("unknown op"));
        let (_, ev) = collect(
            &mut server,
            "{\"op\":\"sweep\",\"id\":\"x\",\"policies\":[\"nope\"]}",
        );
        assert_eq!(field(&ev[0], "event"), "\"error\"");
        assert_eq!(field(&ev[0], "id"), "\"x\"");
        assert_eq!(field(&ev[0], "line"), "3");
        assert!(ev[0].contains("nope"));

        // The metrics op answers with strict Prometheus text carrying the
        // error and request counters.
        let (alive, ev) = collect(&mut server, "{\"op\":\"metrics\"}");
        assert!(alive);
        assert_eq!(field(&ev[0], "event"), "\"metrics\"");
        let text = json::parse(&ev[0])
            .unwrap()
            .get("text")
            .and_then(|t| t.as_str().map(str::to_owned))
            .expect("metrics event carries a text field");
        let samples = hira_obs::parse_prometheus(&text).expect("strict Prometheus text");
        let value = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("no sample {name}"))
                .value
        };
        assert_eq!(value("hira_serve_errors_total"), 3.0);
        assert!(value("hira_serve_uptime_ms") > 0.0);
        let metrics_reqs = samples
            .iter()
            .find(|s| {
                s.name == "hira_serve_requests_total"
                    && s.labels.contains(&("op".to_owned(), "metrics".to_owned()))
            })
            .expect("per-op request counter");
        assert_eq!(metrics_reqs.value, 1.0);

        // Stats gained uptime and cumulative counters, appended after the
        // original fields.
        let (_, ev) = collect(&mut server, "{\"op\":\"stats\"}");
        let stats = &ev[0];
        assert!(stats.find("\"appended\":").unwrap() < stats.find("\"uptime_ms\":").unwrap());
        assert_eq!(field(stats, "sweeps_accepted"), "0");
        assert_eq!(field(stats, "points_streamed"), "0");
        assert!(field(stats, "uptime_ms").parse::<f64>().unwrap() > 0.0);
    }

    #[test]
    fn sweeps_stream_progress_and_count_streamed_points() {
        let mut server = Server::new(
            Executor::with_threads(2),
            tiny_scale(),
            &CacheSpec::disabled(),
        );
        let req = "{\"op\":\"sweep\",\"id\":\"p1\",\"name\":\"serve_progress\",\
                   \"policies\":[\"noref\",\"baseline\"],\"workloads\":[\"stream\"]}";
        let (_, events) = collect(&mut server, req);
        let progress: Vec<&String> = events
            .iter()
            .filter(|e| e.contains("\"event\":\"progress\""))
            .collect();
        assert_eq!(progress.len(), 2, "one progress event per point");
        for p in &progress {
            assert_eq!(field(p, "id"), "\"p1\"");
            assert_eq!(field(p, "total"), "2");
        }
        let last = progress.last().unwrap();
        assert_eq!(field(last, "done"), "2");
        assert_ne!(field(last, "eta_ms"), "null", "finished sweep has an ETA");
        // Each record is preceded by... rather: every progress event comes
        // after its point's records; the final event is still `done`.
        assert_eq!(field(events.last().unwrap(), "event"), "\"done\"");

        let (_, ev) = collect(&mut server, "{\"op\":\"stats\"}");
        assert_eq!(field(&ev[0], "sweeps_accepted"), "1");
        assert_eq!(field(&ev[0], "points_streamed"), "2");

        // The session metrics absorbed the sweep: points, cache misses,
        // kernel events.
        let text = server.metrics_text();
        let samples = hira_obs::parse_prometheus(&text).unwrap();
        let value = |name: &str| {
            samples
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.value)
                .sum::<f64>()
        };
        assert_eq!(value("hira_points_total"), 2.0);
        assert_eq!(value("hira_cache_misses_total"), 2.0);
        assert_eq!(value("hira_serve_points_streamed_total"), 2.0);
        assert!(value("hira_kernel_events_total") > 0.0);
    }

    #[test]
    fn plugin_sweeps_stream_plugin_metrics_and_feed_the_counter() {
        let mut server = Server::new(
            Executor::with_threads(2),
            tiny_scale(),
            &CacheSpec::disabled(),
        );
        let req = "{\"op\":\"sweep\",\"id\":\"g1\",\"name\":\"serve_plugin\",\
                   \"policies\":[\"baseline\"],\"workloads\":[\"stream\"],\
                   \"plugins\":[\"none\",\"para:0.05\"]}";
        let (alive, events) = collect(&mut server, req);
        assert!(alive);
        assert_eq!(field(&events[0], "event"), "\"accepted\"");
        assert_eq!(field(&events[0], "points"), "2");
        let records: Vec<&String> = events
            .iter()
            .filter(|e| e.contains("\"event\":\"record\""))
            .collect();
        // The defended point streams the per-row victim accounting beside
        // ws; the undefended baseline must stay plugin-metric-free.
        assert!(records.iter().any(|r| {
            r.contains("\"plugin\":\"para:0.05\"") && r.contains("\"metric\":\"plugin_acts\"")
        }));
        assert!(records.iter().any(|r| {
            r.contains("\"plugin\":\"para:0.05\"")
                && r.contains("\"metric\":\"victim_max_exposure\"")
        }));
        assert!(
            !records
                .iter()
                .any(|r| r.contains("\"plugin\":\"none\"") && r.contains("plugin_acts")),
            "the undefended baseline grew plugin metrics"
        );

        // An unknown form answers a structured error and keeps serving.
        let (alive, ev) = collect(
            &mut server,
            "{\"op\":\"sweep\",\"id\":\"g2\",\"plugins\":[\"blink:7\"]}",
        );
        assert!(alive);
        assert_eq!(field(&ev[0], "event"), "\"error\"");
        assert_eq!(field(&ev[0], "id"), "\"g2\"");
        assert!(ev[0].contains("blink:7"));

        // Exactly one accepted sweep carried a plugin axis.
        let text = server.metrics_text();
        let samples = hira_obs::parse_prometheus(&text).unwrap();
        let plugin_sweeps = samples
            .iter()
            .find(|s| s.name == "hira_serve_plugin_sweeps")
            .expect("plugin-sweep counter in the catalogue");
        assert_eq!(plugin_sweeps.value, 1.0);
    }

    #[test]
    fn attached_traces_record_sweep_spans_and_errors() {
        let sink = hira_obs::TraceSink::in_memory(Level::Info);
        let mut server = Server::new(
            Executor::with_threads(1),
            tiny_scale(),
            &CacheSpec::disabled(),
        )
        .with_trace(sink.clone());
        collect(&mut server, "{\"op\":\"nope\"}");
        collect(
            &mut server,
            "{\"op\":\"sweep\",\"id\":\"t\",\"policies\":[\"noref\"],\
             \"workloads\":[\"stream\"]}",
        );
        let lines = sink.lines();
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"event\":\"serve_error\"") && l.contains("\"line\":1")),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"event\":\"sweep\"") && l.contains("\"dur_us\":")),
            "{lines:?}"
        );
    }

    #[test]
    fn dropping_one_cacheless_server_keeps_another_serving() {
        let server = || {
            Server::new(
                Executor::with_threads(1),
                tiny_scale(),
                &CacheSpec::disabled(),
            )
        };
        let first = server();
        let mut second = server();
        drop(first);
        let (_, events) = collect(
            &mut second,
            "{\"op\":\"sweep\",\"id\":\"d\",\"policies\":[\"noref\"],\
             \"workloads\":[\"stream\"]}",
        );
        assert_eq!(field(events.last().unwrap(), "event"), "\"done\"");
    }

    /// The events [`warm_events_keep_their_bytes`] expects, `@ID@` standing
    /// for the id's JSON string: the bytes the server wrote when it
    /// rendered each value to its own `String` and joined them.
    const WARM_GOLDEN: &str = r#"{"event":"accepted","id":@ID@,"sweep":"serve_golden","points":4,"hits":4,"misses":0,"skipped":0}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"baseline","wl":"stream","cap":"8"},"metric":"ws","value":2.3333333333333335,"wall_ms":12.5}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"baseline","wl":"stream","cap":"8"},"metric":"read_lat","value":null,"wall_ms":12.5}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"baseline","wl":"stream","cap":"8"},"metric":"dbus","value":-0,"wall_ms":12.5}
{"event":"progress","id":@ID@,"done":1,"total":4,"cached":1,"points_per_sec":_,"eta_ms":_}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"baseline","wl":"stream","cap":"64"},"metric":"ws","value":3.3333333333333335,"wall_ms":0.30000000000000004}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"baseline","wl":"stream","cap":"64"},"metric":"read_lat","value":null,"wall_ms":0.30000000000000004}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"baseline","wl":"stream","cap":"64"},"metric":"dbus","value":-0,"wall_ms":0.30000000000000004}
{"event":"progress","id":@ID@,"done":2,"total":4,"cached":2,"points_per_sec":_,"eta_ms":_}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"hira4","wl":"stream","cap":"8"},"metric":"ws","value":4.333333333333334,"wall_ms":0.0000001}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"hira4","wl":"stream","cap":"8"},"metric":"read_lat","value":null,"wall_ms":0.0000001}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"hira4","wl":"stream","cap":"8"},"metric":"dbus","value":-0,"wall_ms":0.0000001}
{"event":"progress","id":@ID@,"done":3,"total":4,"cached":3,"points_per_sec":_,"eta_ms":_}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"hira4","wl":"stream","cap":"64"},"metric":"ws","value":5.333333333333334,"wall_ms":3000000000000000000000}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"hira4","wl":"stream","cap":"64"},"metric":"read_lat","value":null,"wall_ms":3000000000000000000000}
{"event":"record","id":@ID@,"cached":true,"key":{"policy":"hira4","wl":"stream","cap":"64"},"metric":"dbus","value":-0,"wall_ms":3000000000000000000000}
{"event":"progress","id":@ID@,"done":4,"total":4,"cached":4,"points_per_sec":_,"eta_ms":_}
{"event":"done","id":@ID@,"points":4,"hits":4,"misses":0,"appended":0,"wall_ms":3000000000000000000000}
{"event":"error","id":@ID@,"line":2,"message":"unknown policy `nope`"}
{"event":"error","id":@ID@,"line":3,"message":"unknown task None: expected \"ws\" or \"ws+stats\""}
{"event":"stats","sweeps":1,"points":4,"hits":4,"misses":0,"appended":0,"uptime_ms":_,"sweeps_accepted":1,"points_streamed":4}
{"event":"bye"}"#;

    /// `event` with the value of each named field replaced by `_`.
    fn masked(event: &str, fields: &[&str]) -> String {
        let mut out = event.to_owned();
        for f in fields {
            if out.contains(&format!("\"{f}\":")) {
                let value = field(&out, f).to_owned();
                out = out.replacen(&format!("\"{f}\":{value}"), &format!("\"{f}\":_"), 1);
            }
        }
        out
    }

    #[test]
    fn warm_events_keep_their_bytes() {
        let dir = std::env::temp_dir().join(format!("hira-serve-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // An id with a quote, a backslash, control characters, a line
        // separator and non-ASCII text.
        let id = "q\"b\\s\u{1}\n\t\u{1f}\u{2028}é🦀";
        let mut id_json = String::new();
        json::write_str(&mut id_json, id);
        let request = format!(
            "{{\"op\":\"sweep\",\"id\":{id_json},\"name\":\"serve_golden\",\
             \"task\":\"ws+stats\",\"policies\":[\"baseline\",\"hira4\"],\
             \"workloads\":[\"stream\"],\"caps\":[8,64],\"insts\":1000}}"
        );
        let Ok(Op::Sweep(spec)) = parse_op(&request) else {
            panic!("{request} is no sweep")
        };
        assert_eq!(spec.id, id);
        // Store hand-made results under the keys the request plans, so
        // every replayed number is known.
        let (sweep, _) = spec.build(tiny_scale()).unwrap();
        let mut store = SweepStore::open(&dir).unwrap();
        let plan = SweepRun::new(Executor::with_threads(1), spec.scale(tiny_scale()))
            .task(Task::WsStats)
            .plan(Some(&store), &sweep);
        let walls = [12.5, 0.1 + 0.2, 1e-7, 3e21];
        let points = (0..plan.len())
            .map(|i| hira_store::StoredPoint {
                hash: plan.hash(i).to_owned(),
                sweep: sweep.name().to_owned(),
                key: sweep.points()[i].0.clone(),
                wall_ms: walls[i],
                telemetry: None,
                metrics: vec![
                    hira_engine::metric("ws", 7.0 / 3.0 + i as f64),
                    hira_engine::metric("read_lat", f64::NAN),
                    hira_engine::metric("dbus", -0.0),
                ],
            })
            .collect();
        assert_eq!(store.append(points).unwrap(), 4);
        drop(store);

        let mut server = Server::new(
            Executor::with_threads(1),
            tiny_scale(),
            &CacheSpec::at(&dir),
        );
        let mut lines = Vec::new();
        for request in [
            request.as_str(),
            &format!("{{\"op\":\"sweep\",\"id\":{id_json},\"policies\":[\"nope\"]}}"),
            &format!("{{\"op\":\"sweep\",\"id\":{id_json},\"task\":7}}"),
            "{\"op\":\"stats\"}",
            "{\"op\":\"shutdown\"}",
        ] {
            let (_, events) = collect(&mut server, request);
            lines.extend(
                events
                    .iter()
                    .map(|e| masked(e, &["points_per_sec", "eta_ms", "uptime_ms"])),
            );
        }
        let golden: Vec<String> = WARM_GOLDEN
            .lines()
            .map(|l| l.replace("@ID@", &id_json))
            .collect();
        assert_eq!(lines, golden);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweeps_whose_axes_repeat_a_value_answer_an_error() {
        let mut server = Server::new(
            Executor::with_threads(1),
            tiny_scale(),
            &CacheSpec::disabled(),
        );
        // Each would make two points under one key: `8` and `8.0` share
        // the label `8`, `para:0.050` is `para:0.05`.
        for (axes, axis, label) in [
            ("\"policies\":[\"hira4\",\"hira4\"]", "policy", "hira4"),
            (
                "\"workloads\":[\"stream\",\"mix0\",\"stream\"]",
                "wl",
                "stream",
            ),
            ("\"caps\":[8,8.0]", "cap", "8"),
            (
                "\"plugins\":[\"para:0.05\",\"para:0.050\"]",
                "plugin",
                "para:0.05",
            ),
            (
                "\"devices\":[\"ddr4-2400\",\"ddr4-2400\"]",
                "dev",
                "ddr4-2400",
            ),
        ] {
            let line = format!("{{\"op\":\"sweep\",\"id\":\"e\",{axes},\"insts\":300}}");
            let (alive, ev) = collect(&mut server, &line);
            assert!(alive, "{line}");
            assert_eq!(ev.len(), 1, "{line}: {ev:?}");
            assert_eq!(field(&ev[0], "event"), "\"error\"", "{line}");
            assert_eq!(field(&ev[0], "id"), "\"e\"", "{line}");
            let message = field(&ev[0], "message");
            assert!(
                message.contains(&format!("`{axis}`")) && message.contains(&format!("`{label}`")),
                "{line}: {message}"
            );
        }
        let (_, stats) = collect(&mut server, "{\"op\":\"stats\"}");
        assert_eq!(field(&stats[0], "sweeps"), "0");
        assert_eq!(field(&stats[0], "points"), "0");
    }

    #[test]
    fn blank_lines_are_ignored() {
        let mut server = Server::new(
            Executor::with_threads(1),
            tiny_scale(),
            &CacheSpec::disabled(),
        );
        let (alive, events) = collect(&mut server, "   ");
        assert!(alive);
        assert!(events.is_empty());
    }
}
