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
//!   was rejected (unparsable line, unknown name, empty grid); `id` is the
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
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

fn obj(entries: Vec<(&str, String)>) -> String {
    let mut out = String::new();
    json::write_object(&mut out, entries);
    out
}

fn jstr(s: &str) -> String {
    let mut out = String::new();
    json::write_str(&mut out, s);
    out
}

fn jf64(v: f64) -> String {
    let mut out = String::new();
    json::write_f64(&mut out, v);
    out
}

fn key_json(key: &ScenarioKey) -> String {
    let mut out = String::new();
    json::write_object(&mut out, key.axes().map(|(a, v)| (a, jstr(v))));
    out
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
                emit(&self.error_event(&id, &msg));
                true
            }
            Ok(Op::Shutdown) => {
                request_counter("shutdown").inc();
                emit(&obj(vec![("event", jstr("bye"))]));
                if let Some(s) = &self.sink {
                    s.flush();
                }
                false
            }
            Ok(Op::Stats) => {
                request_counter("stats").inc();
                let uptime_ms = self.started.elapsed().as_secs_f64() * 1e3;
                self.uptime.set(uptime_ms);
                emit(&obj(vec![
                    ("event", jstr("stats")),
                    ("sweeps", self.sweeps.to_string()),
                    ("points", self.totals.points.to_string()),
                    ("hits", self.totals.hits.to_string()),
                    ("misses", self.totals.misses.to_string()),
                    ("appended", self.totals.appended.to_string()),
                    ("uptime_ms", jf64(uptime_ms)),
                    ("sweeps_accepted", self.sweeps_accepted.to_string()),
                    ("points_streamed", self.streamed.get().to_string()),
                ]));
                true
            }
            Ok(Op::Metrics) => {
                request_counter("metrics").inc();
                emit(&obj(vec![
                    ("event", jstr("metrics")),
                    ("text", jstr(&self.metrics_text())),
                ]));
                true
            }
            Ok(Op::Sweep(spec)) => {
                request_counter("sweep").inc();
                if let Err(msg) = self.run_sweep(&spec, emit) {
                    emit(&self.error_event(&spec.id, &msg));
                }
                true
            }
        }
    }

    /// Counts and traces a rejected request; returns its `error` event.
    fn error_event(&self, id: &str, msg: &str) -> String {
        self.errors.inc();
        if let Some(s) = &self.sink {
            s.event(
                Level::Warn,
                "serve_error",
                &[field("line", self.lines), field("message", msg)],
            );
        }
        obj(vec![
            ("event", jstr("error")),
            ("id", jstr(id)),
            ("line", self.lines.to_string()),
            ("message", jstr(msg)),
        ])
    }

    fn run_sweep(&mut self, spec: &SweepSpec, emit: &(dyn Fn(&str) + Sync)) -> Result<(), String> {
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
        emit(&obj(vec![
            ("event", jstr("accepted")),
            ("id", jstr(&spec.id)),
            ("sweep", jstr(sweep.name())),
            ("points", plan.len().to_string()),
            ("hits", plan.hits().to_string()),
            ("misses", plan.misses().to_string()),
            ("skipped", skipped.to_string()),
        ]));

        let meters = &self.meters;
        let streamed = &self.streamed;
        let progress = Progress::new(plan.len());
        let on_point = |o: hira_store::PointOutcome<'_>| {
            let key = &sweep.points()[o.index].0;
            for m in &o.point.metrics {
                emit(&obj(vec![
                    ("event", jstr("record")),
                    ("id", jstr(&spec.id)),
                    ("cached", o.cached.to_string()),
                    ("key", key_json(key)),
                    ("metric", jstr(&m.name)),
                    ("value", jf64(m.value)),
                    ("wall_ms", jf64(o.point.wall_ms)),
                ]));
            }
            streamed.inc();
            meters.point(o.cached, o.queue_wait_ms, o.point.wall_ms);
            let snap = progress.point_done(o.cached);
            let rate = if snap.points_per_sec > 0.0 {
                jf64(snap.points_per_sec)
            } else {
                "null".to_owned()
            };
            emit(&obj(vec![
                ("event", jstr("progress")),
                ("id", jstr(&spec.id)),
                ("done", snap.done.to_string()),
                ("total", snap.total.to_string()),
                ("cached", snap.cached.to_string()),
                ("points_per_sec", rate),
                (
                    "eta_ms",
                    snap.eta_ms.map_or_else(|| "null".to_owned(), jf64),
                ),
            ]));
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
        emit(&obj(vec![
            ("event", jstr("done")),
            ("id", jstr(&spec.id)),
            ("points", stats.points.to_string()),
            ("hits", stats.hits.to_string()),
            ("misses", stats.misses.to_string()),
            ("appended", stats.appended.to_string()),
            ("wall_ms", jf64(run.wall_ms)),
        ]));
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
