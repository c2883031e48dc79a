//! # hira-probe — simulator instrumentation
//!
//! An object-safe observer interface threaded through the controller and
//! both simulation kernels: a [`Probe`] sees every issued DRAM command
//! ([`Probe::on_cmd`]), a periodic [`EpochSample`] time-series
//! ([`Probe::on_epoch`]) when it asks for a cadence via
//! [`Probe::epoch_cycles`], and the run's final [`SimResult`]
//! ([`Probe::on_run_end`]). The simulator is the only recorder: what it
//! already counts on every run (latency histograms, refresh and plugin
//! counters) a probe reads from the result instead of counting again.
//!
//! **Probes are read-only observers.** Attaching any probe leaves the
//! [`SimResult`] bit-identical to the probe-free run (enforced by
//! `tests/kernel_equivalence.rs` across policy × kernel), and the
//! no-probe path is a single branch on a `None` per notification site.
//!
//! Probes are selected like policies/workloads/devices: a cloneable,
//! name-identified [`ProbeHandle`] stored in
//! [`crate::config::SystemConfig::probe`] and installed via
//! [`crate::builder::SystemBuilder::probe`]. The dynamic registry forms
//! (`cmdtrace:<prefix>`, `epochs:<cycles>[:<path>]`, `latency:<path>`,
//! `act-exposure:<path>`) resolve through [`ProbeRegistry`] for the
//! `--probe=` axes.
//!
//! ## Writing a custom probe
//!
//! Implement [`Probe`] (every hook defaults to a no-op), wrap a factory in
//! a [`ProbeHandle`], and hand it to the builder. Shared state goes
//! through an `Arc` captured by the factory:
//!
//! ```
//! use hira_sim::builder::SystemBuilder;
//! use hira_sim::probe::{CmdEvent, DramCmd, Probe, ProbeHandle};
//! use hira_sim::system::System;
//! use std::sync::{Arc, Mutex};
//!
//! /// Counts ACT commands into a shared sink.
//! struct ActCounter(Arc<Mutex<u64>>);
//!
//! impl Probe for ActCounter {
//!     fn on_cmd(&mut self, ev: &CmdEvent) {
//!         if ev.cmd == DramCmd::Act {
//!             *self.0.lock().unwrap() += 1;
//!         }
//!     }
//! }
//!
//! let acts = Arc::new(Mutex::new(0u64));
//! let sink = acts.clone();
//! let handle = ProbeHandle::new("act-counter", move || {
//!     Box::new(ActCounter(sink.clone())) as Box<dyn Probe>
//! });
//! let cfg = SystemBuilder::new()
//!     .probe(handle)
//!     .insts(2_000, 400)
//!     .build()
//!     .unwrap();
//! let result = System::new(cfg).run();
//! // Every executed activation — demand and refresh — was observed.
//! let expected: u64 = result
//!     .channel_stats
//!     .iter()
//!     .map(|s| s.demand_acts + s.refresh_acts)
//!     .sum();
//! assert_eq!(*acts.lock().unwrap(), expected);
//! ```
//!
//! ## JSONL schemas
//!
//! The epoch sampler writes one JSON object per line:
//!
//! ```json
//! {"epoch":0,"cycle":20000,"mem_cycle":7500,"insts":1234,"ipc":0.77,
//!  "reads":96,"writes":12,"read_gbps":0.98,"write_gbps":0.12,
//!  "dbus_util":0.21,"row_hit_rate":0.63,"read_q":3,"write_q":0,
//!  "refresh_occupancy":0.04}
//! ```
//!
//! The latency probe writes two lines (`"kind":"read"` / `"write"`), each
//! with `count`, `p50`/`p90`/`p99`/`p999` (log2-bucket upper bounds, in
//! memory cycles) and the raw `buckets` array. The ACT-exposure probe
//! writes one line per row, hottest first, with the row's
//! [`neighbor_acts`]:
//! `{"channel":0,"rank":0,"bank":3,"row":4711,"acts":17,"neighbor_acts":5}`.

use crate::clock::MemCycle;
use crate::metrics::{LatencyHistogram, SimResult};
use hira_engine::registry::{named, Form, Registry};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A DRAM command mnemonic, as seen on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCmd {
    /// Row activation.
    Act,
    /// Single-bank precharge.
    Pre,
    /// All-bank precharge.
    PreA,
    /// Read CAS.
    Rd,
    /// Write CAS.
    Wr,
    /// Rank-level refresh.
    Ref,
    /// Per-bank refresh.
    RefPb,
}

impl DramCmd {
    /// The ramulator-style trace mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            DramCmd::Act => "ACT",
            DramCmd::Pre => "PRE",
            DramCmd::PreA => "PREA",
            DramCmd::Rd => "RD",
            DramCmd::Wr => "WR",
            DramCmd::Ref => "REF",
            DramCmd::RefPb => "REFpb",
        }
    }

    /// Parses a trace mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "ACT" => DramCmd::Act,
            "PRE" => DramCmd::Pre,
            "PREA" => DramCmd::PreA,
            "RD" => DramCmd::Rd,
            "WR" => DramCmd::Wr,
            "REF" => DramCmd::Ref,
            "REFpb" => DramCmd::RefPb,
            _ => return None,
        })
    }
}

/// One issued DRAM command. Commands are reported at *commit* time with
/// their scheduled command-bus cycle (`at`), so a probe sees each
/// operation's full schedule the moment the controller reserves it —
/// cycles within one operation are ordered, across operations they may
/// interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdEvent {
    /// Scheduled command-bus cycle (memory clock).
    pub at: MemCycle,
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index; `None` for rank-wide commands (`PREA`, `REF`).
    pub bank: Option<u16>,
    /// Row address; `Some` only for `ACT`.
    pub row: Option<u32>,
    /// The command mnemonic.
    pub cmd: DramCmd,
}

/// One periodic sample of the running system, taken every
/// [`Probe::epoch_cycles`] CPU cycles at exact dense-cycle boundaries —
/// identical sample-for-sample between the dense and event kernels
/// (the event kernel clamps its time skips to epoch boundaries; the
/// clamped-away cycles are provably no-ops, so results stay
/// bit-identical).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSample {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// CPU cycle of this epoch's *end* boundary.
    pub cycle: u64,
    /// Memory cycle at the boundary.
    pub mem_cycle: u64,
    /// Instructions retired across all cores during the epoch.
    pub insts: u64,
    /// Aggregate IPC over the epoch (`insts / epoch_cycles`).
    pub ipc: f64,
    /// Demand reads completed during the epoch.
    pub reads: u64,
    /// Demand writes issued during the epoch.
    pub writes: u64,
    /// Read bandwidth over the epoch in GB/s (64 B lines).
    pub read_gbps: f64,
    /// Write bandwidth over the epoch in GB/s.
    pub write_gbps: f64,
    /// Data-bus busy fraction over the epoch's memory cycles (all
    /// channels pooled).
    pub dbus_util: f64,
    /// Row-buffer hit rate over the epoch's demand CAS operations.
    pub row_hit_rate: f64,
    /// Read-queue occupancy at the boundary, summed over channels.
    pub read_q: u64,
    /// Write-queue occupancy at the boundary, summed over channels.
    pub write_q: u64,
    /// Fraction of bank-cycles the epoch spent blocked by refresh
    /// (refresh-busy bank-cycles / (memory cycles × total banks)).
    pub refresh_occupancy: f64,
}

/// An object-safe, read-only observer of one simulation run. Every hook
/// defaults to a no-op; implement only what you need. One probe instance
/// observes one [`crate::system::System`] (all channels), built fresh per
/// run by its [`ProbeHandle`] factory.
pub trait Probe: Send {
    /// Called for every DRAM command the controller schedules.
    fn on_cmd(&mut self, _ev: &CmdEvent) {}

    /// Called at every epoch boundary, when a cadence was requested.
    fn on_epoch(&mut self, _sample: &EpochSample) {}

    /// The epoch sampling period in CPU cycles; `None` (the default)
    /// disables epoch sampling. When probes are combined via
    /// [`ProbeHandle::multi`], the system samples at the *smallest*
    /// requested period and every member sees every sample (subsample in
    /// `on_epoch` if you need your exact cadence).
    fn epoch_cycles(&self) -> Option<u64> {
        None
    }

    /// Called once when the run finishes, with the final result — the
    /// flush point for file-writing probes, and where a probe reads what
    /// the simulator recorded (latency histograms, channel, policy and
    /// plugin counters).
    fn on_run_end(&mut self, _result: &SimResult) {}
}

/// Factory signature behind a [`ProbeHandle`].
pub type ProbeFactory = dyn Fn() -> Box<dyn Probe> + Send + Sync;

/// A cloneable, comparable *selection* of a probe: the registry name plus
/// the factory that builds per-run instances — the same shape as
/// [`crate::policy::PolicyHandle`]. Equality and hashing go by name, so
/// two configs selecting the same probe compare (and bucket) equal.
#[derive(Clone)]
pub struct ProbeHandle {
    name: Arc<str>,
    summary: Arc<str>,
    factory: Arc<ProbeFactory>,
}

impl ProbeHandle {
    /// Wraps a factory under a registry name. Parameterized probes encode
    /// their parameters in the name (e.g. `epochs:20000:out.jsonl`): the
    /// name is the identity.
    pub fn new(
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Probe> + Send + Sync + 'static,
    ) -> Self {
        ProbeHandle {
            name: Arc::from(name.into()),
            summary: Arc::from(""),
            factory: Arc::new(factory),
        }
    }

    /// Attaches a one-line description (`--list` output). Not part of the
    /// identity: equality stays by name.
    pub fn with_summary(mut self, summary: impl Into<String>) -> Self {
        self.summary = Arc::from(summary.into());
        self
    }

    /// The probe's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line description (empty when the registrant set none).
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// Builds one per-run instance.
    pub fn build(&self) -> Box<dyn Probe> {
        (self.factory)()
    }

    /// Fans one run out to several probes: every hook reaches every
    /// member, and the epoch cadence is the minimum of the members'
    /// requests. The combined name joins the members with `+`.
    ///
    /// # Panics
    ///
    /// Panics on an empty member list.
    pub fn multi(members: Vec<ProbeHandle>) -> ProbeHandle {
        assert!(!members.is_empty(), "ProbeHandle::multi needs members");
        let name = members
            .iter()
            .map(ProbeHandle::name)
            .collect::<Vec<_>>()
            .join("+");
        let summary = format!("fan-out to {} probes", members.len());
        ProbeHandle::new(name, move || {
            Box::new(MultiProbe {
                members: members.iter().map(ProbeHandle::build).collect(),
            })
        })
        .with_summary(summary)
    }
}

impl fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ProbeHandle").field(&self.name).finish()
    }
}

impl PartialEq for ProbeHandle {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for ProbeHandle {}

impl std::hash::Hash for ProbeHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

/// The fan-out behind [`ProbeHandle::multi`].
struct MultiProbe {
    members: Vec<Box<dyn Probe>>,
}

impl Probe for MultiProbe {
    fn on_cmd(&mut self, ev: &CmdEvent) {
        for m in &mut self.members {
            m.on_cmd(ev);
        }
    }

    fn on_epoch(&mut self, sample: &EpochSample) {
        for m in &mut self.members {
            m.on_epoch(sample);
        }
    }

    fn epoch_cycles(&self) -> Option<u64> {
        self.members.iter().filter_map(|m| m.epoch_cycles()).min()
    }

    fn on_run_end(&mut self, result: &SimResult) {
        for m in &mut self.members {
            m.on_run_end(result);
        }
    }
}

/// The simulator-side holder of an optional probe. [`ProbeHost::on_cmd`]
/// is `#[inline]` and takes the command's fields: when no probe is
/// attached the notification costs one branch on a `None`, and the
/// [`CmdEvent`] is built only behind that branch. No benchmark gates this
/// cost: `perf_kernel` compares the dense and event kernels, which both
/// pay it.
pub struct ProbeHost {
    inner: Option<Box<dyn Probe>>,
    epoch_every: Option<u64>,
}

impl ProbeHost {
    /// A host with no probe attached (every hook is a dead branch).
    pub fn disabled() -> Self {
        ProbeHost {
            inner: None,
            epoch_every: None,
        }
    }

    /// Wraps a built probe instance, caching its epoch request.
    pub fn attach(probe: Box<dyn Probe>) -> Self {
        let epoch_every = probe.epoch_cycles().filter(|&e| e > 0);
        ProbeHost {
            inner: Some(probe),
            epoch_every,
        }
    }

    /// Builds the host from an optional handle
    /// ([`crate::config::SystemConfig::probe`]).
    pub fn from_handle(handle: Option<&ProbeHandle>) -> Self {
        match handle {
            None => ProbeHost::disabled(),
            Some(h) => ProbeHost::attach(h.build()),
        }
    }

    /// True when a probe is attached.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// The attached probe's epoch cadence (CPU cycles), if it asked for
    /// epoch sampling.
    pub fn epoch_every(&self) -> Option<u64> {
        self.epoch_every
    }

    /// Notifies the probe of a command (the fields of a [`CmdEvent`]); the
    /// event is only built when a probe is attached.
    #[inline]
    pub fn on_cmd(
        &mut self,
        at: MemCycle,
        channel: usize,
        rank: usize,
        bank: Option<u16>,
        row: Option<u32>,
        cmd: DramCmd,
    ) {
        if let Some(p) = &mut self.inner {
            p.on_cmd(&CmdEvent {
                at,
                channel,
                rank,
                bank,
                row,
                cmd,
            });
        }
    }

    /// Delivers an epoch sample (the system only builds samples when
    /// [`ProbeHost::epoch_every`] is set).
    pub fn on_epoch(&mut self, sample: &EpochSample) {
        if let Some(p) = &mut self.inner {
            p.on_epoch(sample);
        }
    }

    /// Delivers the final result (flush point).
    pub fn on_run_end(&mut self, result: &SimResult) {
        if let Some(p) = &mut self.inner {
            p.on_run_end(result);
        }
    }
}

impl fmt::Debug for ProbeHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.active() {
            f.write_str("ProbeHost(attached)")
        } else {
            f.write_str("ProbeHost(off)")
        }
    }
}

// ---------------------------------------------------------------------------
// Built-in probe 1: ramulator-style DRAM command trace.
// ---------------------------------------------------------------------------

/// Creates `path` for writing, first creating any missing parent
/// directories — sweep tooling points probes at per-run output trees
/// (`out/probes/cmds.ch0.cmdtrace`) that don't exist yet.
fn create_output_file(path: &Path) -> std::io::Result<File> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    File::create(path)
}

/// Writes a ramulator-style per-channel command trace: one
/// `<prefix>.ch<N>.cmdtrace` file per channel, one line per command —
/// `clk,CMD[,rank[,bank[,row]]]` with rank-wide commands (`PREA`, `REF`)
/// omitting the bank and only `ACT` carrying the row. Buffered; flushed
/// at run end. Parse it back with [`parse_cmdtrace`].
pub struct CmdTraceProbe {
    prefix: PathBuf,
    writers: Vec<Option<BufWriter<File>>>,
}

impl CmdTraceProbe {
    /// A command-trace probe writing `<prefix>.ch<N>.cmdtrace` files.
    pub fn handle(prefix: impl Into<PathBuf>) -> ProbeHandle {
        let prefix = prefix.into();
        let name = format!("cmdtrace:{}", prefix.display());
        ProbeHandle::new(name, move || {
            Box::new(CmdTraceProbe {
                prefix: prefix.clone(),
                writers: Vec::new(),
            }) as Box<dyn Probe>
        })
        .with_summary("per-channel ramulator-style DRAM command trace")
    }

    /// The trace path for channel `channel` under `prefix`.
    pub fn channel_path(prefix: &Path, channel: usize) -> PathBuf {
        let mut s = prefix.as_os_str().to_owned();
        s.push(format!(".ch{channel}.cmdtrace"));
        PathBuf::from(s)
    }

    fn writer(&mut self, channel: usize) -> &mut BufWriter<File> {
        if channel >= self.writers.len() {
            self.writers.resize_with(channel + 1, || None);
        }
        self.writers[channel].get_or_insert_with(|| {
            let path = Self::channel_path(&self.prefix, channel);
            BufWriter::new(create_output_file(&path).unwrap_or_else(|e| {
                panic!("cmdtrace probe: cannot create {}: {e}", path.display())
            }))
        })
    }
}

impl Probe for CmdTraceProbe {
    fn on_cmd(&mut self, ev: &CmdEvent) {
        // Only `ACT` carries its row in the trace format; CAS events carry
        // the row in-memory for other probes, but a trace line must have
        // exactly the fields its mnemonic declares (see `parse_cmdtrace`).
        let rec = CmdTraceRecord {
            at: ev.at,
            cmd: ev.cmd,
            rank: ev.rank,
            bank: ev.bank,
            row: ev.row.filter(|_| ev.cmd == DramCmd::Act),
        };
        writeln!(self.writer(ev.channel), "{rec}").expect("cmdtrace probe: write failed");
    }

    fn on_run_end(&mut self, _result: &SimResult) {
        for w in self.writers.iter_mut().flatten() {
            w.flush().expect("cmdtrace probe: flush failed");
        }
    }
}

/// One parsed command-trace line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdTraceRecord {
    /// Command-bus cycle.
    pub at: MemCycle,
    /// The command.
    pub cmd: DramCmd,
    /// Rank index.
    pub rank: usize,
    /// Bank, where the command is bank-granular.
    pub bank: Option<u16>,
    /// Row, for `ACT`.
    pub row: Option<u32>,
}

/// The trace line (without its newline): `clk,CMD,rank[,bank[,row]]`.
impl fmt::Display for CmdTraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{},{}", self.at, self.cmd.mnemonic(), self.rank)?;
        if let Some(bank) = self.bank {
            write!(f, ",{bank}")?;
            if let Some(row) = self.row {
                write!(f, ",{row}")?;
            }
        }
        Ok(())
    }
}

/// Parses (and validates) one channel's command-trace text: every line
/// must be `clk,CMD,rank[,bank[,row]]` with a known mnemonic and exactly
/// the fields that mnemonic carries — `ACT` a bank and row, bank-granular
/// commands (`PRE`, `RD`, `WR`, `REFpb`) a bank, rank-wide commands
/// (`PREA`, `REF`) neither.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn parse_cmdtrace(text: &str) -> Result<Vec<CmdTraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 3 {
            return Err(format!("line {lineno}: expected clk,CMD,rank: `{line}`"));
        }
        let at: MemCycle = fields[0]
            .parse()
            .map_err(|_| format!("line {lineno}: bad clk `{}`", fields[0]))?;
        let cmd = DramCmd::from_mnemonic(fields[1])
            .ok_or_else(|| format!("line {lineno}: unknown command `{}`", fields[1]))?;
        let rank: usize = fields[2]
            .parse()
            .map_err(|_| format!("line {lineno}: bad rank `{}`", fields[2]))?;
        let expected_fields = match cmd {
            DramCmd::Act => 5,
            DramCmd::Pre | DramCmd::Rd | DramCmd::Wr | DramCmd::RefPb => 4,
            DramCmd::PreA | DramCmd::Ref => 3,
        };
        if fields.len() != expected_fields {
            return Err(format!(
                "line {lineno}: {} carries {} fields, got {}: `{line}`",
                cmd.mnemonic(),
                expected_fields,
                fields.len()
            ));
        }
        let bank: Option<u16> = if expected_fields >= 4 {
            Some(
                fields[3]
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad bank `{}`", fields[3]))?,
            )
        } else {
            None
        };
        let row: Option<u32> = if expected_fields >= 5 {
            Some(
                fields[4]
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad row `{}`", fields[4]))?,
            )
        } else {
            None
        };
        out.push(CmdTraceRecord {
            at,
            cmd,
            rank,
            bank,
            row,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Built-in probe 2: epoch time-series sampler.
// ---------------------------------------------------------------------------

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serializes one [`EpochSample`] as its JSONL line (the schema in the
/// module docs).
pub fn epoch_jsonl_line(s: &EpochSample) -> String {
    format!(
        "{{\"epoch\":{},\"cycle\":{},\"mem_cycle\":{},\"insts\":{},\"ipc\":{},\
         \"reads\":{},\"writes\":{},\"read_gbps\":{},\"write_gbps\":{},\
         \"dbus_util\":{},\"row_hit_rate\":{},\"read_q\":{},\"write_q\":{},\
         \"refresh_occupancy\":{}}}",
        s.epoch,
        s.cycle,
        s.mem_cycle,
        s.insts,
        json_f64(s.ipc),
        s.reads,
        s.writes,
        json_f64(s.read_gbps),
        json_f64(s.write_gbps),
        json_f64(s.dbus_util),
        json_f64(s.row_hit_rate),
        s.read_q,
        s.write_q,
        json_f64(s.refresh_occupancy)
    )
}

/// Writes the epoch time-series as JSONL (one [`EpochSample`] object per
/// line; schema in the module docs).
pub struct EpochJsonlProbe {
    every: u64,
    path: PathBuf,
    out: Option<BufWriter<File>>,
}

impl EpochJsonlProbe {
    /// An epoch sampler with period `every` CPU cycles writing to `path`.
    ///
    /// # Panics
    ///
    /// Panics (at build time) when `every` is zero.
    pub fn handle(every: u64, path: impl Into<PathBuf>) -> ProbeHandle {
        assert!(every > 0, "epoch period must be positive");
        let path = path.into();
        let name = format!("epochs:{}:{}", every, path.display());
        ProbeHandle::new(name, move || {
            Box::new(EpochJsonlProbe {
                every,
                path: path.clone(),
                out: None,
            }) as Box<dyn Probe>
        })
        .with_summary("epoch time-series sampler (JSONL)")
    }
}

impl Probe for EpochJsonlProbe {
    fn on_epoch(&mut self, sample: &EpochSample) {
        let path = &self.path;
        let w =
            self.out.get_or_insert_with(|| {
                BufWriter::new(create_output_file(path).unwrap_or_else(|e| {
                    panic!("epoch probe: cannot create {}: {e}", path.display())
                }))
            });
        writeln!(w, "{}", epoch_jsonl_line(sample)).expect("epoch probe: write failed");
    }

    fn epoch_cycles(&self) -> Option<u64> {
        Some(self.every)
    }

    fn on_run_end(&mut self, _result: &SimResult) {
        // A run shorter than one epoch still leaves a (valid, empty) file
        // behind — predictable artifacts for sweep tooling.
        let path = &self.path;
        let w =
            self.out.get_or_insert_with(|| {
                BufWriter::new(create_output_file(path).unwrap_or_else(|e| {
                    panic!("epoch probe: cannot create {}: {e}", path.display())
                }))
            });
        w.flush().expect("epoch probe: flush failed");
    }
}

/// In-memory epoch collector for tests and library use: returns the
/// handle plus the shared vector the samples land in (in firing order).
pub fn epoch_collector(every: u64) -> (ProbeHandle, Arc<Mutex<Vec<EpochSample>>>) {
    assert!(every > 0, "epoch period must be positive");
    let sink: Arc<Mutex<Vec<EpochSample>>> = Arc::new(Mutex::new(Vec::new()));
    let captured = sink.clone();
    struct Collector {
        every: u64,
        sink: Arc<Mutex<Vec<EpochSample>>>,
    }
    impl Probe for Collector {
        fn on_epoch(&mut self, sample: &EpochSample) {
            self.sink.lock().expect("epoch sink").push(sample.clone());
        }
        fn epoch_cycles(&self) -> Option<u64> {
            Some(self.every)
        }
    }
    let handle = ProbeHandle::new(format!("epochs-mem:{every}"), move || {
        Box::new(Collector {
            every,
            sink: captured.clone(),
        }) as Box<dyn Probe>
    })
    .with_summary("in-memory epoch collector");
    (handle, sink)
}

// ---------------------------------------------------------------------------
// Built-in probe 3: latency distribution (a JSONL export of the always-on
// SimResult histograms).
// ---------------------------------------------------------------------------

fn latency_jsonl_lines(read: &LatencyHistogram, write: &LatencyHistogram) -> String {
    let mut out = String::new();
    for (kind, h) in [("read", read), ("write", write)] {
        let q = |p: f64| match h.quantile(p) {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        let buckets = h
            .buckets
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{{\"kind\":\"{kind}\",\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
             \"p999\":{},\"buckets\":[{buckets}]}}\n",
            h.count(),
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999)
        ));
    }
    out
}

/// Writes the run's read/write latency histograms
/// ([`SimResult::read_latency_histogram`] and
/// [`SimResult::write_latency_histogram`], which the controller records
/// on every run) as a two-line JSONL summary (p50/p90/p99/p999 + raw
/// buckets) at run end.
pub struct LatencyProbe {
    path: PathBuf,
}

impl LatencyProbe {
    /// A latency-distribution probe writing its summary to `path`.
    pub fn handle(path: impl Into<PathBuf>) -> ProbeHandle {
        let path = path.into();
        let name = format!("latency:{}", path.display());
        ProbeHandle::new(name, move || {
            Box::new(LatencyProbe { path: path.clone() }) as Box<dyn Probe>
        })
        .with_summary("read/write latency histograms + quantiles (JSONL)")
    }
}

impl Probe for LatencyProbe {
    fn on_run_end(&mut self, result: &SimResult) {
        let lines = latency_jsonl_lines(
            &result.read_latency_histogram(),
            &result.write_latency_histogram(),
        );
        std::fs::write(&self.path, lines)
            .unwrap_or_else(|e| panic!("latency probe: cannot write {}: {e}", self.path.display()));
    }
}

// ---------------------------------------------------------------------------
// Built-in probe 4: per-row ACT exposure (the RowHammer hook).
// ---------------------------------------------------------------------------

/// A fully-qualified row address, the ACT-exposure counting key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowAddr {
    /// Channel index.
    pub channel: usize,
    /// Rank index.
    pub rank: usize,
    /// Bank index.
    pub bank: u16,
    /// Row address.
    pub row: u32,
}

/// How many hottest rows the file-writing ACT-exposure probe reports.
pub const ACT_EXPOSURE_TOP: usize = 64;

/// Counts activations per row — demand, refresh and preventive alike —
/// the exposure stream RowHammer defense studies consume. The
/// file-writing form emits the [`ACT_EXPOSURE_TOP`] hottest rows as JSONL
/// at run end (hottest first, ties broken by address for determinism),
/// each with its [`neighbor_acts`] alongside.
pub struct ActExposureProbe {
    counts: HashMap<RowAddr, u64>,
    path: PathBuf,
}

impl ActExposureProbe {
    /// An ACT-exposure probe writing its top-row summary to `path`.
    pub fn handle(path: impl Into<PathBuf>) -> ProbeHandle {
        let path = path.into();
        let name = format!("act-exposure:{}", path.display());
        ProbeHandle::new(name, move || {
            Box::new(ActExposureProbe {
                counts: HashMap::new(),
                path: path.clone(),
            }) as Box<dyn Probe>
        })
        .with_summary("per-row ACT-exposure counter (JSONL top rows)")
    }

    fn count(counts: &mut HashMap<RowAddr, u64>, ev: &CmdEvent) {
        if ev.cmd != DramCmd::Act {
            return;
        }
        let (Some(bank), Some(row)) = (ev.bank, ev.row) else {
            return;
        };
        *counts
            .entry(RowAddr {
                channel: ev.channel,
                rank: ev.rank,
                bank,
                row,
            })
            .or_insert(0) += 1;
    }
}

/// The neighbor (victim-row) exposure of `addr` under the per-row ACT
/// counts `acts`: the activations of row `r + 1`, plus those of `r - 1`
/// when `r ≥ 1`. Deliberately geometry-free — an activation of a bank's
/// last row still counts toward the row past it — so summed over every
/// row adjacent to an activated one it equals
/// [`crate::plugin::ExposureTracker`]'s `neighbor_increments` over the
/// same run (the probe-vs-plugin consistency check).
pub fn neighbor_acts(acts: &HashMap<RowAddr, u64>, addr: RowAddr) -> u64 {
    let of = |row: Option<u32>| {
        row.and_then(|row| acts.get(&RowAddr { row, ..addr }))
            .copied()
            .unwrap_or(0)
    };
    of(addr.row.checked_add(1)) + of(addr.row.checked_sub(1))
}

impl Probe for ActExposureProbe {
    fn on_cmd(&mut self, ev: &CmdEvent) {
        Self::count(&mut self.counts, ev);
    }

    fn on_run_end(&mut self, _result: &SimResult) {
        let mut rows: Vec<(&RowAddr, &u64)> = self.counts.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let mut out = String::new();
        for (addr, acts) in rows.into_iter().take(ACT_EXPOSURE_TOP) {
            let neighbor_acts = neighbor_acts(&self.counts, *addr);
            out.push_str(&format!(
                "{{\"channel\":{},\"rank\":{},\"bank\":{},\"row\":{},\"acts\":{acts},\
                 \"neighbor_acts\":{neighbor_acts}}}\n",
                addr.channel, addr.rank, addr.bank, addr.row
            ));
        }
        std::fs::write(&self.path, out).unwrap_or_else(|e| {
            panic!(
                "act-exposure probe: cannot write {}: {e}",
                self.path.display()
            )
        });
    }
}

/// In-memory ACT-exposure collector: returns the handle plus the shared
/// per-row count map (live — updated as the run executes).
pub fn act_exposure_collector() -> (ProbeHandle, Arc<Mutex<HashMap<RowAddr, u64>>>) {
    let sink: Arc<Mutex<HashMap<RowAddr, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let captured = sink.clone();
    struct Collector {
        sink: Arc<Mutex<HashMap<RowAddr, u64>>>,
    }
    impl Probe for Collector {
        fn on_cmd(&mut self, ev: &CmdEvent) {
            ActExposureProbe::count(&mut self.sink.lock().expect("exposure sink"), ev);
        }
    }
    let handle = ProbeHandle::new("act-exposure-mem", move || {
        Box::new(Collector {
            sink: captured.clone(),
        }) as Box<dyn Probe>
    })
    .with_summary("in-memory ACT-exposure collector");
    (handle, sink)
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

/// The string-keyed probe registry (see [`hira_engine::Registry`]).
pub type ProbeRegistry = Registry<ProbeHandle>;

// The probe axis: every built-in form is dynamic (parameterized), so it
// registers no fixed handle.
hira_engine::axis!(
    ProbeHandle,
    "probe",
    Vec::new,
    &[
        Form {
            grammar: "cmdtrace:<prefix>",
            summary: "ramulator-style command trace, one <prefix>.ch<N>.cmdtrace per channel",
            example: "cmdtrace:out",
            parse: |spec| {
                let prefix = spec.strip_prefix("cmdtrace:")?;
                (!prefix.is_empty()).then(|| CmdTraceProbe::handle(prefix))
            },
        },
        Form {
            grammar: "epochs:<cycles>[:<path>]",
            summary: "epoch time-series sampler, JSONL (default path epochs.jsonl)",
            example: "epochs:5000:ts.jsonl",
            parse: |spec| {
                let rest = spec.strip_prefix("epochs:")?;
                let (every, path) = match rest.split_once(':') {
                    Some((e, p)) if !p.is_empty() => (e, p),
                    Some((e, _)) => (e, "epochs.jsonl"),
                    None => (rest, "epochs.jsonl"),
                };
                let every: u64 = every.parse().ok().filter(|&e| e > 0)?;
                Some(EpochJsonlProbe::handle(every, path))
            },
        },
        Form {
            grammar: "latency:<path>",
            summary: "read/write latency histograms + p50/p90/p99/p999, JSONL",
            example: "latency:lat.jsonl",
            parse: |spec| {
                let path = spec.strip_prefix("latency:")?;
                (!path.is_empty()).then(|| LatencyProbe::handle(path))
            },
        },
        Form {
            grammar: "act-exposure:<path>",
            summary: "per-row ACT-exposure counts, JSONL top rows",
            example: "act-exposure:acts.jsonl",
            parse: |spec| {
                let path = spec.strip_prefix("act-exposure:")?;
                (!path.is_empty()).then(|| ActExposureProbe::handle(path))
            },
        },
    ],
    None,
);

/// CLI shortcut: resolves a probe spec through the standard registry (the
/// typed-error path is [`crate::builder::SystemBuilder::probe_name`]).
///
/// # Panics
///
/// Panics when the spec does not resolve.
pub fn probe(spec: &str) -> ProbeHandle {
    named(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_compare_by_name() {
        let a = CmdTraceProbe::handle("x");
        let b = CmdTraceProbe::handle("x");
        let c = CmdTraceProbe::handle("y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.name(), "cmdtrace:x");
        assert!(!a.summary().is_empty());
    }

    #[test]
    fn registry_resolves_every_documented_form() {
        let reg = ProbeRegistry::standard();
        assert_eq!(reg.lookup("cmdtrace:out").unwrap().name(), "cmdtrace:out");
        assert_eq!(
            reg.lookup("epochs:5000:ts.jsonl").unwrap().name(),
            "epochs:5000:ts.jsonl"
        );
        assert_eq!(
            reg.lookup("epochs:5000").unwrap().name(),
            "epochs:5000:epochs.jsonl",
            "path defaults"
        );
        assert_eq!(
            reg.lookup("latency:lat.jsonl").unwrap().name(),
            "latency:lat.jsonl"
        );
        assert_eq!(
            reg.lookup("act-exposure:acts.jsonl").unwrap().name(),
            "act-exposure:acts.jsonl"
        );
        for bad in [
            "nope",
            "nope:x",
            "cmdtrace:",
            "epochs:0:x",
            "epochs:abc",
            "latency:",
        ] {
            assert!(reg.lookup(bad).is_none(), "`{bad}` resolved");
        }
        assert_eq!(reg.forms().len(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown probe `not-a-probe`")]
    fn probe_shortcut_panics_with_the_grammar() {
        probe("not-a-probe");
    }

    #[test]
    fn cmdtrace_lines_roundtrip_through_the_parser() {
        let text = "12,ACT,0,3,4711\n15,PRE,0,3\n20,RD,1,2\n30,PREA,0\n35,REF,0\n40,REFpb,1,7\n";
        let recs = parse_cmdtrace(text).unwrap();
        assert_eq!(recs.len(), 6);
        assert_eq!(
            recs[0],
            CmdTraceRecord {
                at: 12,
                cmd: DramCmd::Act,
                rank: 0,
                bank: Some(3),
                row: Some(4711),
            }
        );
        assert_eq!(recs[3].bank, None, "PREA is rank-wide");
        assert_eq!(recs[5].cmd, DramCmd::RefPb);
        // Field-count validation per mnemonic.
        assert!(parse_cmdtrace("12,ACT,0,3").is_err(), "ACT without row");
        assert!(parse_cmdtrace("12,REF,0,3").is_err(), "REF with bank");
        assert!(parse_cmdtrace("12,NOP,0").is_err(), "unknown mnemonic");
        assert!(parse_cmdtrace("x,ACT,0,3,1").is_err(), "bad clk");
    }

    #[test]
    fn multi_fans_out_and_takes_the_minimum_epoch() {
        let (fine, fine_sink) = epoch_collector(100);
        let (coarse, coarse_sink) = epoch_collector(300);
        let multi = ProbeHandle::multi(vec![fine, coarse]);
        assert_eq!(multi.name(), "epochs-mem:100+epochs-mem:300");
        let mut built = multi.build();
        assert_eq!(built.epoch_cycles(), Some(100));
        let sample = EpochSample {
            epoch: 0,
            cycle: 100,
            mem_cycle: 37,
            insts: 10,
            ipc: 0.1,
            reads: 1,
            writes: 0,
            read_gbps: 0.5,
            write_gbps: 0.0,
            dbus_util: 0.1,
            row_hit_rate: 0.0,
            read_q: 0,
            write_q: 0,
            refresh_occupancy: 0.0,
        };
        built.on_epoch(&sample);
        assert_eq!(fine_sink.lock().unwrap().len(), 1);
        assert_eq!(coarse_sink.lock().unwrap().len(), 1, "members see all");
        assert_eq!(fine_sink.lock().unwrap()[0], sample);
    }

    #[test]
    fn epoch_jsonl_line_matches_the_documented_schema() {
        let s = EpochSample {
            epoch: 2,
            cycle: 60000,
            mem_cycle: 22500,
            insts: 5000,
            ipc: 0.25,
            reads: 40,
            writes: 8,
            read_gbps: 1.5,
            write_gbps: 0.25,
            dbus_util: 0.5,
            row_hit_rate: 0.75,
            read_q: 2,
            write_q: 1,
            refresh_occupancy: 0.125,
        };
        let line = epoch_jsonl_line(&s);
        assert!(line.starts_with("{\"epoch\":2,\"cycle\":60000,"));
        assert!(line.contains("\"ipc\":0.25"));
        assert!(line.contains("\"refresh_occupancy\":0.125"));
        assert!(line.ends_with('}'));
        for key in [
            "mem_cycle",
            "insts",
            "reads",
            "writes",
            "read_gbps",
            "write_gbps",
            "dbus_util",
            "row_hit_rate",
            "read_q",
            "write_q",
        ] {
            assert!(line.contains(&format!("\"{key}\":")), "missing {key}");
        }
    }

    #[test]
    fn latency_jsonl_carries_quantiles_and_buckets() {
        let mut read = LatencyHistogram::default();
        for _ in 0..99 {
            read.record(40);
        }
        read.record(2000);
        let lines = latency_jsonl_lines(&read, &LatencyHistogram::default());
        let mut it = lines.lines();
        let r = it.next().unwrap();
        let w = it.next().unwrap();
        assert!(r.contains("\"kind\":\"read\"") && r.contains("\"count\":100"));
        assert!(
            r.contains("\"p50\":63") && r.contains("\"p999\":2047"),
            "{r}"
        );
        assert!(w.contains("\"kind\":\"write\"") && w.contains("\"p50\":null"));
    }

    #[test]
    fn act_exposure_counts_only_activations() {
        let (handle, sink) = act_exposure_collector();
        let mut p = handle.build();
        let act = CmdEvent {
            at: 10,
            channel: 0,
            rank: 0,
            bank: Some(3),
            row: Some(99),
            cmd: DramCmd::Act,
        };
        p.on_cmd(&act);
        p.on_cmd(&act);
        p.on_cmd(&CmdEvent {
            cmd: DramCmd::Pre,
            row: None,
            ..act
        });
        let counts = sink.lock().unwrap();
        assert_eq!(counts.len(), 1);
        assert_eq!(
            counts[&RowAddr {
                channel: 0,
                rank: 0,
                bank: 3,
                row: 99
            }],
            2
        );
    }

    #[test]
    fn act_exposure_neighbor_counts_use_geometry_free_guards() {
        let (handle, sink) = act_exposure_collector();
        let mut p = handle.build();
        let at = |row| CmdEvent {
            at: 0,
            channel: 0,
            rank: 0,
            bank: Some(1),
            row: Some(row),
            cmd: DramCmd::Act,
        };
        p.on_cmd(&at(0)); // row 0: only the upper neighbor exists
        p.on_cmd(&at(5));
        p.on_cmd(&at(5));
        let acts = sink.lock().unwrap();
        assert_eq!(acts.len(), 2);
        let row = |r| RowAddr {
            channel: 0,
            rank: 0,
            bank: 1,
            row: r,
        };
        let n = |r| neighbor_acts(&acts, row(r));
        assert_eq!(n(1), 1);
        assert_eq!(n(4), 2);
        assert_eq!(n(6), 2);
        assert_eq!(n(1) + n(4) + n(6), 5, "row 0 has no lower neighbor");
        assert_eq!(n(0) + n(5) + n(u32::MAX), 0, "no activated neighbor");
    }

    #[test]
    fn probe_host_inactive_is_inert() {
        let mut host = ProbeHost::disabled();
        assert!(!host.active());
        assert_eq!(host.epoch_every(), None);
        host.on_cmd(12, 1, 0, Some(3), Some(4711), DramCmd::Act);
        host.on_run_end(&SimResult::default());
        // Attached, the same call reaches the probe as one `CmdEvent`.
        let (handle, sink) = act_exposure_collector();
        let mut host = ProbeHost::attach(handle.build());
        assert!(host.active());
        host.on_cmd(12, 1, 0, Some(3), Some(4711), DramCmd::Act);
        let row = RowAddr {
            channel: 1,
            rank: 0,
            bank: 3,
            row: 4711,
        };
        assert_eq!(*sink.lock().unwrap(), HashMap::from([(row, 1)]));
    }
}
