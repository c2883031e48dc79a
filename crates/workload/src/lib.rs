//! # hira-workload — the open workload frontend
//!
//! The paper's evaluation (§7) is driven entirely by 8-core multiprogrammed
//! memory behaviour, and refresh-policy conclusions shift materially with
//! access pattern, locality and arrival model. This crate does for demand
//! traffic what `hira_sim::policy` does for refresh: it turns the closed,
//! hard-coded SPEC-like roster into an open interface. A workload is any
//! type implementing [`Workload`], selected through a [`WorkloadHandle`]
//! and (for sweeps and CLI axes) the string-keyed [`WorkloadRegistry`].
//!
//! Three families ship out of the box:
//!
//! * [`spec`](mod@spec) — the SPEC CPU2006-like synthetic roster and its
//!   multiprogrammed [`mix`]es (§7's 125-mix suite), ported onto the trait
//!   bit-identically to the legacy generator,
//! * [`generators`] — parametric access-pattern generators: pure streams,
//!   uniform random, pointer chase, hotspot and zipfian locality,
//!   read/write-ratio sweeps and an open-loop fixed-arrival mode,
//! * [`trace`] — a line-oriented frontend replaying ramulator2-style
//!   `.trace` files (`<bubble_count> <addr> [W]` records), with a writer so
//!   any generator can be dumped and replayed bit-identically.
//!
//! ## The per-core contract
//!
//! A [`WorkloadHandle`] is a cloneable, name-identified factory. The system
//! builds **one instance per core** from a [`WorkloadEnv`] carrying the core
//! index, core count and the configuration seed; instances derive their
//! randomness from deterministic [`hira_dram::rng::Stream`]s keyed by those
//! coordinates, so a workload's traffic is a pure function of *what* it is
//! and *where* it runs — never of scheduling or thread count. Each core owns
//! the 1 GiB address window starting at [`WorkloadEnv::base_addr`], keeping
//! multiprogrammed address spaces disjoint.
//!
//! ## Adding a workload
//!
//! Implement the trait, wrap a factory in a handle, register it:
//!
//! ```rust
//! use hira_workload::{
//!     Family, Op, Workload, WorkloadEnv, WorkloadHandle, WorkloadProfile, WorkloadRegistry,
//! };
//!
//! /// Touches one line per kilo-instruction, forever. Useless — but a
//! /// complete workload.
//! #[derive(Debug)]
//! struct Metronome {
//!     line: u64,
//!     pending: bool,
//! }
//!
//! impl Workload for Metronome {
//!     fn name(&self) -> &str {
//!         "metronome"
//!     }
//!     fn next_access(&mut self) -> Op {
//!         if !self.pending {
//!             self.pending = true;
//!             return Op::Compute(999);
//!         }
//!         self.pending = false;
//!         self.line += 1;
//!         Op::Load(self.line * 64)
//!     }
//!     fn profile(&self) -> WorkloadProfile {
//!         WorkloadProfile {
//!             family: Family::Generator,
//!             summary: "one load per kilo-instruction".into(),
//!             mem_per_kinst: 1.0,
//!             store_frac: 0.0,
//!             footprint_lines: u64::MAX,
//!         }
//!     }
//! }
//!
//! let mut registry = WorkloadRegistry::standard();
//! registry.register(WorkloadHandle::new(
//!     "metronome",
//!     Family::Generator,
//!     "one load per kilo-instruction",
//!     |env| {
//!         Box::new(Metronome {
//!             line: env.base_addr() / 64,
//!             pending: false,
//!         })
//!     },
//! ));
//! let mut wl = registry.lookup("metronome").unwrap().build(&WorkloadEnv {
//!     core: 0,
//!     cores: 1,
//!     seed: 7,
//! });
//! assert!(matches!(wl.next_access(), Op::Compute(999)));
//! ```

pub mod generators;
pub mod registry;
pub mod spec;
pub mod trace;

pub use generators::{chase, hotspot, open_loop, random, rw, stream, zipf, GeneratorSpec};
pub use registry::{workload, WorkloadRegistry};
pub use spec::{benchmark, mix, mix_with_seed, roster, spec, Benchmark, BENCHMARKS};
pub use trace::{trace_file, ParseError, Trace, TraceRecord};

use hira_dram::rng::Stream;
use std::fmt;
use std::sync::Arc;

/// The closed-loop arrival draw the roster and the parametric generators
/// share: a geometric compute gap whose mean matches `mem_per_kinst`
/// (gap then access, so the inter-arrival expectation is exactly
/// `1000 / mem_per_kinst`). One definition keeps the two families'
/// arrival models provably identical.
pub(crate) fn geometric_gap(rng: &mut Stream, mem_per_kinst: f64) -> u32 {
    let per_inst = mem_per_kinst / 1000.0;
    let u = rng.next_f64().max(1e-12);
    ((u.ln() / (1.0 - per_inst.min(0.99)).ln()).floor() as u32).min(60_000)
}

/// One instruction-stream event a workload frontend emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` non-memory instructions, delivered as a single **run-length
    /// bubble** rather than one event per instruction. This is what lets
    /// the event-driven simulation kernel batch a whole compute bubble
    /// arithmetically (the core advances `n / width` cycles in O(1))
    /// instead of ticking through it — see the trait-level contract:
    /// frontends never emit two `Compute` events in a row.
    Compute(u32),
    /// A load of the 64 B line at this byte address.
    Load(u64),
    /// A store to the 64 B line at this byte address.
    Store(u64),
}

/// Bytes of address space each core owns (1 GiB), keeping multiprogrammed
/// address spaces disjoint.
pub const CORE_WINDOW_BYTES: u64 = 1 << 30;

/// Which of the shipped families a workload belongs to (registry listings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// SPEC-like synthetic roster benchmarks and their mixes.
    Synthetic,
    /// Parametric access-pattern generators.
    Generator,
    /// Replay of an on-disk (or embedded) trace file.
    Trace,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Family::Synthetic => "synthetic",
            Family::Generator => "generator",
            Family::Trace => "trace",
        })
    }
}

/// Self-describing workload metadata: what a frontend instance *expects* its
/// first-order memory behaviour to be. Registry listings (`--list`) and
/// sanity tests read this; the simulator never does.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// The family the workload belongs to.
    pub family: Family,
    /// One-line human description.
    pub summary: String,
    /// Expected memory operations (LLC-level accesses) per kilo-instruction.
    pub mem_per_kinst: f64,
    /// Expected fraction of memory operations that are stores.
    pub store_frac: f64,
    /// Footprint in 64 B lines (`u64::MAX` when unbounded).
    pub footprint_lines: u64,
}

/// Construction context handed to a workload factory: which core the
/// instance will drive, how many cores the system has, and the
/// configuration seed all per-core [`hira_dram::rng::Stream`]s derive from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadEnv {
    /// Core index the instance drives.
    pub core: usize,
    /// Cores in the system (mix composition, phase staggering).
    pub cores: usize,
    /// Deterministic configuration seed.
    pub seed: u64,
}

impl WorkloadEnv {
    /// Byte offset isolating this core's 1 GiB address window.
    pub fn base_addr(&self) -> u64 {
        self.core as u64 * CORE_WINDOW_BYTES
    }
}

/// A per-core demand-traffic frontend: the open replacement for the
/// hard-coded SPEC-like generator the simulator used to carry.
///
/// ## Contract
///
/// * [`next_access`](Self::next_access) is called whenever the core can
///   dispatch and must always return an event; frontends are infinite
///   (generators never exhaust, traces wrap around). Memory events are
///   separated by at most one [`Op::Compute`] gap — never emit two gaps in
///   a row. Two things depend on this run-length delivery: captured traces
///   replay bit-identically, and the event-driven simulation kernel can
///   treat each bubble as one closed-form skip (a gap split across several
///   `Compute` events would force it back to per-cycle ticking at every
///   seam).
/// * All randomness must come from [`hira_dram::rng::Stream`]s keyed by the
///   [`WorkloadEnv`] coordinates: two instances built from equal
///   environments must emit identical event sequences.
/// * [`on_roi_begin`](Self::on_roi_begin) /
///   [`on_roi_end`](Self::on_roi_end) bracket the measured region: the
///   system calls them when the core finishes warmup and when it retires its
///   instruction budget. Phase-aware workloads (e.g. a frontend that
///   streams through warmup and randomizes in the measured region — see
///   `examples/custom_workload.rs`) hook these; most frontends ignore
///   them, and the shipped families stay phase-free so captures replay
///   bit-identically through whole simulations.
pub trait Workload: fmt::Debug + Send {
    /// Instance name. For multiprogrammed mixes this is the *per-core*
    /// benchmark name (e.g. `mcf`), which is what weighted-speedup
    /// denominators are keyed by; for uniform workloads it equals the
    /// handle name.
    fn name(&self) -> &str;

    /// The next instruction-stream event.
    fn next_access(&mut self) -> Op;

    /// The core finished warmup and entered the region of interest.
    fn on_roi_begin(&mut self) {}

    /// The core retired its measured instruction budget.
    fn on_roi_end(&mut self) {}

    /// Self-describing metadata.
    fn profile(&self) -> WorkloadProfile;
}

/// Factory signature behind a [`WorkloadHandle`].
pub type WorkloadFactory = dyn Fn(&WorkloadEnv) -> Box<dyn Workload> + Send + Sync;

/// A cloneable, comparable *selection* of a workload: the registry key plus
/// the factory that builds per-core instances. This is what
/// `SystemConfig` stores and what sweeps pass around — equality and hashing
/// go by name, so two configs selecting the same registered workload
/// compare (and bucket) equal. Parameterized workloads must encode their
/// parameters in the name (`zipf80`, `mix3`, `trace:foo.trace`): the name
/// is the identity.
#[derive(Clone)]
pub struct WorkloadHandle {
    name: Arc<str>,
    family: Family,
    summary: Arc<str>,
    factory: Arc<WorkloadFactory>,
    /// See [`WorkloadHandle::content_digest`].
    pub(crate) content_digest: Option<u64>,
}

impl WorkloadHandle {
    /// Wraps a factory under a registry name with a one-line summary.
    pub fn new(
        name: impl Into<String>,
        family: Family,
        summary: impl Into<String>,
        factory: impl Fn(&WorkloadEnv) -> Box<dyn Workload> + Send + Sync + 'static,
    ) -> Self {
        WorkloadHandle {
            name: Arc::from(name.into()),
            family,
            summary: Arc::from(summary.into()),
            factory: Arc::new(factory),
            content_digest: None,
        }
    }

    /// A digest of the data the factory replays, for a workload whose
    /// name does not pin its content: a `trace:<path>` replay
    /// ([`crate::trace_file`]), whose file can change under the same path.
    /// Result caches key a workload by its name plus this digest. Not part
    /// of the identity: equality stays by name.
    pub fn content_digest(&self) -> Option<u64> {
        self.content_digest
    }

    /// The workload's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The family the workload belongs to.
    pub fn family(&self) -> Family {
        self.family
    }

    /// One-line description (registry `--list` output).
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// Builds the instance driving `env.core`.
    pub fn build(&self, env: &WorkloadEnv) -> Box<dyn Workload> {
        (self.factory)(env)
    }

    /// The per-core instance names a `cores`-core system under `seed` would
    /// run — the keys weighted-speedup denominators are cached by. Building
    /// an instance is cheap (no simulation), so this just builds and asks.
    pub fn instance_names(&self, cores: usize, seed: u64) -> Vec<String> {
        (0..cores)
            .map(|core| {
                self.build(&WorkloadEnv { core, cores, seed })
                    .name()
                    .to_owned()
            })
            .collect()
    }
}

impl fmt::Debug for WorkloadHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("WorkloadHandle").field(&self.name).finish()
    }
}

impl PartialEq for WorkloadHandle {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for WorkloadHandle {}

impl std::hash::Hash for WorkloadHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_compare_by_name() {
        assert_eq!(spec("mcf"), spec("mcf"));
        assert_ne!(spec("mcf"), spec("lbm"));
        assert_ne!(zipf(80), zipf(99));
        assert_ne!(mix(0), mix(1));
    }

    #[test]
    fn core_windows_are_disjoint() {
        let e0 = WorkloadEnv {
            core: 0,
            cores: 8,
            seed: 1,
        };
        let e3 = WorkloadEnv {
            core: 3,
            cores: 8,
            seed: 1,
        };
        assert_eq!(e0.base_addr(), 0);
        assert_eq!(e3.base_addr(), 3 << 30);
    }

    #[test]
    fn every_registered_workload_delivers_bubbles_run_length() {
        // The contract the event kernel's compute batching rides on: a
        // compute gap arrives as ONE `Op::Compute(n)`, never split into
        // consecutive events. Checked across the whole standard registry
        // (all three families) over a long prefix of each stream.
        for handle in registry::WorkloadRegistry::standard().handles() {
            let mut wl = handle.build(&WorkloadEnv {
                core: 0,
                cores: 2,
                seed: 11,
            });
            let mut prev_was_gap = false;
            for i in 0..20_000 {
                let gap = matches!(wl.next_access(), Op::Compute(_));
                assert!(
                    !(gap && prev_was_gap),
                    "{}: consecutive Compute events at op {i}",
                    handle.name()
                );
                prev_was_gap = gap;
            }
        }
    }

    #[test]
    fn instance_names_report_per_core_identities() {
        // A uniform workload repeats its own name; a mix reports its
        // per-core roster members.
        assert_eq!(stream().instance_names(3, 7), vec!["stream"; 3]);
        let names = mix(0).instance_names(8, 7);
        assert_eq!(names.len(), 8);
        assert!(names.iter().all(|n| benchmark(n).is_some()));
    }
}
