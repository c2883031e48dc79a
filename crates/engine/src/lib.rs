//! # hira-engine — deterministic parallel experiment orchestration
//!
//! The paper's evaluation is a large sweep — 125 8-core mixes ×
//! {NoRefresh, Baseline, HiRA-N} × PARA modes × channel/rank scaling — and
//! every figure of the reproduction is some slice of that space. This crate
//! is the shared scheduling/result layer all of `hira-bench` runs on:
//!
//! * [`Sweep`] / [`ScenarioKey`] — a declarative experiment description:
//!   axes are added with cartesian-product expansion ([`Sweep::axis`]) or
//!   point-dependent expansion ([`Sweep::expand`]), and every point carries
//!   a deterministic seed derived from its coordinates ([`derive_seed`]),
//! * [`Executor`] — a std-only multi-threaded executor
//!   (`std::thread::scope` + a shared atomic work queue; worker count from
//!   `HIRA_THREADS` or the machine's available parallelism) whose results
//!   are **bit-identical for any thread count**,
//! * [`RunSet`] / [`RunRecord`] — the structured result store with keyed
//!   lookup, axis aggregation, a tabular pretty-printer, a canonical JSON
//!   form (the determinism fingerprint) and a `BENCH_<sweep>.json` emitter
//!   for the perf trajectory,
//! * [`Registry`] — the one string-keyed registry behind every named sweep
//!   axis (policies, workloads, devices, plugins, probes): names and
//!   dynamic forms declared once, read by lookup, `--list` and the
//!   [`UnknownName`] error.
//!
//! ## Example
//!
//! ```rust
//! use hira_engine::{metric, Executor, Sweep};
//!
//! // Two axes, cartesian-expanded into four scenarios.
//! let sweep = Sweep::new("demo")
//!     .axis("n", [("1", 1u32), ("2", 2)], |_, &n| n)
//!     .axis("scale", [("x10", 10u32), ("x100", 100)], |&n, &s| n * s);
//! let run = Executor::with_threads(2)
//!     .run(&sweep, |sc| vec![metric("value", f64::from(*sc.params))]);
//! assert_eq!(run.value(&[("n", "2"), ("scale", "x100")], "value"), 200.0);
//! // The canonical form is byte-identical regardless of thread count.
//! assert_eq!(
//!     run.canonical_json(),
//!     Executor::with_threads(1)
//!         .run(&sweep, |sc| vec![metric("value", f64::from(*sc.params))])
//!         .canonical_json(),
//! );
//! ```

pub mod executor;
pub mod json;
pub mod pathkey;
pub mod record;
pub mod registry;
pub mod scenario;

pub use executor::{Executor, PointRun, RunObserver};
pub use pathkey::{sanitize_component, sanitize_key, suffix_path};
pub use record::{flabel, metric, Metric, PointTelemetry, RunRecord, RunSet};
pub use registry::{Handle, Registry, UnknownName};
pub use scenario::{derive_seed, Scenario, ScenarioKey, Sweep, DEFAULT_BASE_SEED};
