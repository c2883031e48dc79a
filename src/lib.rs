//! # hira — facade crate for the HiRA (MICRO 2022) reproduction
//!
//! Re-exports the workspace crates under one roof so examples, integration
//! tests, and downstream users can depend on a single package:
//!
//! * [`dram`] — circuit-behavioural DDR4 chip/module model,
//! * [`softmc`] — SoftMC-style testing infrastructure,
//! * [`characterize`] — §4's characterization experiments (Algorithms 1 & 2),
//! * [`core`] — the HiRA operation, HiRA-MC, PARA and the security analysis,
//! * [`workload`] — the open workload frontend: the SPEC-like roster and
//!   its mixes, parametric generators, and `.trace` replay behind one
//!   trait + registry,
//! * [`sim`] — the cycle-level system simulator behind §7-§10,
//! * [`engine`] — the deterministic parallel experiment-orchestration
//!   subsystem every `hira-bench` figure binary runs on,
//! * [`obs`] — structured tracing (JSONL spans/events), the metrics
//!   registry (Prometheus text exposition) and live sweep progress,
//! * [`store`] — the content-addressed sweep-result cache: append-only
//!   JSONL store plus the cache-aware executor path.
//!
//! ## Quickstart
//!
//! ```rust
//! use hira::core::hira_op::HiraOperation;
//! use hira::dram::timing::TimingParams;
//!
//! let timing = TimingParams::ddr4_2400();
//! let op = HiraOperation::nominal();
//! // HiRA refreshes two rows in 38 ns instead of 78.25 ns (−51.4 %).
//! assert!(op.two_row_refresh_ns(&timing) < timing.two_row_refresh_ns());
//! ```

pub use hira_characterize as characterize;
pub use hira_core as core;
pub use hira_dram as dram;
pub use hira_engine as engine;
pub use hira_obs as obs;
pub use hira_sim as sim;
pub use hira_softmc as softmc;
pub use hira_store as store;
pub use hira_workload as workload;

/// The one-stop import for examples, tests and downstream users: system
/// construction ([`prelude::SystemBuilder`]), the open refresh-policy API
/// ([`prelude::policy`], [`prelude::PolicyRegistry`]), the open workload
/// frontend ([`prelude::WorkloadRegistry`], [`prelude::mix`], generators,
/// trace replay), the open device axis ([`prelude::device`],
/// [`prelude::DeviceRegistry`], the standard presets), the controller
/// plugins ([`prelude::plugin`], [`prelude::PluginRegistry`], the shipped
/// RowHammer defenses), the observability layer ([`prelude::probe`],
/// [`prelude::ProbeRegistry`], [`prelude::epoch_collector`]), the
/// simulator, and the experiment-orchestration engine.
///
/// ```rust
/// use hira::prelude::*;
///
/// let cfg = SystemBuilder::new()
///     .chip_gbit(32.0)
///     .policy(policy::hira(4))
///     .workload(mix(1)) // or .workload_name("zipf80"), "trace:<path>", …
///     .insts(2_000, 400)
///     .build()
///     .unwrap();
/// let result = System::new(cfg).run();
/// assert_eq!(result.ipc.len(), 8);
/// ```
pub mod prelude {
    pub use hira_core::config::HiraConfig;
    pub use hira_core::finder::McStats;
    pub use hira_core::security::{solve_pth, SecurityParams};
    pub use hira_dram::addr::{BankId, RowId};
    pub use hira_dram::timing::{HiraTimings, TimingParams};
    pub use hira_dram::{DramModule, ModuleSpec};
    pub use hira_engine::{
        derive_seed, flabel, metric, Executor, PointTelemetry, RunRecord, RunSet, Scenario,
        ScenarioKey, Sweep,
    };
    pub use hira_obs::{Level, MetricsRegistry, Progress, TraceSink};
    pub use hira_sim::builder::{BuildError, SystemBuilder};
    pub use hira_sim::clock::MemClock;
    pub use hira_sim::device::{
        self, CommandTable, DeviceHandle, DeviceModel, DeviceProfile, DeviceRegistry,
    };
    pub use hira_sim::plugin::{
        self, ControllerPlugin, PluginEnv, PluginHandle, PluginRegistry, PluginStats,
    };
    pub use hira_sim::policy::{
        self, DemandDecision, PolicyEnv, PolicyHandle, PolicyRegistry, PolicyStats, RankView,
        RefreshAction, RefreshPolicy,
    };
    pub use hira_sim::probe::{
        self, epoch_collector, CmdEvent, DramCmd, EpochSample, Probe, ProbeHandle, ProbeRegistry,
    };
    pub use hira_sim::system::RunTelemetry;
    pub use hira_sim::{KernelMode, SimResult, System, SystemConfig};
    pub use hira_store::{
        code_version_salt, CacheExecutorExt, CacheStats, StoredPoint, SweepPlan, SweepStore,
    };
    pub use hira_workload::{
        benchmark, mix, mix_with_seed, roster, spec, trace_file, Benchmark, Op, ParseError, Trace,
        TraceRecord, Workload, WorkloadEnv, WorkloadHandle, WorkloadProfile, WorkloadRegistry,
    };
}
