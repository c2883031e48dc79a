//! Validated construction of [`SystemConfig`]: fluent setters, geometry and
//! timing cross-checks, typed errors.
//!
//! The builder replaces the hand-assembled struct literals the harness used
//! to carry: every field has a Table 3 default, every setter is chainable,
//! and [`SystemBuilder::build`] refuses configurations a real controller
//! could not operate (zero banks, `tRFC ≥ tREFI`, bank groups that do not
//! divide the bank count, …) with a [`BuildError`] naming the violation.
//!
//! The DRAM part is selected like the policy and workload axes:
//! [`SystemBuilder::device`] / [`SystemBuilder::device_name`] pick a
//! [`crate::device::DeviceHandle`], which then supplies the bank
//! geometry, chip capacity and timing-table defaults (each individually
//! overridable).
//!
//! ```rust
//! use hira_sim::builder::SystemBuilder;
//! use hira_sim::policy;
//!
//! let cfg = SystemBuilder::new()
//!     .device_name("ddr4-3200")
//!     .chip_gbit(64.0)
//!     .policy(policy::hira(4))
//!     .geometry(2, 2)
//!     .insts(40_000, 8_000)
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.channels, 2);
//! assert_eq!(cfg.refresh.name(), "hira4");
//! assert_eq!(cfg.clock().mem_ticks_per_cpu_cycle(), (1, 2));
//! ```

use crate::config::{KernelMode, SystemConfig};
use crate::device::{ddr4_2400, DeviceHandle};
use crate::plugin::PluginHandle;
use crate::policy::{baseline, PolicyHandle};
use crate::probe::ProbeHandle;
use hira_dram::timing::TimingParams;
use hira_engine::{Registry, UnknownName};
use hira_workload::WorkloadHandle;
use std::fmt;

/// A validation failure from [`SystemBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A structural count (cores, channels, ranks, banks, bank groups,
    /// queue depth) was zero.
    ZeroCount {
        /// Which count was zero.
        what: &'static str,
    },
    /// `banks` is not a multiple of `bank_groups`.
    BankGroupMismatch {
        /// Banks per rank.
        banks: u16,
        /// Bank groups per rank.
        bank_groups: u16,
    },
    /// Chip capacity must be positive and finite.
    InvalidCapacity {
        /// The offending capacity in Gb.
        chip_gbit: f64,
    },
    /// `tRFC` must leave room inside `tREFI` — a refresh that outlasts its
    /// own interval can never complete the window.
    RefreshWindowTooTight {
        /// All-bank refresh latency, ns.
        t_rfc: f64,
        /// Refresh interval, ns.
        t_refi: f64,
    },
    /// `tRC` must cover `tRAS + tRP` — the row cycle is their sum.
    RowCycleInconsistent {
        /// Row cycle, ns.
        t_rc: f64,
        /// Charge restoration, ns.
        t_ras: f64,
        /// Precharge, ns.
        t_rp: f64,
    },
    /// The warmup budget must be strictly below the measured budget.
    WarmupExceedsBudget {
        /// Warmup instructions per core.
        warmup: u64,
        /// Total measured instructions per core.
        insts: u64,
    },
    /// The run's retirement target (warmup plus measured instructions) or
    /// its default safety cycle cap (`120 ×` the target `+ 4 M`)
    /// overflows `u64`.
    BudgetOverflow {
        /// Warmup instructions per core.
        warmup: u64,
        /// Total measured instructions per core.
        insts: u64,
    },
    /// The SPT compatibility fraction must be a probability.
    SptFractionOutOfRange {
        /// The offending fraction.
        spt_fraction: f64,
    },
    /// The LLC cannot be built at this geometry: it holds no whole set of
    /// the configured associativity, its set count is not a power of two,
    /// or its ways outnumber 16 × its sets, too many for a way's packed
    /// word to hold the tag, valid and dirty bits and recency rank.
    LlcGeometry {
        /// LLC capacity in bytes.
        bytes: usize,
        /// Associativity.
        ways: usize,
    },
    /// A by-name selection ([`SystemBuilder::policy_name`],
    /// [`workload_name`](SystemBuilder::workload_name),
    /// [`device_name`](SystemBuilder::device_name),
    /// [`probe_name`](SystemBuilder::probe_name) or
    /// [`plugin_name`](SystemBuilder::plugin_name)) did not resolve against
    /// the standard registry of its axis.
    Unknown(UnknownName),
    /// The selected plugin injects directed victim-row refreshes
    /// (VRR-style), but the selected device's decoder drops vendor
    /// directed-refresh commands (the same conservative decoder that is
    /// HiRA-inert, §12).
    DeviceLacksVrr {
        /// The VRR-less device.
        device: String,
        /// The plugin that needs directed refreshes.
        plugin: String,
    },
    /// The policy's HiRA lead timings are inconsistent with the device's
    /// timing table: `t1` and `t2` must be positive, `t1` must not exceed
    /// `t2` (§4.2 finds reliable hidden activation only there), and `t2`
    /// must stay *below* `tRAS` — at `t2 ≥ tRAS` the "violating"
    /// precharge is no longer violating and the operation degenerates to
    /// a nominal two-row refresh.
    HiraLeadInvalid {
        /// First-`ACT` → `PRE` gap, ns.
        t1: f64,
        /// `PRE` → second-`ACT` gap, ns.
        t2: f64,
        /// The device's charge-restoration latency, ns.
        t_ras: f64,
    },
    /// The selected policy issues HiRA operations, but the selected
    /// device's command decoder drops timing-violating commands (§12:
    /// Samsung/Micron parts are HiRA-inert).
    DeviceLacksHira {
        /// The HiRA-inert device.
        device: String,
        /// The policy that needs HiRA operations.
        policy: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroCount { what } => write!(f, "{what} must be at least 1"),
            BuildError::BankGroupMismatch { banks, bank_groups } => write!(
                f,
                "{bank_groups} bank groups do not evenly divide {banks} banks"
            ),
            BuildError::InvalidCapacity { chip_gbit } => {
                write!(f, "chip capacity {chip_gbit} Gb is not positive and finite")
            }
            BuildError::RefreshWindowTooTight { t_rfc, t_refi } => {
                write!(f, "tRFC {t_rfc} ns does not fit inside tREFI {t_refi} ns")
            }
            BuildError::RowCycleInconsistent { t_rc, t_ras, t_rp } => {
                write!(f, "tRC {t_rc} ns is below tRAS {t_ras} + tRP {t_rp} ns")
            }
            BuildError::WarmupExceedsBudget { warmup, insts } => write!(
                f,
                "warmup {warmup} insts must be below the measured budget {insts}"
            ),
            BuildError::BudgetOverflow { warmup, insts } => write!(
                f,
                "warmup {warmup} + {insts} insts per core overflows the run's u64 cycle budget"
            ),
            BuildError::SptFractionOutOfRange { spt_fraction } => {
                write!(f, "SPT fraction {spt_fraction} is not in [0, 1]")
            }
            BuildError::LlcGeometry { bytes, ways } => write!(
                f,
                "an LLC of {bytes} B at {ways} ways has {} sets of 64 B lines; \
                 it needs a power-of-two set count and ways <= 16 x sets",
                bytes / 64 / ways
            ),
            BuildError::Unknown(e) => e.fmt(f),
            BuildError::DeviceLacksVrr { device, plugin } => write!(
                f,
                "plugin `{plugin}` injects directed victim-row refreshes but \
                 device `{device}` drops vendor directed-refresh commands"
            ),
            BuildError::HiraLeadInvalid { t1, t2, t_ras } => write!(
                f,
                "HiRA lead timings t1 = {t1} ns, t2 = {t2} ns are invalid: \
                 need 0 < t1 <= t2 < tRAS ({t_ras} ns)"
            ),
            BuildError::DeviceLacksHira { device, policy } => write!(
                f,
                "policy `{policy}` issues HiRA operations but device `{device}` \
                 drops timing-violating commands (HiRA-inert decoder)"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<UnknownName> for BuildError {
    fn from(e: UnknownName) -> Self {
        BuildError::Unknown(e)
    }
}

/// Fluent, validated constructor for [`SystemConfig`]. Defaults are the
/// paper's Table 3 system at 8 Gb chips with Baseline refresh.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    cores: usize,
    channels: usize,
    ranks: usize,
    /// Explicit `(banks, bank_groups)` override; the device profile's
    /// geometry otherwise.
    banks: Option<(u16, u16)>,
    /// Explicit chip capacity; the device profile's default otherwise.
    chip_gbit: Option<f64>,
    /// The selected device, or the name that selected none: a by-name
    /// setter resolves at once, and [`SystemBuilder::build`] reports an
    /// unknown name. So do `refresh`, `workload` and `probe`.
    device: Result<DeviceHandle, UnknownName>,
    timing: Option<TimingParams>,
    refresh: Result<PolicyHandle, UnknownName>,
    workload: Result<WorkloadHandle, UnknownName>,
    llc_bytes: usize,
    llc_ways: usize,
    queue_depth: usize,
    insts_per_core: u64,
    warmup_insts: u64,
    spt_fraction: f64,
    seed: u64,
    kernel: KernelMode,
    probe: Result<Option<ProbeHandle>, UnknownName>,
    /// Controller plugins, in attachment order (see [`crate::plugin`]).
    plugins: Vec<PluginHandle>,
    /// By-spec plugin selections, resolved when set and appended after
    /// `plugins` by [`SystemBuilder::build`].
    plugins_by_name: Vec<Result<PluginHandle, UnknownName>>,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemBuilder {
    /// The Table 3 defaults: 8 cores, one channel/rank, 16 banks in 4
    /// groups, 8 Gb chips, DDR4-2400, Baseline refresh, 8 MB LLC.
    pub fn new() -> Self {
        SystemBuilder {
            cores: 8,
            channels: 1,
            ranks: 1,
            banks: None,
            chip_gbit: None,
            device: Ok(ddr4_2400()),
            timing: None,
            refresh: Ok(baseline()),
            workload: Ok(hira_workload::mix(0)),
            llc_bytes: 8 << 20,
            llc_ways: 8,
            queue_depth: 64,
            insts_per_core: 100_000,
            warmup_insts: 20_000,
            spt_fraction: 0.32,
            seed: 0x5157,
            kernel: KernelMode::default(),
            probe: Ok(None),
            plugins: Vec::new(),
            plugins_by_name: Vec::new(),
        }
    }

    /// [`SystemBuilder::new`] at a given chip capacity.
    pub fn table3(chip_gbit: f64) -> Self {
        Self::new().chip_gbit(chip_gbit)
    }

    /// Number of cores.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Channel and rank geometry (§10 sweeps).
    pub fn geometry(mut self, channels: usize, ranks: usize) -> Self {
        self.channels = channels;
        self.ranks = ranks;
        self
    }

    /// Banks per rank and bank groups per rank (overrides the device
    /// profile's geometry).
    pub fn banks(mut self, banks: u16, bank_groups: u16) -> Self {
        self.banks = Some((banks, bank_groups));
        self
    }

    /// Chip capacity in Gb. Unless [`SystemBuilder::timing`] overrides
    /// it, the device projects its capacity-scaled timing table (for the
    /// DDR4 presets: `tRFC` by Expression 1) from this value.
    pub fn chip_gbit(mut self, chip_gbit: f64) -> Self {
        self.chip_gbit = Some(chip_gbit);
        self
    }

    /// The DRAM device (clock, geometry defaults, timing table,
    /// capability flags). Default: the Table 3 `ddr4-2400` part.
    pub fn device(mut self, device: DeviceHandle) -> Self {
        self.device = Ok(device);
        self
    }

    /// Selects the device by standard-registry name or dynamic form
    /// (`--device=` axes). An unknown name surfaces from
    /// [`SystemBuilder::build`] as [`BuildError::Unknown`]; the panicking
    /// shortcut for CLI use is [`crate::device::device`].
    pub fn device_name(mut self, name: &str) -> Self {
        self.device = Registry::shared().resolve(name);
        self
    }

    /// Explicit DDR timing parameters (replaces the device's
    /// capacity-scaled table).
    pub fn timing(mut self, timing: TimingParams) -> Self {
        self.timing = Some(timing);
        self
    }

    /// The periodic refresh policy.
    pub fn policy(mut self, refresh: PolicyHandle) -> Self {
        self.refresh = Ok(refresh);
        self
    }

    /// Selects the policy by standard-registry name or dynamic form
    /// (`--policy=` axes). An unknown name surfaces from
    /// [`SystemBuilder::build`] as [`BuildError::Unknown`] like every
    /// other invalid input — the panicking shortcut for CLI use is
    /// [`crate::policy::policy`].
    pub fn policy_name(mut self, name: &str) -> Self {
        self.refresh = Registry::shared().resolve(name);
        self
    }

    /// The demand workload frontend.
    pub fn workload(mut self, workload: WorkloadHandle) -> Self {
        self.workload = Ok(workload);
        self
    }

    /// Selects the workload by standard-registry name or dynamic form
    /// (`--workload=` axes). An unknown name surfaces from
    /// [`SystemBuilder::build`] as [`BuildError::Unknown`]; the panicking
    /// shortcut for CLI use is [`hira_workload::workload`].
    pub fn workload_name(mut self, name: &str) -> Self {
        self.workload = Registry::shared().resolve(name);
        self
    }

    /// LLC capacity and associativity.
    pub fn llc(mut self, bytes: usize, ways: usize) -> Self {
        self.llc_bytes = bytes;
        self.llc_ways = ways;
        self
    }

    /// Per-channel read/write queue capacity.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Measured and warmup instruction budgets per core.
    pub fn insts(mut self, insts: u64, warmup: u64) -> Self {
        self.insts_per_core = insts;
        self.warmup_insts = warmup;
        self
    }

    /// SPT compatibility fraction (§7).
    pub fn spt_fraction(mut self, fraction: f64) -> Self {
        self.spt_fraction = fraction;
        self
    }

    /// Deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The simulation kernel ([`KernelMode::Event`] by default; results
    /// are bit-identical either way).
    pub fn kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Attaches a run observer (see [`crate::probe`]). Probes never change
    /// the simulation: results are bit-identical with or without one.
    pub fn probe(mut self, probe: ProbeHandle) -> Self {
        self.probe = Ok(Some(probe));
        self
    }

    /// Selects the probe by registry form (`--probe=` axes). A malformed
    /// spec surfaces from [`SystemBuilder::build`] as
    /// [`BuildError::Unknown`]; the panicking shortcut for CLI use is
    /// [`crate::probe::probe`].
    pub fn probe_name(mut self, spec: &str) -> Self {
        self.probe = Registry::shared().resolve(spec).map(Some);
        self
    }

    /// Attaches a controller plugin (see [`crate::plugin`]). Repeatable;
    /// plugins run in attachment order. Unlike probes, plugins *perturb*
    /// the run — their injected refreshes cost real command slots.
    pub fn plugin(mut self, plugin: PluginHandle) -> Self {
        self.plugins.push(plugin);
        self
    }

    /// Attaches a plugin by registry form (`--plugin=` axes), after every
    /// plugin attached by handle. A malformed spec surfaces from
    /// [`SystemBuilder::build`] as [`BuildError::Unknown`]; the panicking
    /// shortcut for CLI use is [`crate::plugin::plugin`].
    pub fn plugin_name(mut self, spec: &str) -> Self {
        self.plugins_by_name.push(Registry::shared().resolve(spec));
        self
    }

    /// Validates and assembles the configuration. Validation reads the
    /// handles alone and runs no factory: a HiRA policy's lead pair is
    /// [`PolicyHandle::hira_lead`] and a plugin's need for directed
    /// refresh is [`crate::plugin::PluginHandle::requires_vrr`], so a
    /// build instantiates no policy or plugin (the channels do, in
    /// [`crate::System::new`]).
    pub fn build(self) -> Result<SystemConfig, BuildError> {
        // The device resolves first: it supplies the geometry, capacity
        // and timing defaults everything below validates against.
        let device = self.device?;
        let (banks, bank_groups) = self
            .banks
            .unwrap_or_else(|| (device.profile().banks, device.profile().bank_groups));
        let chip_gbit = self.chip_gbit.unwrap_or(device.profile().default_chip_gbit);
        for (what, n) in [
            ("cores", self.cores),
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("banks", banks as usize),
            ("bank_groups", bank_groups as usize),
            ("queue_depth", self.queue_depth),
            ("llc_ways", self.llc_ways),
            ("insts_per_core", self.insts_per_core as usize),
        ] {
            if n == 0 {
                return Err(BuildError::ZeroCount { what });
            }
        }
        if !banks.is_multiple_of(bank_groups) {
            return Err(BuildError::BankGroupMismatch { banks, bank_groups });
        }
        if !(chip_gbit.is_finite() && chip_gbit > 0.0) {
            return Err(BuildError::InvalidCapacity { chip_gbit });
        }
        let timing = self.timing.unwrap_or_else(|| device.timing(chip_gbit));
        if timing.t_rfc >= timing.t_refi {
            return Err(BuildError::RefreshWindowTooTight {
                t_rfc: timing.t_rfc,
                t_refi: timing.t_refi,
            });
        }
        if timing.t_rc + 1e-9 < timing.t_ras + timing.t_rp {
            return Err(BuildError::RowCycleInconsistent {
                t_rc: timing.t_rc,
                t_ras: timing.t_ras,
                t_rp: timing.t_rp,
            });
        }
        if self.warmup_insts >= self.insts_per_core {
            return Err(BuildError::WarmupExceedsBudget {
                warmup: self.warmup_insts,
                insts: self.insts_per_core,
            });
        }
        if !(0.0..=1.0).contains(&self.spt_fraction) {
            return Err(BuildError::SptFractionOutOfRange {
                spt_fraction: self.spt_fraction,
            });
        }
        if crate::llc::Llc::sets(self.llc_bytes, self.llc_ways).is_none() {
            return Err(BuildError::LlcGeometry {
                bytes: self.llc_bytes,
                ways: self.llc_ways,
            });
        }
        let refresh = self.refresh?;
        let workload = self.workload?;
        let probe = self.probe?;
        let mut plugins = self.plugins;
        for plugin in self.plugins_by_name {
            plugins.push(plugin?);
        }
        let cfg = SystemConfig {
            cores: self.cores,
            channels: self.channels,
            ranks: self.ranks,
            banks,
            bank_groups,
            chip_gbit,
            device,
            timing,
            refresh,
            workload,
            llc_bytes: self.llc_bytes,
            llc_ways: self.llc_ways,
            queue_depth: self.queue_depth,
            insts_per_core: self.insts_per_core,
            warmup_insts: self.warmup_insts,
            spt_fraction: self.spt_fraction,
            seed: self.seed,
            kernel: self.kernel,
            cycle_cap: None,
            probe,
            plugins,
        };
        if cfg.run_bounds().is_none() {
            return Err(BuildError::BudgetOverflow {
                warmup: cfg.warmup_insts,
                insts: cfg.insts_per_core,
            });
        }
        // HiRA capability cross-checks: the lead pair is the policy
        // handle's choice, the decoder behaviour the device's.
        if let Some((t1, t2)) = cfg.refresh.hira_lead() {
            if !cfg.device.profile().supports_hira {
                return Err(BuildError::DeviceLacksHira {
                    device: cfg.device.name().to_owned(),
                    policy: cfg.refresh.name().to_owned(),
                });
            }
            let valid =
                t1.is_finite() && t2.is_finite() && t1 > 0.0 && t1 <= t2 && t2 < cfg.timing.t_ras;
            if !valid {
                return Err(BuildError::HiraLeadInvalid {
                    t1,
                    t2,
                    t_ras: cfg.timing.t_ras,
                });
            }
        }
        // VRR capability cross-check: a plugin that injects directed
        // victim-row refreshes needs a device whose decoder honors them.
        if !cfg.device.profile().supports_vrr {
            if let Some(p) = cfg.plugins.iter().find(|p| p.requires_vrr()) {
                return Err(BuildError::DeviceLacksVrr {
                    device: cfg.device.name().to_owned(),
                    plugin: p.name().to_owned(),
                });
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{hira, noref};

    #[test]
    fn defaults_build_the_table3_system() {
        let cfg = SystemBuilder::new().build().unwrap();
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.banks, 16);
        assert_eq!(cfg.refresh.name(), "baseline");
        assert_eq!(cfg, SystemConfig::table3(8.0, baseline()));
    }

    #[test]
    fn zero_counts_are_rejected_with_the_offending_field() {
        let err = SystemBuilder::new().banks(0, 4).build().unwrap_err();
        assert_eq!(err, BuildError::ZeroCount { what: "banks" });
        let err = SystemBuilder::new().cores(0).build().unwrap_err();
        assert_eq!(err, BuildError::ZeroCount { what: "cores" });
    }

    #[test]
    fn bank_groups_must_divide_banks() {
        let err = SystemBuilder::new().banks(16, 3).build().unwrap_err();
        assert_eq!(
            err,
            BuildError::BankGroupMismatch {
                banks: 16,
                bank_groups: 3
            }
        );
    }

    #[test]
    fn trfc_beyond_trefi_is_rejected() {
        let mut t = TimingParams::ddr4_2400();
        t.t_rfc = t.t_refi + 1.0;
        let err = SystemBuilder::new().timing(t).build().unwrap_err();
        assert!(matches!(err, BuildError::RefreshWindowTooTight { .. }));
        // Expression 1 crosses tREFI=7800 ns only beyond real capacities,
        // but an absurd capacity must still be caught through the timing.
        let err = SystemBuilder::new()
            .chip_gbit(f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::InvalidCapacity { .. }));
    }

    #[test]
    fn workload_name_resolves_through_the_registry() {
        let cfg = SystemBuilder::new()
            .workload_name("zipf80")
            .build()
            .unwrap();
        assert_eq!(cfg.workload.name(), "zipf80");
        // Dynamic parameterized forms resolve too.
        let cfg = SystemBuilder::new().workload_name("mix7").build().unwrap();
        assert_eq!(cfg.workload.name(), "mix7");
        let err = SystemBuilder::new()
            .workload_name("nope")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::Unknown(UnknownName {
                axis: "workload",
                name: "nope".into()
            })
        );
        // A later explicit workload() overrides a pending name.
        let cfg = SystemBuilder::new()
            .workload_name("nope")
            .workload(hira_workload::stream())
            .build()
            .unwrap();
        assert_eq!(cfg.workload.name(), "stream");
    }

    #[test]
    fn policy_name_resolves_through_the_registry() {
        let cfg = SystemBuilder::new().policy_name("hira2").build().unwrap();
        assert_eq!(cfg.refresh.name(), "hira2");
        // An unknown name is a typed build error, not a panic — by-name
        // selection is the field most likely to carry unvalidated input.
        let err = SystemBuilder::new()
            .policy_name("nope")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::Unknown(UnknownName {
                axis: "policy",
                name: "nope".into()
            })
        );
        // A later explicit policy() overrides a pending name.
        let cfg = SystemBuilder::new()
            .policy_name("nope")
            .policy(noref())
            .build()
            .unwrap();
        assert_eq!(cfg.refresh.name(), "noref");
    }

    #[test]
    fn device_name_resolves_through_the_registry() {
        let cfg = SystemBuilder::new()
            .device_name("lpddr4-3200")
            .build()
            .unwrap();
        assert_eq!(cfg.device.name(), "lpddr4-3200");
        // The dynamic capacity form resolves too.
        let cfg = SystemBuilder::new()
            .device_name("ddr4-2400@32")
            .build()
            .unwrap();
        assert_eq!(cfg.device.name(), "ddr4-2400@32");
        assert_eq!(cfg.chip_gbit, 32.0, "pinned parts fix the capacity");
        let err = SystemBuilder::new()
            .device_name("nope")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::Unknown(UnknownName {
                axis: "device",
                name: "nope".into()
            })
        );
        // A later explicit device() overrides a pending name.
        let cfg = SystemBuilder::new()
            .device_name("nope")
            .device(crate::device::ddr4_3200())
            .build()
            .unwrap();
        assert_eq!(cfg.device.name(), "ddr4-3200");
    }

    #[test]
    fn probe_name_resolves_through_the_registry() {
        let cfg = SystemBuilder::new()
            .probe_name("epochs:5000:ts.jsonl")
            .build()
            .unwrap();
        assert_eq!(
            cfg.probe.as_ref().map(|p| p.name()),
            Some("epochs:5000:ts.jsonl")
        );
        let err = SystemBuilder::new().probe_name("nope").build().unwrap_err();
        assert_eq!(
            err,
            BuildError::Unknown(UnknownName {
                axis: "probe",
                name: "nope".into()
            })
        );
        // A later explicit probe() overrides a pending spec.
        let cfg = SystemBuilder::new()
            .probe_name("nope")
            .probe(crate::probe::CmdTraceProbe::handle("t"))
            .build()
            .unwrap();
        assert_eq!(cfg.probe.as_ref().map(|p| p.name()), Some("cmdtrace:t"));
        // The default carries no probe.
        assert_eq!(SystemBuilder::new().build().unwrap().probe, None);
    }

    #[test]
    fn plugin_name_resolves_through_the_registry() {
        let cfg = SystemBuilder::new()
            .plugin_name("oracle:1024")
            .plugin_name("para:0.01")
            .build()
            .unwrap();
        assert_eq!(
            cfg.plugins.iter().map(|p| p.name()).collect::<Vec<_>>(),
            vec!["oracle:1024", "para:0.01"],
            "attachment order is preserved"
        );
        let err = SystemBuilder::new()
            .plugin_name("blink:7")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::Unknown(UnknownName {
                axis: "plugin",
                name: "blink:7".into()
            })
        );
        // Explicit handles come before pending by-name specs.
        let cfg = SystemBuilder::new()
            .plugin_name("para:0.5")
            .plugin(crate::plugin::oracle(64))
            .build()
            .unwrap();
        assert_eq!(
            cfg.plugins.iter().map(|p| p.name()).collect::<Vec<_>>(),
            vec!["oracle:64", "para:0.5"]
        );
        // The default carries no plugins.
        assert!(SystemBuilder::new().build().unwrap().plugins.is_empty());
    }

    #[test]
    fn vrr_plugins_are_rejected_on_vrr_less_devices() {
        // The conservative decoder drops directed-refresh commands, so
        // oracle and graphene are typed errors on it; para's plain
        // activations pass everywhere.
        for spec in ["oracle:1024", "graphene:1024:64"] {
            let err = SystemBuilder::new()
                .device(crate::device::samsung_ddr4_2400())
                .plugin_name(spec)
                .build()
                .unwrap_err();
            assert_eq!(
                err,
                BuildError::DeviceLacksVrr {
                    device: "samsung-ddr4-2400".into(),
                    plugin: spec.into()
                }
            );
        }
        assert!(SystemBuilder::new()
            .device(crate::device::samsung_ddr4_2400())
            .plugin_name("para:0.01")
            .build()
            .is_ok());
        // VRR-capable devices take all three.
        for spec in ["oracle:1024", "para:0.01", "graphene:1024:64"] {
            assert!(SystemBuilder::new().plugin_name(spec).build().is_ok());
        }
    }

    #[test]
    fn device_supplies_geometry_clock_and_timing_defaults() {
        let cfg = SystemBuilder::new()
            .device(crate::device::lpddr4_3200())
            .build()
            .unwrap();
        assert_eq!((cfg.banks, cfg.bank_groups), (8, 1));
        assert_eq!(cfg.clock().mem_ticks_per_cpu_cycle(), (1, 2));
        assert!((cfg.timing.t_rc - 60.0).abs() < 1e-9);
        // An explicit geometry override wins (and is still validated).
        let cfg = SystemBuilder::new()
            .device(crate::device::lpddr4_3200())
            .banks(16, 4)
            .build()
            .unwrap();
        assert_eq!((cfg.banks, cfg.bank_groups), (16, 4));
        // The default device is the Table 3 part, bit-identical defaults.
        let cfg = SystemBuilder::new().build().unwrap();
        assert_eq!(cfg.device.name(), "ddr4-2400");
        assert_eq!((cfg.banks, cfg.bank_groups), (16, 4));
        assert_eq!(cfg.chip_gbit, 8.0);
    }

    #[test]
    fn hira_policies_are_rejected_on_inert_devices() {
        let err = SystemBuilder::new()
            .device(crate::device::samsung_ddr4_2400())
            .policy(hira(4))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::DeviceLacksHira {
                device: "samsung-ddr4-2400".into(),
                policy: "hira4".into()
            }
        );
        // A PARA-over-HiRA layer needs HiRA operations just the same.
        let err = SystemBuilder::new()
            .device(crate::device::samsung_ddr4_2400())
            .policy(noref().with_para_hira(0.5, 4))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::DeviceLacksHira { .. }));
        // Non-HiRA arrangements run fine on the inert part.
        for p in [baseline(), noref(), crate::policy::refpb()] {
            assert!(SystemBuilder::new()
                .device(crate::device::samsung_ddr4_2400())
                .policy(p)
                .build()
                .is_ok());
        }
    }

    #[test]
    fn building_runs_no_policy_or_plugin_factory() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // hira4 and oracle:1024, counting every instance their factories
        // build.
        let (policies, plugins) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let counted_hira4 = {
            let (n, inner) = (policies.clone(), hira(4));
            PolicyHandle::new("hira4", move |env| {
                n.fetch_add(1, Ordering::Relaxed);
                inner.build(env)
            })
            .with_hira_lead(3.0, 3.0)
        };
        let counted_oracle = {
            let (n, inner) = (plugins.clone(), crate::plugin::oracle(1024));
            PluginHandle::new("oracle:1024", move |env| {
                n.fetch_add(1, Ordering::Relaxed);
                inner.build(env)
            })
            .with_vrr()
        };
        let build = |policy: PolicyHandle, device: DeviceHandle| {
            SystemBuilder::new()
                .device(device)
                .policy(policy)
                .plugin(counted_oracle.clone())
                .build()
        };
        let mut cfg = None;
        for policy in [
            counted_hira4.clone(),
            counted_hira4.clone().with_para_hira(0.5, 4),
            counted_hira4.clone().with_para_immediate(0.5),
        ] {
            cfg = Some(build(policy.clone(), ddr4_2400()).unwrap());
            // The HiRA-inert, VRR-less part refuses both by their handles.
            let inert = crate::device::samsung_ddr4_2400();
            assert!(matches!(
                build(policy, inert.clone()).unwrap_err(),
                BuildError::DeviceLacksHira { .. }
            ));
            assert!(matches!(
                build(baseline(), inert).unwrap_err(),
                BuildError::DeviceLacksVrr { .. }
            ));
        }
        assert_eq!(
            policies.load(Ordering::Relaxed),
            0,
            "a build ran the policy factory"
        );
        assert_eq!(
            plugins.load(Ordering::Relaxed),
            0,
            "a build ran the plugin factory"
        );
        // The system builds one of each per rank.
        crate::System::new(cfg.unwrap().with_geometry(2, 2));
        assert_eq!(policies.load(Ordering::Relaxed), 4);
        assert_eq!(plugins.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn invalid_hira_leads_are_rejected() {
        use hira_core::config::HiraConfig;
        use hira_core::hira_op::HiraOperation;
        use hira_dram::timing::HiraTimings;
        let with_lead = |t1, t2| {
            let mut c = HiraConfig::hira_n(4);
            c.op = HiraOperation::with_timings(HiraTimings { t1, t2 });
            SystemBuilder::new()
                .policy(crate::policy::hira_custom("hira4-custom", c))
                .build()
        };
        // Nominal and the paper's swept grid upper corner are fine.
        assert!(with_lead(3.0, 3.0).is_ok());
        assert!(with_lead(1.5, 6.0).is_ok());
        // t1 > t2, t2 beyond tRAS, and non-positive leads are typed errors.
        for (t1, t2) in [(4.5, 3.0), (3.0, 32.0), (0.0, 3.0), (-1.0, 3.0)] {
            let err = with_lead(t1, t2).unwrap_err();
            assert!(
                matches!(err, BuildError::HiraLeadInvalid { .. }),
                "({t1}, {t2}): {err:?}"
            );
        }
    }

    #[test]
    fn errors_render_readably() {
        let msg = BuildError::RefreshWindowTooTight {
            t_rfc: 9000.0,
            t_refi: 7800.0,
        }
        .to_string();
        assert!(msg.contains("9000") && msg.contains("7800"), "{msg}");
    }
}
