//! Simulated system configuration (Table 3).
//!
//! The refresh arrangement is an open [`PolicyHandle`] (see
//! [`crate::policy`]) rather than a closed enum: any registered policy —
//! the paper's three arrangements or a third-party one — slots into the
//! same configuration. Preventive (PARA) layers are part of the handle and
//! are composed there, before the handle reaches the configuration, with
//! [`PolicyHandle::with_para_immediate`] /
//! [`PolicyHandle::with_para_hira`].
//!
//! Demand traffic is equally open: `workload` is a
//! [`hira_workload::WorkloadHandle`] resolved from the
//! [`hira_workload::WorkloadRegistry`] — the SPEC-like roster mixes, any
//! parametric generator, or a `.trace` replay all slot into the same
//! field. The default is the standard suite's `mix0`.
//!
//! The DRAM part itself is the third open axis: `device` is a
//! [`DeviceHandle`] resolved from the [`crate::device::DeviceRegistry`].
//! The device supplies the command clock (and thereby the CPU↔memory
//! tick ratio), the default bank geometry, the capacity-scaled timing
//! table `timing` is seeded from, and the capability flags (HiRA
//! `t1`/`t2` support, native `REFpb`).

use crate::builder::SystemBuilder;
use crate::clock::MemClock;
use crate::device::DeviceHandle;
use crate::plugin::PluginHandle;
use crate::policy::PolicyHandle;
use crate::probe::ProbeHandle;
use hira_dram::decimal;
use hira_dram::timing::TimingParams;
use hira_workload::WorkloadHandle;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Which simulation kernel [`crate::system::System::run`] uses. Both
/// produce bit-identical [`crate::metrics::SimResult`]s — the event kernel
/// is the fast path, the dense kernel the reference the A/B equality
/// harness (`perf_kernel`, `tests/kernel_equivalence.rs`) checks it
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// The legacy reference loop: every core ticks every CPU cycle, every
    /// channel and policy ticks every memory cycle.
    Dense,
    /// Event-driven time skipping: the clock advances to the minimum of
    /// the cores' and channels' next interesting instants (blocked cores
    /// sleep until their fill, compute stretches batch arithmetically
    /// while loads are in flight, channels sleep until a queued request
    /// can be picked, policies sleep until the
    /// [`crate::policy::RefreshPolicy::next_wake`] they declare under the
    /// rank's current bank state). A processed cycle touches only what
    /// woke: a core whose wake lies ahead catches up lazily, in one
    /// [`crate::core_model::Core::skip`], when it is next touched, and
    /// each rank's refresh wake is cached between its state changes.
    #[default]
    Event,
}

impl fmt::Display for KernelMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelMode::Dense => "dense",
            KernelMode::Event => "event",
        })
    }
}

impl FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(KernelMode::Dense),
            "event" => Ok(KernelMode::Event),
            other => Err(format!("unknown kernel mode `{other}` (dense|event)")),
        }
    }
}

/// Full system configuration. Hand-assembly is possible (all fields are
/// public) but [`SystemBuilder`] is the supported construction path — it
/// cross-checks geometry and timing and returns typed errors.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (Table 3: 8).
    pub cores: usize,
    /// Memory channels (Table 3: 1; §10 sweeps 1-8).
    pub channels: usize,
    /// Ranks per channel (Table 3: 1; §10 sweeps 1-8).
    pub ranks: usize,
    /// Banks per rank (DDR4: 16 in 4 bank groups).
    pub banks: u16,
    /// Bank groups per rank.
    pub bank_groups: u16,
    /// Chip capacity in Gb (drives rows/bank and `tRFC`).
    pub chip_gbit: f64,
    /// The DRAM part: clock ratio, geometry defaults, capacity-scaled
    /// timing, capability flags (see [`crate::device`]).
    pub device: DeviceHandle,
    /// DDR timing parameters (seeded from `device` at build time; may be
    /// overridden afterwards for targeted experiments).
    pub timing: TimingParams,
    /// Periodic refresh policy (plus any composed preventive layer).
    pub refresh: PolicyHandle,
    /// Controller plugins (RowHammer defenses), instantiated per rank in
    /// order (see [`crate::plugin`]). Unlike probes, plugins *perturb*
    /// the run — their injected refreshes cost real command slots — so
    /// the list is part of the cache identity.
    pub plugins: Vec<PluginHandle>,
    /// Demand-traffic frontend: one per-core instance is built from this
    /// handle (see [`hira_workload::Workload`]).
    pub workload: WorkloadHandle,
    /// LLC capacity in bytes (Table 3: 8 MB).
    pub llc_bytes: usize,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Read/write queue capacity per channel.
    pub queue_depth: usize,
    /// Instructions each core must retire (after warmup) for the measurement.
    pub insts_per_core: u64,
    /// Warmup instructions per core.
    pub warmup_insts: u64,
    /// Fraction of row pairs HiRA can pair (§7: 0.32).
    pub spt_fraction: f64,
    /// Deterministic seed.
    pub seed: u64,
    /// Which simulation kernel drives the run (results are identical;
    /// wall-clock is not).
    pub kernel: KernelMode,
    /// Explicit safety-cap override in CPU cycles. `None` uses the legacy
    /// formula (`120 × (warmup + insts) + 4 M`). Both kernels stop the
    /// moment the cycle counter reaches the cap — the event kernel clamps
    /// its time skips to it, never overshooting — so a capped run reports
    /// exactly the cap in [`crate::metrics::SimResult::cycles`].
    pub cycle_cap: Option<u64>,
    /// Optional run observer (see [`crate::probe`]). Probes are read-only:
    /// the [`crate::metrics::SimResult`] is bit-identical with or without
    /// one, and `None` costs a single branch per notification site.
    pub probe: Option<ProbeHandle>,
}

impl SystemConfig {
    /// The Table 3 configuration for a given chip capacity and refresh
    /// policy, at a scaled-down default instruction budget.
    pub fn table3(chip_gbit: f64, refresh: PolicyHandle) -> Self {
        SystemBuilder::table3(chip_gbit)
            .policy(refresh)
            .build()
            .expect("Table 3 presets are valid")
    }

    /// Rows per bank. Table 3 fixes this at 64 K for every simulated
    /// capacity: the paper models density growth through wider rows and a
    /// larger `tRFC` (Expression 1), not through more rows — which is what
    /// makes per-row HiRA refresh scale gracefully while the baseline's
    /// rank-blocking time balloons (§8).
    pub fn rows_per_bank(&self) -> u32 {
        64 * 1024
    }

    /// The CPU/command-clock pairing of the configured device.
    pub fn clock(&self) -> MemClock {
        self.device.profile().clock()
    }

    /// Replaces the demand workload.
    pub fn with_workload(mut self, workload: WorkloadHandle) -> Self {
        self.workload = workload;
        self
    }

    /// Overrides channel/rank geometry (§10 sweeps).
    pub fn with_geometry(mut self, channels: usize, ranks: usize) -> Self {
        assert!(channels >= 1 && ranks >= 1);
        self.channels = channels;
        self.ranks = ranks;
        self
    }

    /// Overrides the instruction budget (scaled experiments).
    pub fn with_insts(mut self, insts: u64, warmup: u64) -> Self {
        self.insts_per_core = insts;
        self.warmup_insts = warmup;
        self
    }

    /// Selects the simulation kernel (`--kernel=` axes; A/B harnesses).
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Overrides the safety cycle cap (bounded runs, cap-semantics tests).
    pub fn with_cycle_cap(mut self, cap: u64) -> Self {
        self.cycle_cap = Some(cap);
        self
    }

    /// The run's retirement target per core (warmup plus measured
    /// instructions) and its safety cycle cap ([`SystemConfig::cycle_cap`],
    /// or by default `120 × target + 4 M`, so even at IPC 0.01 the run
    /// terminates); `None` when either overflows `u64`, which
    /// [`SystemBuilder::build`] refuses.
    pub(crate) fn run_bounds(&self) -> Option<(u64, u64)> {
        let target = self.warmup_insts.checked_add(self.insts_per_core)?;
        let cap = match self.cycle_cap {
            Some(cap) => cap,
            None => target.checked_mul(120)?.checked_add(4_000_000)?,
        };
        Some((target, cap))
    }

    /// Attaches a probe (`--probe=` axes; see [`crate::probe`]).
    pub fn with_probe(mut self, probe: ProbeHandle) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Appends a controller plugin (`--plugin=` axes; see
    /// [`crate::plugin`]).
    pub fn with_plugin(mut self, plugin: PluginHandle) -> Self {
        self.plugins.push(plugin);
        self
    }

    /// A canonical rendering of every **result-affecting** field — the
    /// configuration portion of a simulation's content-addressed cache
    /// identity (see `hira-store`). Two configs with equal descriptors
    /// produce bit-identical [`crate::metrics::SimResult`]s; two configs
    /// differing in any simulated parameter render differently.
    ///
    /// Deliberately excluded, because both are documented result-neutral:
    ///
    /// * `kernel` — dense and event kernels are bit-identical by contract
    ///   (enforced by `tests/kernel_equivalence.rs`), so a cached event
    ///   result legitimately answers a dense query and vice versa,
    /// * `probe` — probes are read-only observers.
    ///
    /// Policy / workload / device handles contribute their registry
    /// **names**, which is exactly the identity the rest of the system
    /// uses (`PolicyHandle` equality is name equality; parametric handles
    /// like `hira4`, `baseline+para(p=…)` or `ddr4-2400@32` encode their
    /// parameters in the name). A workload whose name does not pin its
    /// content — a `trace:<path>` replay, whose file can be edited in
    /// place — also contributes its
    /// [`WorkloadHandle::content_digest`], a digest of the records it
    /// loaded, as `workload=<name>#<digest>`. If that naming contract ever
    /// weakens, bump `hira_store::CACHE_SCHEMA_VERSION`.
    pub fn cache_descriptor(&self) -> String {
        let mut out = String::with_capacity(512);
        self.write_cache_descriptor(&mut out);
        out
    }

    /// Appends [`SystemConfig::cache_descriptor`] to `out`, rendering
    /// straight into it: integers and floats through
    /// [`hira_dram::decimal`] (byte-identical to `Display`), the timing
    /// table through [`TimingParams::write_cache_descriptor`].
    pub fn write_cache_descriptor(&self, out: &mut String) {
        let int = |out: &mut String, field: &str, n: u64| {
            out.push_str(field);
            decimal::write_u64(out, n);
        };
        int(out, "cores=", self.cores as u64);
        int(out, ";channels=", self.channels as u64);
        int(out, ";ranks=", self.ranks as u64);
        int(out, ";banks=", u64::from(self.banks));
        int(out, ";bank_groups=", u64::from(self.bank_groups));
        out.push_str(";chip_gbit=");
        decimal::write_f64(out, self.chip_gbit);
        out.push_str(";device=");
        out.push_str(self.device.name());
        out.push_str(";timing=");
        self.timing.write_cache_descriptor(out);
        out.push_str(";policy=");
        out.push_str(self.refresh.name());
        out.push_str(";plugins=");
        if self.plugins.is_empty() {
            out.push_str("none");
        }
        for (i, plugin) in self.plugins.iter().enumerate() {
            if i > 0 {
                out.push('+');
            }
            out.push_str(plugin.name());
        }
        out.push_str(";workload=");
        out.push_str(self.workload.name());
        if let Some(digest) = self.workload.content_digest() {
            let _ = write!(out, "#{digest:016x}");
        }
        int(out, ";llc_bytes=", self.llc_bytes as u64);
        int(out, ";llc_ways=", self.llc_ways as u64);
        int(out, ";queue_depth=", self.queue_depth as u64);
        int(out, ";insts=", self.insts_per_core);
        int(out, ";warmup=", self.warmup_insts);
        out.push_str(";spt=");
        decimal::write_f64(out, self.spt_fraction);
        int(out, ";seed=", self.seed);
        match self.cycle_cap {
            Some(cap) => int(out, ";cycle_cap=", cap),
            None => out.push_str(";cycle_cap=default"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{baseline, noref};
    use hira_dram::timing::trfc_for_capacity;

    #[test]
    fn rows_per_bank_is_table3_fixed() {
        // Table 3: 64 K rows/bank at every capacity (density = wider rows).
        let c8 = SystemConfig::table3(8.0, baseline());
        assert_eq!(c8.rows_per_bank(), 64 * 1024);
        let c128 = SystemConfig::table3(128.0, baseline());
        assert_eq!(c128.rows_per_bank(), 64 * 1024);
    }

    #[test]
    fn trfc_follows_expression_1() {
        let c = SystemConfig::table3(32.0, baseline());
        assert!((c.timing.t_rfc - trfc_for_capacity(32.0)).abs() < 1e-9);
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::table3(8.0, noref().with_para_immediate(0.5))
            .with_geometry(4, 2)
            .with_insts(1000, 100);
        assert_eq!(c.channels, 4);
        assert_eq!(c.ranks, 2);
        assert_eq!(c.refresh.name(), "noref+para(p=0.5000)");
        assert_eq!(c.insts_per_core, 1000);
    }

    #[test]
    fn configs_compare_by_policy_identity() {
        let a = SystemConfig::table3(8.0, baseline());
        let b = SystemConfig::table3(8.0, baseline());
        assert_eq!(a, b);
        assert_ne!(a, SystemConfig::table3(8.0, noref()));
    }

    #[test]
    fn configs_compare_by_device_identity() {
        let a = SystemConfig::table3(8.0, baseline());
        assert_eq!(a.device.name(), "ddr4-2400");
        assert_eq!(a.clock().mem_ticks_per_cpu_cycle(), (3, 8));
        let mut b = a.clone();
        b.device = crate::device::ddr4_3200();
        assert_ne!(a, b);
    }

    #[test]
    fn cache_descriptor_tracks_results_not_observers() {
        let a = SystemConfig::table3(8.0, baseline());
        assert_eq!(a.cache_descriptor(), a.clone().cache_descriptor());
        // Every simulated axis moves the descriptor…
        assert_ne!(
            a.cache_descriptor(),
            SystemConfig::table3(64.0, baseline()).cache_descriptor()
        );
        assert_ne!(
            a.cache_descriptor(),
            SystemConfig::table3(8.0, noref()).cache_descriptor()
        );
        assert_ne!(
            a.cache_descriptor(),
            a.clone().with_geometry(2, 1).cache_descriptor()
        );
        assert_ne!(
            a.cache_descriptor(),
            a.clone().with_insts(999, 99).cache_descriptor()
        );
        assert_ne!(
            a.cache_descriptor(),
            a.clone()
                .with_workload(hira_workload::stream())
                .cache_descriptor()
        );
        assert_ne!(
            a.cache_descriptor(),
            a.clone().with_cycle_cap(1_000_000).cache_descriptor()
        );
        let mut dev = a.clone();
        dev.device = crate::device::ddr4_3200();
        assert_ne!(a.cache_descriptor(), dev.cache_descriptor());
        let mut timing = a.clone();
        timing.timing.t_rfc += 1.0;
        assert_ne!(a.cache_descriptor(), timing.cache_descriptor());
        // Plugins perturb the run (injected refreshes cost command slots),
        // so the plugin axis moves the descriptor — by name, and by order.
        let defended = a.clone().with_plugin(crate::plugin::oracle(1024));
        assert_ne!(a.cache_descriptor(), defended.cache_descriptor());
        assert_ne!(
            defended.cache_descriptor(),
            a.clone()
                .with_plugin(crate::plugin::oracle(2048))
                .cache_descriptor()
        );
        let ab = a
            .clone()
            .with_plugin(crate::plugin::oracle(1024))
            .with_plugin(crate::plugin::para(0.01));
        let ba = a
            .clone()
            .with_plugin(crate::plugin::para(0.01))
            .with_plugin(crate::plugin::oracle(1024));
        assert_ne!(ab.cache_descriptor(), ba.cache_descriptor());
        // …while the documented result-neutral fields do not.
        let event = a.clone().with_kernel(KernelMode::Event);
        let dense = a.clone().with_kernel(KernelMode::Dense);
        assert_eq!(event.cache_descriptor(), dense.cache_descriptor());
        let probed = a.clone().with_probe(crate::probe::probe("epochs:50000"));
        assert_eq!(a.cache_descriptor(), probed.cache_descriptor());
    }

    #[test]
    fn configs_compare_by_workload_identity() {
        let a = SystemConfig::table3(8.0, baseline());
        assert_eq!(a.workload.name(), "mix0");
        let b = a.clone().with_workload(hira_workload::stream());
        assert_ne!(a, b);
        assert_eq!(b.workload.name(), "stream");
    }
}
