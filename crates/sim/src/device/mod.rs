//! The open DRAM-device API: the third configuration axis, alongside
//! refresh policies ([`crate::policy`]) and workloads ([`hira_workload`]).
//!
//! HiRA's gains depend directly on the device: `tRFC = 110·C^0.6` scales
//! with chip capacity, `t1`/`t2` only work on chips whose command decoder
//! executes timing-violating commands (§12 — SK Hynix yes, Samsung/Micron
//! no), and refresh-parallelism arrangements like `REFpb` are *native* on
//! LPDDR4 but emulated on DDR4. This module turns the previously
//! hard-coded DDR4-2400 part into an open interface:
//!
//! * [`DeviceModel`] — a self-describing device: a [`DeviceProfile`]
//!   (standard name, clock ratio, geometry, HiRA/REFpb capability) plus a
//!   capacity-scaled timing table,
//! * [`DeviceHandle`] — the cloneable, name-keyed selection
//!   [`crate::config::SystemConfig`] stores (identity by name, like
//!   policy and workload handles),
//! * [`DeviceRegistry`] — the ordered, string-keyed registry behind
//!   `--device=` axes, with the dynamic `ddr4-2400@<Gb>` capacity form,
//! * [`CommandTable`] — the integer command-clock timing table the
//!   channel controller schedules against, produced *by the device* (the
//!   open-API replacement for the controller's old closed `TimingC`).
//!
//! ## Shipped presets
//!
//! | registry key | standard | clock | geometry | notes |
//! |---|---|---|---|---|
//! | `ddr4-2400` | DDR4-2400 | 1.2 GHz (3:8) | 16 banks / 4 groups | the Table 3 part; bit-identical to the pre-API simulator |
//! | `ddr4-3200` | DDR4-3200 | 1.6 GHz (1:2) | 16 banks / 4 groups | faster grid, same analog core |
//! | `lpddr4-3200` | LPDDR4-3200 | 1.6 GHz (1:2) | 8 banks / 1 group | native per-bank `REFpb`, 32 ms window |
//! | `samsung-ddr4-2400` | DDR4-2400 | 1.2 GHz (3:8) | 16 banks / 4 groups | HiRA-inert decoder (§12): HiRA policies are a typed [`crate::builder::BuildError`] |
//! | `ddr4-2400@<Gb>` | DDR4-2400 | 1.2 GHz (3:8) | 16 banks / 4 groups | dynamic: `tRFC` pinned at `<Gb>` (a specific part, not a projection) |

mod presets;
mod registry;

pub use presets::{
    ddr4_2400, ddr4_2400_at, ddr4_3200, lpddr4_3200, samsung_ddr4_2400, StandardDevice, TrfcScaling,
};
pub use registry::{device, DeviceRegistry};

use crate::clock::{MemClock, MemCycle};
use hira_dram::timing::TimingParams;
use hira_dram::vendor::Manufacturer;
use std::fmt;
use std::sync::Arc;

/// Static, self-describing facts about a device: everything the system
/// needs *besides* the ns timing table — the clock pairing, the bank
/// geometry the mapper should default to, and the capability flags that
/// gate refresh arrangements.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Standard name (e.g. `"DDR4-2400"`), for display.
    pub standard: String,
    /// CPU clock in GHz (the simulated host, Table 3: 3.2).
    pub cpu_ghz: f64,
    /// Command clock in GHz (DDR4-2400: 1.2; DDR4/LPDDR4-3200: 1.6).
    pub mem_ghz: f64,
    /// Exact `(numerator, denominator)` of memory ticks per CPU cycle —
    /// the inverse of the headline `cpu_cycles_per_mem_tick` ratio, as a
    /// rational so the outer loop's tick accumulator is exact.
    pub mem_ticks_per_cpu_cycle: (u64, u64),
    /// Banks per rank the device exposes.
    pub banks: u16,
    /// Bank groups per rank (1 when the standard has none, e.g. LPDDR4).
    pub bank_groups: u16,
    /// Chip capacity in Gb a bare configuration of this device defaults
    /// to (pinned parts fix it; projected parts suggest the Table 3 8 Gb).
    pub default_chip_gbit: f64,
    /// Chip manufacturer — the source of the HiRA capability flag (§12).
    pub manufacturer: Manufacturer,
    /// Whether the command decoder executes HiRA's timing-violating
    /// `ACT`-`PRE`-`ACT` sequences (`t1`/`t2` support). Derived from the
    /// manufacturer for the shipped presets; a policy that needs HiRA
    /// operations on a device without this flag is a typed
    /// [`crate::builder::BuildError::DeviceLacksHira`].
    pub supports_hira: bool,
    /// Whether per-bank refresh (`REFpb`) is a native command of the
    /// standard (LPDDR4/DDR5) rather than an emulation.
    pub native_refpb: bool,
    /// `tRFCpb / tRFC`: the per-bank refresh latency fraction the device
    /// quotes (LPDDR4 8 Gb: 140 ns / 280 ns = 0.5; emulating DDR4 parts
    /// inherit the same conservative 0.5).
    pub t_rfc_pb_frac: f64,
    /// Whether the device honors vendor directed-refresh (VRR-style
    /// victim-row refresh) commands. A controller plugin that injects
    /// directed victim refreshes ([`crate::plugin::PluginHandle::
    /// requires_vrr`]) on a device without this flag is a typed
    /// [`crate::builder::BuildError::DeviceLacksVrr`]. The conservative
    /// Samsung decoder that drops HiRA's timing-violating sequences (§12)
    /// also drops these, so the shipped presets derive the flag from the
    /// manufacturer alongside `supports_hira`.
    pub supports_vrr: bool,
}

impl DeviceProfile {
    /// The clock pairing this profile describes.
    pub fn clock(&self) -> MemClock {
        MemClock::new(self.cpu_ghz, self.mem_ghz, self.mem_ticks_per_cpu_cycle)
    }

    /// CPU cycles per memory tick, as a float (display/diagnostics).
    pub fn cpu_cycles_per_mem_tick(&self) -> f64 {
        self.cpu_ghz / self.mem_ghz
    }
}

/// A DRAM device: a profile plus a capacity-scaled timing table.
///
/// ## Timing contract
///
/// [`timing`](Self::timing) must be a pure function of `chip_gbit`
/// returning a table that is internally consistent (`tRC ≥ tRAS + tRP`,
/// `tRFC < tREFI`, `tFAW ≥ 4·tRRD_S`) at every capacity the device
/// admits — the registry-wide property tests enforce exactly these
/// invariants over `{4, 8, 32, 64, 128}` Gb for every registered device.
/// Capacity scaling conventionally follows the paper's Expression (1)
/// (`tRFC = 110·C^0.6` ns) but a device may substitute its own model
/// (see [`TrfcScaling`]); everything *except* `tRFC` is normally
/// capacity-independent because Table 3 models density growth through
/// wider rows, not more rows.
pub trait DeviceModel: fmt::Debug + Send + Sync {
    /// Registry name (identity; e.g. `"ddr4-2400"`).
    fn name(&self) -> &str;

    /// The device's static self-description.
    fn profile(&self) -> &DeviceProfile;

    /// The ns timing table at `chip_gbit` chip capacity. See the trait
    /// docs for the consistency contract.
    fn timing(&self, chip_gbit: f64) -> TimingParams;

    /// The integer command-clock table the controller schedules against:
    /// [`timing`](Self::timing) quantized onto this device's command
    /// grid, with the HiRA `t1`/`t2` lead pair appended.
    fn command_table(&self, chip_gbit: f64, t1_ns: f64, t2_ns: f64) -> CommandTable {
        CommandTable::from_ns(
            &self.timing(chip_gbit),
            &self.profile().clock(),
            t1_ns,
            t2_ns,
        )
    }
}

/// A cloneable, comparable *selection* of a device: the registry key plus
/// the shared model. This is what [`crate::config::SystemConfig`] stores
/// and sweeps pass around — equality and hashing go by name, mirroring
/// [`crate::policy::PolicyHandle`] / [`hira_workload::WorkloadHandle`].
/// (Devices are immutable descriptions, so the handle shares one model
/// rather than wrapping a per-instance factory.)
#[derive(Clone)]
pub struct DeviceHandle {
    name: Arc<str>,
    summary: Arc<str>,
    model: Arc<dyn DeviceModel>,
}

impl DeviceHandle {
    /// Wraps a model under a registry name. Parameterized devices must
    /// encode their parameters in the name (e.g. `ddr4-2400@32`): the
    /// name is the identity.
    pub fn new(name: impl Into<String>, model: impl DeviceModel + 'static) -> Self {
        DeviceHandle {
            name: Arc::from(name.into()),
            summary: Arc::from(""),
            model: Arc::new(model),
        }
    }

    /// Attaches a one-line description (registry `--list` output). Not
    /// part of the identity: equality stays by name.
    pub fn with_summary(mut self, summary: impl Into<String>) -> Self {
        self.summary = Arc::from(summary.into());
        self
    }

    /// The device's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line description (empty when the registrant set none).
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// The device's static self-description.
    pub fn profile(&self) -> &DeviceProfile {
        self.model.profile()
    }

    /// The ns timing table at `chip_gbit` (see [`DeviceModel::timing`]).
    pub fn timing(&self, chip_gbit: f64) -> TimingParams {
        self.model.timing(chip_gbit)
    }

    /// The controller's integer command table (see
    /// [`DeviceModel::command_table`]).
    pub fn command_table(&self, chip_gbit: f64, t1_ns: f64, t2_ns: f64) -> CommandTable {
        self.model.command_table(chip_gbit, t1_ns, t2_ns)
    }
}

impl fmt::Debug for DeviceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DeviceHandle").field(&self.name).finish()
    }
}

impl PartialEq for DeviceHandle {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for DeviceHandle {}

impl std::hash::Hash for DeviceHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

/// DDR timing in integer command-clock cycles: the table the channel
/// controller schedules against, produced by the configured device
/// ([`DeviceModel::command_table`]). Quantization rounds *up* — an `x` ns
/// constraint cannot be satisfied before the covering command slot.
#[derive(Debug, Clone, Copy)]
pub struct CommandTable {
    pub rcd: MemCycle,
    pub ras: MemCycle,
    pub rp: MemCycle,
    pub rc: MemCycle,
    pub rrd_l: MemCycle,
    pub rrd_s: MemCycle,
    pub faw: MemCycle,
    pub ccd_l: MemCycle,
    pub ccd_s: MemCycle,
    pub cl: MemCycle,
    pub cwl: MemCycle,
    pub bl: MemCycle,
    pub wr: MemCycle,
    pub wtr: MemCycle,
    pub rtp: MemCycle,
    pub rfc: MemCycle,
    pub refi: MemCycle,
    /// HiRA `t1` and `t2` in command cycles.
    pub t1: MemCycle,
    pub t2: MemCycle,
}

impl CommandTable {
    /// Converts the ns-denominated parameters onto `clock`'s command
    /// grid. `t1`/`t2` are the HiRA lead timings in ns (policies that
    /// issue HiRA operations supply their own; anything else gets the
    /// nominal pair).
    pub fn from_ns(t: &TimingParams, clock: &MemClock, t1_ns: f64, t2_ns: f64) -> Self {
        let c = |ns| clock.ns_to_cycles(ns);
        CommandTable {
            rcd: c(t.t_rcd),
            ras: c(t.t_ras),
            rp: c(t.t_rp),
            rc: c(t.t_rc),
            rrd_l: c(t.t_rrd_l),
            rrd_s: c(t.t_rrd_s),
            faw: c(t.t_faw),
            ccd_l: c(t.t_ccd_l),
            ccd_s: c(t.t_ccd_s),
            cl: c(t.t_cl),
            cwl: c(t.t_cwl),
            bl: c(t.t_bl),
            wr: c(t.t_wr),
            wtr: c(t.t_wtr),
            rtp: c(t.t_rtp),
            rfc: c(t.t_rfc),
            refi: c(t.t_refi),
            t1: c(t1_ns),
            t2: c(t2_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_compare_by_name() {
        assert_eq!(ddr4_2400(), ddr4_2400());
        assert_ne!(ddr4_2400(), ddr4_3200());
        assert_ne!(ddr4_2400_at(32), ddr4_2400_at(64));
        assert_eq!(ddr4_2400_at(32).name(), "ddr4-2400@32");
    }

    #[test]
    fn command_table_reproduces_the_legacy_ddr4_2400_quantization() {
        // The exact integer table the pre-API controller used: the tracked
        // BENCH baselines depend on these values.
        let d = ddr4_2400();
        let t = d.command_table(8.0, 3.0, 3.0);
        assert_eq!(t.rc, 56);
        assert_eq!(t.ras, 39);
        assert_eq!(t.rp, 18);
        assert_eq!(t.rcd, 18);
        assert_eq!(t.faw, 20);
        assert_eq!(t.refi, 9360);
        assert_eq!(t.t1, 4);
        assert_eq!(t.t2, 4);
        // tRFC follows Expression 1 at the requested capacity.
        let clock = d.profile().clock();
        assert_eq!(
            t.rfc,
            clock.ns_to_cycles(hira_dram::timing::trfc_for_capacity(8.0))
        );
    }

    #[test]
    fn profiles_expose_clock_geometry_and_capability() {
        let d = ddr4_2400().profile().clone();
        assert_eq!(d.mem_ticks_per_cpu_cycle, (3, 8));
        assert!((d.cpu_cycles_per_mem_tick() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!((d.banks, d.bank_groups), (16, 4));
        assert!(d.supports_hira && !d.native_refpb);

        let l = lpddr4_3200().profile().clone();
        assert_eq!(l.mem_ticks_per_cpu_cycle, (1, 2));
        assert_eq!((l.banks, l.bank_groups), (8, 1));
        assert!(l.native_refpb);

        let s = samsung_ddr4_2400().profile().clone();
        assert!(!s.supports_hira, "Samsung decoders drop violating commands");
        assert_eq!(s.manufacturer, Manufacturer::Samsung);

        // VRR capability tracks the decoder: the conservative part drops
        // directed-refresh commands too, every other preset honors them.
        assert!(!s.supports_vrr);
        assert!(d.supports_vrr && l.supports_vrr);
        assert!(ddr4_3200().profile().supports_vrr);
    }
}
