//! # hira-sim — cycle-level system simulation (paper §7-§10)
//!
//! A from-scratch Ramulator-style simulator: workload-driven out-of-order
//! cores (4-wide, 128-entry instruction window), a shared 8 MB LLC, and a
//! detailed DDR4 memory system (FR-FCFS scheduling, open-row policy, MOP
//! address mapping, per-bank/rank/channel timing including `tFAW`,
//! command-bus and data-bus contention, and `tRFC`-scaled rank-level
//! refresh).
//!
//! Demand traffic comes from the **open workload frontend**
//! ([`hira_workload`]): `SystemConfig.workload` is a
//! [`hira_workload::WorkloadHandle`], and each core runs its own
//! [`hira_workload::Workload`] instance — the SPEC-like roster mixes,
//! parametric generators, or `.trace` replays, all selected by registry
//! name.
//!
//! Refresh arrangements are **open**: any type implementing
//! [`policy::RefreshPolicy`] plugs into the controller, and the standard
//! [`policy::PolicyRegistry`] ships the paper's three arrangements plus the
//! related-work policies the open API enables:
//!
//! * **`noref`** — the ideal upper bound of Fig. 9a,
//! * **`baseline`** — conventional all-bank `REF` every `tREFI` with
//!   `tRFC = 110·C^0.6` ns (Expression 1),
//! * **`refpb`** — staggered per-bank `REFpb` (refresh-access parallelism à
//!   la Chang et al.),
//! * **`raidr`** — RAIDR-style retention-binned per-row refresh over the
//!   `hira-dram` retention model,
//! * **`hira<N>`** — per-row refresh through [`hira_core::HiraMc`], with
//!   refresh-access and refresh-refresh parallelization.
//!
//! PARA preventive refreshes (§9) can be layered on any arrangement through
//! its policy handle, either served immediately (the "PARA" baseline) or
//! queued and parallelized by HiRA-MC — see
//! [`policy::PolicyHandle::with_para_immediate`] /
//! [`policy::PolicyHandle::with_para_hira`]. One HiRA-MC per rank hosts
//! both the periodic and the PARA queue ([`policy::HiraPolicy`]).
//!
//! The DRAM part itself is the **third open axis** ([`device`]): any type
//! implementing [`device::DeviceModel`] supplies the command clock (and
//! the CPU↔memory tick ratio), bank geometry, a capacity-scaled timing
//! table, and capability flags (HiRA `t1`/`t2` support, native `REFpb`).
//! The standard [`device::DeviceRegistry`] ships `ddr4-2400` (the Table 3
//! part, bit-identical to the pre-API simulator), `ddr4-3200`,
//! `lpddr4-3200` (native per-bank refresh) and the HiRA-inert
//! `samsung-ddr4-2400`, plus the dynamic `ddr4-2400@<Gb>` capacity form.
//!
//! System configurations are assembled through the validated
//! [`builder::SystemBuilder`].
//!
//! Every run can carry an **observer** ([`probe`]): a [`probe::Probe`]
//! installed via [`builder::SystemBuilder::probe`] sees every DRAM
//! command, a periodic epoch sample and the final [`SimResult`] —
//! without perturbing the simulation (results are bit-identical with or
//! without a probe, and the no-probe path costs one branch per
//! notification site). Built-ins cover ramulator-style command traces,
//! epoch time-series JSONL, the run's latency histograms and per-row
//! ACT-exposure counting.
//!
//! Time bases: CPU cycles at the host clock (Table 3: 3.2 GHz); the
//! memory controller ticks at the configured device's command clock —
//! DDR4-2400: 1.2 GHz, i.e. 3 memory ticks per 8 CPU cycles; the
//! 3200 MT/s parts: 1.6 GHz, 1 per 2 (see [`clock::MemClock`]).

pub mod builder;
pub mod clock;
pub mod config;
pub mod controller;
pub mod core_model;
pub mod device;
pub mod llc;
pub mod mapping;
pub mod metrics;
pub mod plugin;
pub mod policy;
pub mod probe;
pub mod request;
pub mod system;

pub use builder::{BuildError, SystemBuilder};
pub use config::{KernelMode, SystemConfig};
pub use device::{DeviceHandle, DeviceModel, DeviceProfile, DeviceRegistry};
pub use hira_workload::{Workload, WorkloadHandle, WorkloadRegistry};
pub use metrics::SimResult;
pub use plugin::{ControllerPlugin, PluginHandle, PluginRegistry};
pub use policy::{PolicyHandle, PolicyRegistry, RefreshPolicy};
pub use probe::{Probe, ProbeHandle, ProbeRegistry};
pub use system::System;
