//! # hira-dram — circuit-behavioural DDR4 model
//!
//! This crate is the DRAM substrate of the HiRA (MICRO 2022) reproduction. It
//! models an off-the-shelf DDR4 module at the level of detail the paper's
//! real-chip experiments observe:
//!
//! * bank / subarray / local-row-buffer organization with the open-bitline
//!   sense-amplifier sharing between vertically adjacent subarrays
//!   ([`geometry`], [`isolation`]),
//! * per-row *analog* timing parameters (sense-amplifier enable point,
//!   activation latch point, word-line turn-off delay, local-row-buffer
//!   disconnect delay, charge-restoration target) with design-induced and
//!   process variation ([`analog`]),
//! * a command-level state machine that accepts *arbitrary* — including
//!   deliberately timing-violating — `ACT`/`PRE` sequences and corrupts stored
//!   data exactly when the paper's HiRA operating conditions (§3) are violated
//!   ([`bank`], [`chip`]),
//! * RowHammer disturbance with per-row thresholds, weak cells and restore
//!   efficiency ([`rowhammer`]), retention leakage ([`retention`]),
//! * DRAM-internal logical→physical row remapping ([`mapping`]) and
//!   per-manufacturer behavioural profiles ([`vendor`]).
//!
//! The perf-oriented cycle simulator (`hira-sim`) does **not** use this data
//! model; it reuses only the shared [`timing`], [`addr`] and [`isolation`]
//! vocabulary. This crate exists so that §4's Algorithms 1 and 2 can run
//! verbatim against a software chip.
//!
//! ## Example
//!
//! ```rust
//! use hira_dram::chip::DramModule;
//! use hira_dram::module_spec::ModuleSpec;
//! use hira_dram::addr::{BankId, RowId};
//!
//! // Build a module model and run a nominal activate/precharge pair.
//! let spec = ModuleSpec::sk_hynix_4gb(0xC0FFEE);
//! let mut module = DramModule::new(spec);
//! let bank = BankId(0);
//! module.write_row(bank, RowId(42), &vec![0xAA; module.geometry().row_bytes]);
//! let data = module.read_row(bank, RowId(42));
//! assert!(data.iter().all(|&b| b == 0xAA));
//! ```

pub mod addr;
pub mod analog;
pub mod bank;
pub mod chip;
pub mod command;
pub mod decimal;
pub mod error;
pub mod geometry;
pub mod isolation;
pub mod mapping;
pub mod module_spec;
pub mod retention;
pub mod rng;
pub mod rowhammer;
pub mod timing;
pub mod vendor;

pub use addr::{BankId, RowId, SubarrayId};
pub use chip::DramModule;
pub use command::DramCommand;
pub use error::DramError;
pub use geometry::ChipGeometry;
pub use isolation::IsolationMap;
pub use module_spec::ModuleSpec;
pub use timing::{HiraTimings, TimingParams};
