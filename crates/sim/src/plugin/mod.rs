//! The open controller-plugin API: the fifth configuration axis,
//! alongside refresh policies ([`crate::policy`]), workloads
//! ([`hira_workload`]), devices ([`crate::device`]) and probes
//! ([`crate::probe`]).
//!
//! A **controller plugin** is a RowHammer-defense-shaped extension of the
//! channel controller, in the style of ramulator2's `IControllerPlugin`:
//! it observes every executed activation on its rank at exact
//! command-clock timing (demand rows, refresh singles, both rows of a
//! HiRA pair, preventive victims — the controller never filters the
//! stream), maintains per-bank state, and injects preventive-refresh
//! [`RefreshAction`]s back into the controller. Unlike a probe, a plugin
//! *perturbs* the simulation — its injected refreshes cost real command
//! slots and `tRRD`/`tFAW` budget — so plugin selection is part of the
//! result-affecting configuration ([`crate::config::SystemConfig::plugins`],
//! rendered into the cache descriptor) rather than the observer set.
//!
//! ## Shipped defenses
//!
//! | `--plugin=` form | defense | mechanism |
//! |---|---|---|
//! | `oracle:<tRH>` | [`OracleRh`] | exact per-row victim-exposure counters; refresh a victim the instant its exposure reaches `tRH` |
//! | `para:<p>` | [`ParaPlugin`] | probabilistic adjacent-row refresh (§9), reimplemented on the plugin axis |
//! | `graphene:<tRH>:<k>` | [`GraphenePlugin`] | Misra-Gries frequent-item tracking with a `k`-counter budget per bank |
//!
//! `oracle` and `graphene` issue *directed* victim-row refreshes — a
//! VRR-style vendor command — and therefore refuse to build on a device
//! whose command decoder lacks it
//! ([`crate::builder::BuildError::DeviceLacksVrr`]); `para` performs
//! plain neighbor activations and runs everywhere.
//!
//! ## Victim-exposure accounting
//!
//! All three defenses share an [`ExposureTracker`]: per (bank, row)
//! *victim exposure* — activations of a physically adjacent row since the
//! row itself was last activated or refreshed. Its summary rolls up into
//! [`PluginStats`] and surfaces through
//! [`crate::metrics::SimResult::plugin_totals`] (max/mean exposure, rows
//! over threshold), so attacker pressure has a measurable outcome beyond
//! IPC.
//!
//! ## Adding a plugin
//!
//! Implement the trait, wrap a factory in a handle, attach it:
//!
//! ```rust
//! use hira_sim::builder::SystemBuilder;
//! use hira_sim::plugin::{ControllerPlugin, PluginHandle, PluginStats};
//! use hira_sim::policy::RefreshAction;
//! use hira_dram::addr::{BankId, RowId};
//!
//! /// Refreshes row 0 of bank 0 after every 1000th observed activation.
//! /// Useless — but a complete plugin.
//! #[derive(Debug)]
//! struct Nervous {
//!     acts: u64,
//!     due: bool,
//! }
//!
//! impl ControllerPlugin for Nervous {
//!     fn name(&self) -> &str {
//!         "nervous"
//!     }
//!     fn on_act(&mut self, _now_ns: f64, _bank: BankId, _row: RowId) {
//!         self.acts += 1;
//!         if self.acts % 1000 == 0 {
//!             self.due = true;
//!         }
//!     }
//!     fn next_action(&mut self, _now_ns: f64) -> Option<RefreshAction> {
//!         std::mem::take(&mut self.due).then_some(RefreshAction::Single {
//!             bank: BankId(0),
//!             row: RowId(0),
//!         })
//!     }
//!     fn next_wake(&self, now_ns: f64) -> f64 {
//!         if self.due {
//!             now_ns
//!         } else {
//!             f64::INFINITY
//!         }
//!     }
//!     fn stats(&self) -> PluginStats {
//!         PluginStats {
//!             acts_observed: self.acts,
//!             ..PluginStats::default()
//!         }
//!     }
//! }
//!
//! let cfg = SystemBuilder::new()
//!     .insts(2_000, 400)
//!     .plugin(PluginHandle::new("nervous", |_env| {
//!         Box::new(Nervous { acts: 0, due: false })
//!     }))
//!     .build()
//!     .unwrap();
//! let result = hira_sim::System::new(cfg).run();
//! assert_eq!(result.plugin_stats.len(), 1);
//! assert!(result.plugin_stats[0].acts_observed > 0);
//! ```

mod graphene;
mod oracle;
mod para;
mod registry;

pub use graphene::{graphene, GraphenePlugin};
pub use oracle::{oracle, OracleRh};
pub use para::{para, ParaPlugin};
pub use registry::{plugin, PluginRegistry};

use crate::config::SystemConfig;
use crate::llc::IntMap;
use crate::policy::RefreshAction;
use hira_dram::addr::{BankId, RowId};
use std::fmt;
use std::sync::Arc;

/// Construction context handed to a plugin factory: everything a per-rank
/// defense needs to size its tables and seed its randomness.
#[derive(Debug, Clone, Copy)]
pub struct PluginEnv {
    /// Channel index of the controller instantiating the plugin.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Banks in the rank.
    pub banks: u16,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Deterministic seed, already mixed with channel, rank and the
    /// plugin's position in [`SystemConfig::plugins`], so no two plugin
    /// instances anywhere in the system share a random stream — and none
    /// shares one with a policy layer (PARA-as-plugin and PARA-as-policy
    /// draw differently).
    pub seed: u64,
    /// The plugin's position in [`SystemConfig::plugins`].
    pub ordinal: usize,
}

impl PluginEnv {
    /// The environment of plugin `ordinal` on rank `rank` of channel
    /// `channel` of `cfg`.
    pub fn for_rank(cfg: &SystemConfig, channel: usize, rank: usize, ordinal: usize) -> Self {
        PluginEnv {
            channel,
            rank,
            banks: cfg.banks,
            rows_per_bank: cfg.rows_per_bank(),
            seed: cfg.seed
                ^ 0x504C_5547
                ^ ((channel as u64) << 32)
                ^ ((rank as u64) << 16)
                ^ (ordinal as u64),
            ordinal,
        }
    }
}

/// Per-plugin service and victim-exposure counters, surfaced per rank in
/// [`crate::metrics::SimResult::plugin_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PluginStats {
    /// Executed activations the plugin observed (demand, refresh and its
    /// own injected victims alike).
    pub acts_observed: u64,
    /// Preventive victim-row refreshes the plugin injected.
    pub injected: u64,
    /// Cumulative neighbor-exposure increments: one per (activation,
    /// adjacent row) pair, never reset — the quantity the `act-exposure`
    /// probe's [`crate::probe::neighbor_acts`] cross-checks.
    pub neighbor_increments: u64,
    /// Highest instantaneous victim exposure any row ever reached.
    pub max_exposure: u64,
    /// Sum over tracked victim rows of each row's peak exposure (divide
    /// by [`exposure_rows`](Self::exposure_rows) for the mean).
    pub exposure_sum: u64,
    /// Distinct victim rows that accumulated any exposure.
    pub exposure_rows: u64,
    /// Victim rows whose peak exposure reached the defense threshold.
    pub rows_over_threshold: u64,
}

impl PluginStats {
    /// Component-wise aggregation: counters add, the peak takes the max.
    /// (Summing `exposure_rows` across ranks counts each rank's rows
    /// separately, which is exact — ranks never share DRAM rows.)
    pub fn merge(self, other: PluginStats) -> PluginStats {
        PluginStats {
            acts_observed: self.acts_observed + other.acts_observed,
            injected: self.injected + other.injected,
            neighbor_increments: self.neighbor_increments + other.neighbor_increments,
            max_exposure: self.max_exposure.max(other.max_exposure),
            exposure_sum: self.exposure_sum + other.exposure_sum,
            exposure_rows: self.exposure_rows + other.exposure_rows,
            rows_over_threshold: self.rows_over_threshold + other.rows_over_threshold,
        }
    }

    /// Mean per-row peak exposure (0.0 when nothing was tracked).
    pub fn mean_exposure(&self) -> f64 {
        if self.exposure_rows == 0 {
            0.0
        } else {
            self.exposure_sum as f64 / self.exposure_rows as f64
        }
    }
}

/// Per (bank, row) victim-exposure state: `current` counts adjacent-row
/// activations since the row was last activated/refreshed, `peak` the
/// highest `current` ever reached.
#[derive(Debug, Clone, Copy, Default)]
struct Exposure {
    current: u64,
    peak: u64,
}

/// The integer key of a `(bank, row)` pair: the bank above the row's 32
/// bits, so distinct pairs never share a key.
pub(crate) fn row_key(bank: BankId, row: RowId) -> u64 {
    (u64::from(bank.0) << 32) | u64::from(row.0)
}

/// Shared victim-exposure bookkeeping: per (bank, row) counts of
/// adjacent-row activations since the row itself was last activated.
///
/// Counting is deliberately *unclamped* at the top of the bank — an
/// activation of row `r` increments `r+1` even when `r` is the last row —
/// so the guards match the `act-exposure` probe's
/// [`crate::probe::neighbor_acts`] exactly (the probe has no geometry).
/// Injection decisions, not counting, clamp to the physical row range.
///
/// Rows are keyed by the packed integer `bank << 32 | row` on the
/// simulator's one-multiply integer hasher, as ramulator2's OracleRH keys
/// its per-bank counters by a plain row number; every activation makes
/// three lookups. No result depends on the map's order:
/// [`ExposureTracker::fold_into`] uses only max, sum and count.
#[derive(Debug, Default)]
pub struct ExposureTracker {
    rows: IntMap<Exposure>,
    neighbor_increments: u64,
}

impl ExposureTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        ExposureTracker::default()
    }

    /// Records an executed activation of `row`: the row's own exposure
    /// resets (an activation refreshes it), both physical neighbors gain
    /// one exposure.
    pub fn on_act(&mut self, bank: BankId, row: RowId) {
        let e = self.rows.entry(row_key(bank, row)).or_default();
        e.peak = e.peak.max(e.current);
        e.current = 0;
        if row.0 > 0 {
            self.bump(bank, RowId(row.0 - 1));
        }
        self.bump(bank, RowId(row.0 + 1));
    }

    fn bump(&mut self, bank: BankId, row: RowId) {
        let e = self.rows.entry(row_key(bank, row)).or_default();
        e.current += 1;
        e.peak = e.peak.max(e.current);
        self.neighbor_increments += 1;
    }

    /// The row's current exposure (adjacent activations since it was last
    /// activated).
    pub fn exposure(&self, bank: BankId, row: RowId) -> u64 {
        self.rows.get(&row_key(bank, row)).map_or(0, |e| e.current)
    }

    /// Total neighbor-exposure increments ever recorded (never reset).
    pub fn neighbor_increments(&self) -> u64 {
        self.neighbor_increments
    }

    /// Folds the tracker into `stats` (exposure fields only; fold order
    /// over the map is irrelevant because max/sum/count commute).
    pub fn fold_into(&self, mut stats: PluginStats, threshold: u64) -> PluginStats {
        stats.neighbor_increments = self.neighbor_increments;
        for e in self.rows.values() {
            let peak = e.peak.max(e.current);
            if peak == 0 {
                continue;
            }
            stats.max_exposure = stats.max_exposure.max(peak);
            stats.exposure_sum += peak;
            stats.exposure_rows += 1;
            if peak >= threshold {
                stats.rows_over_threshold += 1;
            }
        }
        stats
    }
}

/// A RowHammer-defense-shaped controller extension: observes every
/// executed activation on its rank, injects preventive refreshes.
///
/// ## Timing contract
///
/// All `now_ns` arguments are nanoseconds on the memory-controller
/// command clock, monotonically non-decreasing. Per controller tick the
/// controller polls [`next_action`](Self::next_action) until it returns
/// `None` (bounded by the same per-tick safety budget as the refresh
/// policy); every returned action **is executed immediately**, so the
/// plugin must commit its bookkeeping when it returns the action.
/// [`on_act`](Self::on_act) fires *after* every executed activation on
/// the rank — demand rows, policy refresh singles, both rows of a HiRA
/// pair, and the plugin's own injected victims alike (preventive
/// refreshes disturb their own neighbors, §9) — never filtered.
///
/// Under the event kernel, ticks outside [`next_wake`](Self::next_wake)
/// are skipped exactly as for [`crate::policy::RefreshPolicy::next_wake`]:
/// by returning `w > now_ns` the plugin guarantees `next_action` would
/// return `None` on every dense tick before `w`. `on_act` is still
/// delivered whenever work executes and the wake is re-queried after, so
/// a queue-driven plugin returns `now_ns` while it holds victims and
/// `f64::INFINITY` when idle. Waking early is always safe; waking late
/// breaks dense/event bit-identity.
pub trait ControllerPlugin: fmt::Debug + Send {
    /// Display name (diagnostics and stats attribution).
    fn name(&self) -> &str;

    /// Reports an executed activation (demand, refresh or preventive).
    fn on_act(&mut self, now_ns: f64, bank: BankId, row: RowId);

    /// The next preventive refresh the controller should execute now, or
    /// `None` when the plugin has nothing (more) to inject this tick.
    fn next_action(&mut self, now_ns: f64) -> Option<RefreshAction>;

    /// The next instant (ns) this plugin may need polling — the event
    /// kernel's skip contract (see the trait docs). The default `now_ns`
    /// means "poll me every tick", which is always correct.
    fn next_wake(&self, now_ns: f64) -> f64 {
        now_ns
    }

    /// Service and victim-exposure counters.
    fn stats(&self) -> PluginStats;
}

/// Factory signature behind a [`PluginHandle`].
pub type PluginFactory = dyn Fn(&PluginEnv) -> Box<dyn ControllerPlugin> + Send + Sync;

/// A cloneable, comparable *selection* of a controller plugin: the
/// registry key, the factory that builds per-rank instances, and whether
/// the plugin's refreshes need a directed-refresh command. This is what
/// [`SystemConfig::plugins`] stores — equality and hashing go by name,
/// mirroring [`crate::policy::PolicyHandle`]. Like the policy handle's
/// HiRA lead, the VRR need is a property of the selection, so
/// [`crate::builder::SystemBuilder::build`] checks it against the device
/// without building an instance.
#[derive(Clone)]
pub struct PluginHandle {
    name: Arc<str>,
    summary: Arc<str>,
    factory: Arc<PluginFactory>,
    requires_vrr: bool,
}

impl PluginHandle {
    /// Wraps a factory under a registry name. Parameterized plugins must
    /// encode their parameters in the name (e.g. `oracle:1024`): the name
    /// is the identity — and the cache key. The plugin refreshes through
    /// plain activations until [`with_vrr`](Self::with_vrr) says otherwise.
    pub fn new(
        name: impl Into<String>,
        factory: impl Fn(&PluginEnv) -> Box<dyn ControllerPlugin> + Send + Sync + 'static,
    ) -> Self {
        PluginHandle {
            name: Arc::from(name.into()),
            summary: Arc::from(""),
            factory: Arc::new(factory),
            requires_vrr: false,
        }
    }

    /// Attaches a one-line description (registry `--list` output). Not
    /// part of the identity: equality stays by name.
    pub fn with_summary(mut self, summary: impl Into<String>) -> Self {
        self.summary = Arc::from(summary.into());
        self
    }

    /// Declares that the plugin's injected refreshes are *directed*
    /// victim-row refresh commands (VRR-style) rather than plain
    /// activations. Not part of the identity.
    pub fn with_vrr(mut self) -> Self {
        self.requires_vrr = true;
        self
    }

    /// Whether the plugin needs a device whose command decoder honors
    /// directed victim-row refresh — a typed
    /// [`crate::builder::BuildError::DeviceLacksVrr`] on devices that lack
    /// it.
    pub fn requires_vrr(&self) -> bool {
        self.requires_vrr
    }

    /// The plugin's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line description (empty when the registrant set none).
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// Builds one per-rank instance.
    pub fn build(&self, env: &PluginEnv) -> Box<dyn ControllerPlugin> {
        (self.factory)(env)
    }
}

impl fmt::Debug for PluginHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PluginHandle").field(&self.name).finish()
    }
}

impl PartialEq for PluginHandle {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for PluginHandle {}

impl std::hash::Hash for PluginHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn handles_compare_by_name() {
        assert_eq!(oracle(1024), oracle(1024));
        assert_ne!(oracle(1024), oracle(2048));
        assert_ne!(para(0.01), para(0.02));
        assert_ne!(graphene(1024, 64), graphene(1024, 128));
        assert_eq!(oracle(1024).name(), "oracle:1024");
        assert_eq!(para(0.01).name(), "para:0.01");
        assert_eq!(graphene(1024, 64).name(), "graphene:1024:64");
    }

    #[test]
    fn exposure_tracker_counts_neighbors_and_resets_on_activation() {
        let mut t = ExposureTracker::new();
        let b = BankId(0);
        // Hammer row 10 three times: rows 9 and 11 each reach 3.
        for _ in 0..3 {
            t.on_act(b, RowId(10));
        }
        assert_eq!(t.exposure(b, RowId(9)), 3);
        assert_eq!(t.exposure(b, RowId(11)), 3);
        assert_eq!(t.exposure(b, RowId(10)), 0);
        assert_eq!(t.neighbor_increments(), 6);
        // Activating a victim resets its exposure (and exposes ITS
        // neighbors — self-disturbance).
        t.on_act(b, RowId(9));
        assert_eq!(t.exposure(b, RowId(9)), 0);
        assert_eq!(t.exposure(b, RowId(10)), 1);
        assert_eq!(t.exposure(b, RowId(8)), 1);
        // Peaks survive the reset.
        let s = t.fold_into(PluginStats::default(), 3);
        assert_eq!(s.max_exposure, 3);
        assert_eq!(s.rows_over_threshold, 2); // rows 9 and 11 peaked at 3
        assert_eq!(s.neighbor_increments, 8);
    }

    #[test]
    fn tracker_row_zero_has_one_neighbor() {
        let mut t = ExposureTracker::new();
        t.on_act(BankId(0), RowId(0));
        assert_eq!(t.neighbor_increments(), 1);
        assert_eq!(t.exposure(BankId(0), RowId(1)), 1);
    }

    /// The exposure accounting [`ExposureTracker`] keeps, over an ordered
    /// map keyed by the `(bank, row)` pair itself.
    #[derive(Default)]
    struct ReferenceTracker {
        /// `(current, peak)` per touched row.
        rows: BTreeMap<(u16, u32), (u64, u64)>,
        neighbor_increments: u64,
    }

    impl ReferenceTracker {
        fn on_act(&mut self, bank: u16, row: u32) {
            let (current, peak) = self.rows.entry((bank, row)).or_default();
            *peak = (*peak).max(*current);
            *current = 0;
            if row > 0 {
                self.bump(bank, row - 1);
            }
            self.bump(bank, row + 1);
        }

        fn bump(&mut self, bank: u16, row: u32) {
            let (current, peak) = self.rows.entry((bank, row)).or_default();
            *current += 1;
            *peak = (*peak).max(*current);
            self.neighbor_increments += 1;
        }

        /// `(max, sum, rows, rows over threshold)` of the rows' peaks.
        fn fold(&self, threshold: u64) -> (u64, u64, u64, u64) {
            let peaks = self
                .rows
                .values()
                .map(|&(c, p)| p.max(c))
                .filter(|&p| p > 0);
            peaks.fold((0, 0, 0, 0), |(max, sum, rows, over), p| {
                (
                    max.max(p),
                    sum + p,
                    rows + 1,
                    over + u64::from(p >= threshold),
                )
            })
        }
    }

    #[test]
    fn packed_exposure_keys_match_a_pair_keyed_reference() {
        // Seeded activations over 16 banks: a hot row set shared by every
        // bank, the full row range, row 0, and the rows at and past the
        // top of a 64 K-row bank (counting is unclamped there). A packing
        // that dropped the bank or truncated the row would merge rows the
        // reference keeps apart.
        let rows_per_bank = 64 * 1024;
        let mut rng = hira_dram::rng::Stream::from_words(&[0xE4905, 16]);
        let hot: Vec<u32> = (0..24)
            .map(|_| rng.next_below(u64::from(rows_per_bank)) as u32)
            .collect();
        let edges = [
            0,
            1,
            rows_per_bank - 2,
            rows_per_bank - 1,
            rows_per_bank,
            rows_per_bank + 1,
        ];
        let (mut tracker, mut reference) = (ExposureTracker::new(), ReferenceTracker::default());
        for _ in 0..60_000 {
            let bank = rng.next_below(16) as u16;
            let row = match rng.next_below(8) {
                0..=3 => hot[rng.next_below(hot.len() as u64) as usize],
                4 => edges[rng.next_below(edges.len() as u64) as usize],
                _ => rng.next_below(u64::from(rows_per_bank)) as u32,
            };
            tracker.on_act(BankId(bank), RowId(row));
            reference.on_act(bank, row);
        }
        for (&(bank, row), &(current, _)) in &reference.rows {
            assert_eq!(
                tracker.exposure(BankId(bank), RowId(row)),
                current,
                "bank {bank} row {row}"
            );
        }
        assert_eq!(
            tracker.exposure(BankId(16), RowId(hot[0])),
            0,
            "untouched bank"
        );
        assert_eq!(tracker.neighbor_increments(), reference.neighbor_increments);
        for threshold in [1, 2, 3, 5, 8, 13, 40, u64::MAX] {
            let s = tracker.fold_into(PluginStats::default(), threshold);
            let (max, sum, rows, over) = reference.fold(threshold);
            assert_eq!(
                (
                    s.max_exposure,
                    s.exposure_sum,
                    s.exposure_rows,
                    s.rows_over_threshold
                ),
                (max, sum, rows, over),
                "threshold {threshold}"
            );
            assert_eq!(s.neighbor_increments, reference.neighbor_increments);
        }
        let (max, _, _, over) = reference.fold(8);
        assert!(
            max >= 13 && over > 16,
            "the hot rows never built up exposure"
        );
    }

    #[test]
    fn stats_merge_sums_counters_and_maxes_the_peak() {
        let a = PluginStats {
            acts_observed: 10,
            injected: 2,
            neighbor_increments: 19,
            max_exposure: 7,
            exposure_sum: 20,
            exposure_rows: 4,
            rows_over_threshold: 1,
        };
        let b = PluginStats {
            acts_observed: 5,
            injected: 1,
            neighbor_increments: 9,
            max_exposure: 11,
            exposure_sum: 15,
            exposure_rows: 2,
            rows_over_threshold: 0,
        };
        let m = a.merge(b);
        assert_eq!(m.acts_observed, 15);
        assert_eq!(m.max_exposure, 11);
        assert_eq!(m.exposure_rows, 6);
        assert!((m.mean_exposure() - 35.0 / 6.0).abs() < 1e-12);
    }
}
