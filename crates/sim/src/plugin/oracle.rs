//! `OracleRh` — the exact-knowledge RowHammer defense bound (ramulator2's
//! `OracleRH` counterpart): per-bank per-row victim-exposure counters with
//! no aliasing or budget, refreshing each victim the instant its exposure
//! reaches the chip's RowHammer threshold `tRH`.

use super::{row_key, ControllerPlugin, ExposureTracker, PluginEnv, PluginHandle, PluginStats};
use crate::llc::IntSet;
use crate::policy::RefreshAction;
use hira_dram::addr::{BankId, RowId};
use std::collections::VecDeque;

/// The oracle defense: exact per-row exposure, exact `tRH` trigger. Its
/// injected-refresh count is the *minimum* any deterministic defense with
/// the same threshold must pay — the lower bound the tracked defenses
/// (PARA's probabilistic overshoot, Graphene's budget-limited counters)
/// are measured against.
#[derive(Debug)]
pub struct OracleRh {
    name: String,
    t_rh: u64,
    rows_per_bank: u32,
    tracker: ExposureTracker,
    /// Victims whose exposure crossed `t_rh`, awaiting injection.
    due: VecDeque<(BankId, RowId)>,
    /// Rows currently queued or injected-but-not-yet-executed, so one
    /// victim is never queued twice before its refresh lands (packed
    /// [`row_key`]s; the set is only probed, never iterated).
    pending: IntSet,
    injected: u64,
    acts: u64,
}

impl OracleRh {
    /// An oracle with RowHammer threshold `t_rh` on a `rows_per_bank`-row
    /// bank geometry.
    pub fn new(t_rh: u64, rows_per_bank: u32) -> Self {
        assert!(t_rh > 0, "oracle tRH must be positive");
        OracleRh {
            name: format!("oracle:{t_rh}"),
            t_rh,
            rows_per_bank,
            tracker: ExposureTracker::new(),
            due: VecDeque::new(),
            pending: IntSet::default(),
            injected: 0,
            acts: 0,
        }
    }

    /// Exposure of `row` right now (the probe-vs-plugin consistency test
    /// reads these).
    pub fn exposure(&self, bank: BankId, row: RowId) -> u64 {
        self.tracker.exposure(bank, row)
    }

    fn consider(&mut self, bank: BankId, victim: RowId) {
        if victim.0 >= self.rows_per_bank {
            return; // counted for the cross-check, but physically absent
        }
        if self.tracker.exposure(bank, victim) >= self.t_rh
            && self.pending.insert(row_key(bank, victim))
        {
            self.due.push_back((bank, victim));
        }
    }
}

impl ControllerPlugin for OracleRh {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_act(&mut self, _now_ns: f64, bank: BankId, row: RowId) {
        self.acts += 1;
        self.tracker.on_act(bank, row);
        // The activation reset `row`'s own exposure — its refresh (if one
        // was in flight) is now moot.
        self.pending.remove(&row_key(bank, row));
        if row.0 > 0 {
            self.consider(bank, RowId(row.0 - 1));
        }
        self.consider(bank, RowId(row.0 + 1));
    }

    fn next_action(&mut self, _now_ns: f64) -> Option<RefreshAction> {
        // `pending` keeps the row claimed until the injected refresh's own
        // `on_act` echo clears it, so a re-cross before execution cannot
        // double-queue; an entry whose victim a demand activation already
        // reset is stale and skipped.
        while let Some((bank, row)) = self.due.pop_front() {
            if !self.pending.contains(&row_key(bank, row)) {
                continue;
            }
            self.injected += 1;
            return Some(RefreshAction::Single { bank, row });
        }
        None
    }

    fn next_wake(&self, now_ns: f64) -> f64 {
        if self.due.is_empty() {
            f64::INFINITY
        } else {
            now_ns
        }
    }

    fn requires_vrr(&self) -> bool {
        true
    }

    fn stats(&self) -> PluginStats {
        self.tracker.fold_into(
            PluginStats {
                acts_observed: self.acts,
                injected: self.injected,
                ..PluginStats::default()
            },
            self.t_rh,
        )
    }
}

/// The `oracle:<tRH>` handle.
pub fn oracle(t_rh: u64) -> PluginHandle {
    PluginHandle::new(format!("oracle:{t_rh}"), move |env: &PluginEnv| {
        Box::new(OracleRh::new(t_rh, env.rows_per_bank))
    })
    .with_summary(format!(
        "exact per-row exposure counters, victim refresh at tRH = {t_rh} (lower bound)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(p: &mut OracleRh) -> Vec<RefreshAction> {
        std::iter::from_fn(|| p.next_action(0.0)).collect()
    }

    #[test]
    fn oracle_fires_exactly_at_the_threshold() {
        let mut p = OracleRh::new(3, 64);
        let b = BankId(1);
        for i in 0..2 {
            p.on_act(f64::from(i), b, RowId(10));
            assert!(drain(&mut p).is_empty(), "below threshold after {i}");
        }
        p.on_act(2.0, b, RowId(10));
        let fired = drain(&mut p);
        assert_eq!(
            fired,
            vec![
                RefreshAction::Single {
                    bank: b,
                    row: RowId(9)
                },
                RefreshAction::Single {
                    bank: b,
                    row: RowId(11)
                },
            ]
        );
        assert_eq!(p.stats().injected, 2);
        // The refreshes execute: their ACT echoes reset the exposure.
        p.on_act(3.0, b, RowId(9));
        p.on_act(3.0, b, RowId(11));
        assert_eq!(p.exposure(b, RowId(9)), 0);
        // ... so the next two hammers stay below threshold again (the
        // echoes themselves re-exposed row 10's neighbors by one: 8/10/12).
        p.on_act(4.0, b, RowId(10));
        assert!(drain(&mut p).is_empty());
    }

    #[test]
    fn oracle_never_double_queues_a_victim() {
        let mut p = OracleRh::new(2, 64);
        let b = BankId(0);
        for i in 0..5 {
            p.on_act(f64::from(i), b, RowId(7));
        }
        // Exposure crossed 2 at the second hammer and kept growing, but
        // each victim is queued once until its refresh lands.
        assert_eq!(drain(&mut p).len(), 2);
        assert_eq!(drain(&mut p).len(), 0);
    }

    #[test]
    fn oracle_clamps_injection_at_the_bank_edge() {
        let mut p = OracleRh::new(1, 8);
        let b = BankId(0);
        p.on_act(0.0, b, RowId(7)); // top row: neighbor 8 does not exist
        let fired = drain(&mut p);
        assert_eq!(
            fired,
            vec![RefreshAction::Single {
                bank: b,
                row: RowId(6)
            }]
        );
        // The phantom neighbor is still *counted* (probe symmetry)...
        assert_eq!(p.stats().neighbor_increments, 2);
    }

    #[test]
    fn oracle_wakes_only_while_victims_are_due() {
        let mut p = OracleRh::new(1, 64);
        assert_eq!(p.next_wake(5.0), f64::INFINITY);
        p.on_act(5.0, BankId(0), RowId(3));
        assert_eq!(p.next_wake(5.0), 5.0);
        drain(&mut p);
        assert_eq!(p.next_wake(6.0), f64::INFINITY);
    }
}
