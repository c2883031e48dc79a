//! Graphene-style RowHammer defense: Misra-Gries frequent-item counting
//! (Park et al., MICRO 2020) with a configurable per-bank counter budget.
//! A bounded table of `k` counters per bank tracks candidate aggressors;
//! any aggressor activated more than `total_acts / (k + 1)` times is
//! guaranteed a counter, so with `k` sized to the refresh window the
//! defense is deterministic-safe like the oracle — at a fraction of the
//! state.

use super::{ControllerPlugin, ExposureTracker, PluginEnv, PluginHandle, PluginStats};
use crate::policy::RefreshAction;
use hira_dram::addr::{BankId, RowId};
use std::collections::{BTreeMap, VecDeque};

/// The Graphene defense: per-bank Misra-Gries aggressor tables with `k`
/// counters; when a tracked aggressor's estimated count reaches `tRH`,
/// both its neighbors are refreshed and the counter resets.
#[derive(Debug)]
pub struct GraphenePlugin {
    name: String,
    t_rh: u64,
    budget: usize,
    rows_per_bank: u32,
    /// Per-bank Misra-Gries tables. `BTreeMap`, not `HashMap`: the
    /// decrement sweep iterates the table, and iteration order must be
    /// deterministic for dense/event and thread-count bit-identity.
    counters: Vec<BTreeMap<u32, u64>>,
    tracker: ExposureTracker,
    queue: VecDeque<(BankId, RowId)>,
    injected: u64,
    acts: u64,
    spills: u64,
}

impl GraphenePlugin {
    /// A Graphene instance with threshold `t_rh` and `budget` counters
    /// per bank.
    pub fn new(t_rh: u64, budget: usize, env: &PluginEnv) -> Self {
        assert!(t_rh > 0, "graphene tRH must be positive");
        assert!(budget > 0, "graphene counter budget must be positive");
        GraphenePlugin {
            name: format!("graphene:{t_rh}:{budget}"),
            t_rh,
            budget,
            rows_per_bank: env.rows_per_bank,
            counters: (0..env.banks).map(|_| BTreeMap::new()).collect(),
            tracker: ExposureTracker::new(),
            queue: VecDeque::new(),
            injected: 0,
            acts: 0,
            spills: 0,
        }
    }

    fn queue_neighbors(&mut self, bank: BankId, row: RowId) {
        if row.0 > 0 {
            self.queue.push_back((bank, RowId(row.0 - 1)));
        }
        if row.0 + 1 < self.rows_per_bank {
            self.queue.push_back((bank, RowId(row.0 + 1)));
        }
    }
}

impl ControllerPlugin for GraphenePlugin {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_act(&mut self, _now_ns: f64, bank: BankId, row: RowId) {
        self.acts += 1;
        self.tracker.on_act(bank, row);
        let table = &mut self.counters[bank.index()];
        let fired = if let Some(count) = table.get_mut(&row.0) {
            *count += 1;
            *count >= self.t_rh
        } else if table.len() < self.budget {
            table.insert(row.0, 1);
            self.t_rh <= 1
        } else {
            // Misra-Gries spill: decrement every counter, evict zeros.
            self.spills += 1;
            table.retain(|_, count| {
                *count -= 1;
                *count > 0
            });
            false
        };
        if fired {
            // Neighbors refreshed: the aggressor's slate is clean.
            self.counters[bank.index()].remove(&row.0);
            self.queue_neighbors(bank, row);
        }
    }

    fn next_action(&mut self, _now_ns: f64) -> Option<RefreshAction> {
        let (bank, row) = self.queue.pop_front()?;
        self.injected += 1;
        Some(RefreshAction::Single { bank, row })
    }

    fn next_wake(&self, now_ns: f64) -> f64 {
        if self.queue.is_empty() {
            f64::INFINITY
        } else {
            now_ns
        }
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

/// The `graphene:<tRH>:<k>` handle.
pub fn graphene(t_rh: u64, budget: usize) -> PluginHandle {
    PluginHandle::new(
        format!("graphene:{t_rh}:{budget}"),
        move |env: &PluginEnv| Box::new(GraphenePlugin::new(t_rh, budget, env)),
    )
    .with_summary(format!(
        "Misra-Gries aggressor tracking, {budget} counters/bank, neighbor refresh at tRH = {t_rh}"
    ))
    .with_vrr()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> PluginEnv {
        PluginEnv {
            channel: 0,
            rank: 0,
            banks: 4,
            rows_per_bank: 64,
            seed: 0,
            ordinal: 0,
        }
    }

    fn drain(p: &mut GraphenePlugin) -> Vec<RefreshAction> {
        std::iter::from_fn(|| p.next_action(0.0)).collect()
    }

    #[test]
    fn tracked_aggressor_triggers_neighbor_refreshes_at_trh() {
        let mut p = GraphenePlugin::new(4, 8, &env());
        let b = BankId(0);
        for i in 0..4 {
            p.on_act(f64::from(i), b, RowId(20));
        }
        assert_eq!(
            drain(&mut p),
            vec![
                RefreshAction::Single {
                    bank: b,
                    row: RowId(19)
                },
                RefreshAction::Single {
                    bank: b,
                    row: RowId(21)
                },
            ]
        );
        // Counter reset: four more hammers are needed for the next pair.
        for i in 4..7 {
            p.on_act(f64::from(i), b, RowId(20));
        }
        assert!(drain(&mut p).is_empty());
        p.on_act(7.0, b, RowId(20));
        assert_eq!(drain(&mut p).len(), 2);
    }

    #[test]
    fn spills_decrement_every_counter_and_evict_zeros() {
        let mut p = GraphenePlugin::new(100, 2, &env());
        let b = BankId(1);
        p.on_act(0.0, b, RowId(1)); // {1: 1}
        p.on_act(1.0, b, RowId(2)); // {1: 1, 2: 1}
        p.on_act(2.0, b, RowId(2)); // {1: 1, 2: 2}
        p.on_act(3.0, b, RowId(3)); // table full: spill -> {2: 1}
        assert_eq!(p.spills, 1);
        assert_eq!(p.counters[b.index()], BTreeMap::from([(2, 1)]));
    }

    #[test]
    fn heavy_hitter_survives_interleaved_noise() {
        // 64 distinct noise rows interleaved with a hammer on row 5: the
        // Misra-Gries guarantee keeps the hammer tracked and the defense
        // still fires.
        let mut p = GraphenePlugin::new(32, 8, &env());
        let b = BankId(0);
        let mut t = 0.0;
        for round in 0..64u32 {
            p.on_act(t, b, RowId(5));
            t += 1.0;
            p.on_act(t, b, RowId(100 + round));
            t += 1.0;
        }
        assert!(
            p.injected + p.queue.len() as u64 >= 2,
            "hammer on row 5 was never caught"
        );
    }

    #[test]
    fn graphene_clamps_neighbors_at_both_bank_edges() {
        let mut p = GraphenePlugin::new(1, 4, &env());
        p.on_act(0.0, BankId(0), RowId(0));
        assert_eq!(
            drain(&mut p),
            vec![RefreshAction::Single {
                bank: BankId(0),
                row: RowId(1)
            }]
        );
        p.on_act(1.0, BankId(0), RowId(63));
        assert_eq!(
            drain(&mut p),
            vec![RefreshAction::Single {
                bank: BankId(0),
                row: RowId(62)
            }]
        );
    }
}
