//! Immediately-served PARA (§9), composable over any periodic policy
//! through [`super::PolicyHandle::with_para_immediate`]. The HiRA-queued
//! layer of [`super::PolicyHandle::with_para_hira`] is a
//! [`super::HiraPolicy`].

use super::{DemandDecision, PolicyEnv, PolicyStats, RankView, RefreshAction, RefreshPolicy};
use hira_core::finder::McStats;
use hira_core::para::Para;
use hira_dram::addr::{BankId, RowId};
use std::collections::VecDeque;

/// Immediately-served PARA (the plain "PARA" baseline of Fig. 12): every
/// executed activation triggers with probability `p_th`; victims are
/// refreshed as standalone singles on the next controller tick, ahead of
/// the inner policy's own work and regardless of bank pressure — exactly
/// the interference the queued variants exist to avoid.
pub struct ImmediatePara {
    name: String,
    inner: Box<dyn RefreshPolicy>,
    para: Para,
    queue: VecDeque<(BankId, RowId)>,
    rows_per_bank: u32,
    queued: u64,
    served: u64,
}

/// The composed-handle name of an immediate-PARA layer over `inner` —
/// single-sourced so [`super::PolicyHandle::with_para_immediate`] (handle
/// identity) and [`ImmediatePara::new`] (instance attribution) can never
/// disagree.
pub(super) fn immediate_name(inner: &str, pth: f64) -> String {
    format!("{inner}+para(p={pth:.4})")
}

impl ImmediatePara {
    /// Wraps `inner` with an immediate PARA layer.
    pub fn new(inner: Box<dyn RefreshPolicy>, pth: f64, env: &PolicyEnv) -> Self {
        ImmediatePara {
            name: immediate_name(inner.name(), pth),
            inner,
            para: Para::new(pth, env.seed ^ 0xBEEF),
            queue: VecDeque::new(),
            rows_per_bank: env.rows_per_bank,
            queued: 0,
            served: 0,
        }
    }
}

impl std::fmt::Debug for ImmediatePara {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImmediatePara")
            .field("name", &self.name)
            .field("queued", &self.queued)
            .field("inner", &self.inner)
            .finish()
    }
}

impl RefreshPolicy for ImmediatePara {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, now_ns: f64) {
        self.inner.tick(now_ns);
    }

    fn next_action(&mut self, now_ns: f64, view: &RankView<'_>) -> Option<RefreshAction> {
        // Victims first: "immediate" means ahead of everything queued.
        if let Some((bank, row)) = self.queue.pop_front() {
            self.served += 1;
            return Some(RefreshAction::Single { bank, row });
        }
        self.inner.next_action(now_ns, view)
    }

    fn on_demand_act(&mut self, now_ns: f64, bank: BankId, row: RowId) -> DemandDecision {
        self.inner.on_demand_act(now_ns, bank, row)
    }

    fn on_act_executed(&mut self, now_ns: f64, bank: BankId, row: RowId) {
        self.inner.on_act_executed(now_ns, bank, row);
        if let Some(side) = self.para.on_activate() {
            let victim = Para::victim(row, side, self.rows_per_bank);
            self.queue.push_back((bank, victim));
            self.queued += 1;
        }
    }

    fn next_wake(&self, now_ns: f64, view: &RankView<'_>) -> f64 {
        // Pending victims are served on the very next poll; otherwise the
        // layer is transparent and the inner policy's schedule governs.
        if self.queue.is_empty() {
            self.inner.next_wake(now_ns, view)
        } else {
            now_ns
        }
    }

    fn hira_lead(&self) -> Option<(f64, f64)> {
        self.inner.hira_lead()
    }

    fn mc_stats(&self) -> Vec<McStats> {
        self.inner.mc_stats()
    }

    fn stats(&self) -> PolicyStats {
        self.inner.stats().merge(PolicyStats {
            rows_refreshed: self.served,
            preventive_queued: self.queued,
            ..PolicyStats::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::policy::tests::{view, BLOCKED, IDLE};
    use crate::policy::{baseline, noref, HiraPolicy};

    fn env() -> PolicyEnv {
        PolicyEnv::for_rank(&SystemConfig::table3(8.0, noref()), 0, 0)
    }

    fn idle_view() -> RankView<'static> {
        view(1_000_000, &[IDLE; 16], &[0; 16])
    }

    #[test]
    fn immediate_para_serves_victims_next_poll() {
        let e = env();
        let mut p = ImmediatePara::new(noref().build(&e), 1.0, &e);
        p.on_act_executed(100.0, BankId(2), RowId(500));
        assert_eq!(p.stats().preventive_queued, 1);
        let act = p.next_action(101.0, &idle_view()).expect("victim served");
        match act {
            RefreshAction::Single { bank, row } => {
                assert_eq!(bank, BankId(2));
                assert_eq!(row.0.abs_diff(500), 1, "victim {row:?}");
            }
            other => panic!("expected a single, got {other:?}"),
        }
        assert_eq!(p.next_action(102.0, &idle_view()), None);
    }

    #[test]
    fn queued_para_holds_victims_for_their_slack() {
        let e = env();
        let mut p = HiraPolicy::para_layer(noref().build(&e), 1.0, 8, &e);
        p.on_act_executed(100.0, BankId(1), RowId(300));
        assert_eq!(p.stats().preventive_queued, 1);
        // Slack = 8·tRC = 370 ns: nothing due yet at t=110 on busy banks.
        let busy = view(0, &[BLOCKED; 16], &[1; 16]);
        assert_eq!(p.next_action(110.0, &busy), None);
        // By the deadline it must go out even on a loaded rank view.
        assert!(p.next_action(480.0, &idle_view()).is_some());
        assert_eq!(p.stats().rows_refreshed, 1);
    }

    #[test]
    fn queued_para_keeps_the_inner_periodic_engine_running() {
        let e = env();
        let mut p = HiraPolicy::para_layer(baseline().build(&e), 1.0, 4, &e);
        assert_eq!(
            p.next_action(0.0, &idle_view()),
            Some(RefreshAction::RankRef)
        );
        assert_eq!(p.stats().rank_refs, 1);
    }
}
