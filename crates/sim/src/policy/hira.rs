//! Per-row refresh through HiRA-MC (§5/§8) as a [`RefreshPolicy`].

use super::{
    DemandDecision, PolicyEnv, PolicyHandle, PolicyProfile, PolicyStats, RankView, RefreshAction,
    RefreshPolicy,
};
use hira_core::config::HiraConfig;
use hira_core::finder::{DeadlineWork, HiraMc, HiraMcParams, McAction, McStats};
use hira_dram::addr::{BankId, RowId};

/// Builds the per-rank [`HiraMc`] instance a HiRA-backed policy drives.
pub(super) fn build_mc(env: &PolicyEnv, config: HiraConfig, periodic_via_hira: bool) -> HiraMc {
    HiraMc::new(HiraMcParams {
        banks: env.banks,
        rows_per_bank: env.rows_per_bank,
        rows_per_subarray: env.rows_per_subarray,
        t_refw_ns: env.timing.t_refw,
        timing: env.timing,
        config,
        periodic_via_hira,
        para_pth: None,
        spt_fraction: env.spt_fraction,
        seed: env.seed,
    })
}

/// The shared HiRA-MC service loop: deadline-driven work first (Case 2,
/// gated on the due bank's backlog), then opportunistic service on idle
/// demand-free banks. Used by [`HiraPolicy`] and the queued-PARA wrapper.
pub(super) fn poll_mc(mc: &mut HiraMc, now_ns: f64, view: &RankView<'_>) -> Option<RefreshAction> {
    if let Some(bank) = mc.next_due_bank(now_ns) {
        if !view.backlogged(bank) {
            if let Some(work) = mc.deadline_work(now_ns) {
                return Some(work_to_action(work));
            }
        }
        // Due bank backlogged: leave the entry queued (its deadline forces
        // it later) and fall through to opportunistic service elsewhere.
    }
    for b in 0..view.banks() {
        let bank = BankId(b);
        if view.idle(bank) && mc.has_queued(bank) {
            if let Some(work) = mc.opportunistic_work(now_ns, bank) {
                return Some(work_to_action(work));
            }
        }
    }
    None
}

/// The HiRA-MC wake under `view`'s bank state: the first instant at which
/// [`poll_mc`] could return work or [`HiraMc::tick`] could change state.
/// [`poll_mc`] serves
///
/// * deadline work once the earliest deadline is within `tRC` (the exact
///   instant [`HiraMc::next_due`] reports) and its bank is not backlogged;
/// * opportunistic work once a demand-free closed bank holding queued
///   requests reaches its next `ACT`.
pub(super) fn mc_wake_under(mc: &HiraMc, view: &RankView<'_>) -> f64 {
    let mut wake = mc.generation_wake();
    if let Some((due, bank)) = mc.next_due() {
        wake = wake.min(due.max(view.ns(view.unbacklogged_at(bank))));
    }
    for bank in mc.queued_banks() {
        if let Some(idle) = view.idle_at(bank) {
            wake = wake.min(view.ns(idle));
        }
    }
    wake
}

fn work_to_action(work: DeadlineWork) -> RefreshAction {
    match work {
        DeadlineWork::Single { bank, row } => RefreshAction::Single { bank, row },
        DeadlineWork::Pair {
            bank,
            first,
            second,
        } => RefreshAction::Pair {
            bank,
            first,
            second,
        },
    }
}

/// Per-row periodic refresh through HiRA-MC: requests generated at the
/// per-row rate, queued with `tRefSlack = N·tRC`, and served by deadline as
/// refresh-access ride-alongs (Case 1), refresh-refresh pairs or singles
/// (Case 2) — plus opportunistic zero-interference service on idle banks.
#[derive(Debug)]
pub struct HiraPolicy {
    name: String,
    mc: HiraMc,
}

impl HiraPolicy {
    /// Builds the policy for one rank.
    pub fn new(name: impl Into<String>, env: &PolicyEnv, config: HiraConfig) -> Self {
        HiraPolicy {
            name: name.into(),
            mc: build_mc(env, config, true),
        }
    }

    /// The underlying controller's configuration.
    pub fn config(&self) -> &HiraConfig {
        self.mc.config()
    }
}

impl RefreshPolicy for HiraPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, now_ns: f64) {
        self.mc.tick(now_ns);
    }

    fn next_action(&mut self, now_ns: f64, view: &RankView<'_>) -> Option<RefreshAction> {
        poll_mc(&mut self.mc, now_ns, view)
    }

    fn next_wake(&self, now_ns: f64) -> f64 {
        self.mc.next_wake(now_ns)
    }

    fn next_wake_under(&self, _now_ns: f64, view: &RankView<'_>) -> f64 {
        mc_wake_under(&self.mc, view)
    }

    fn on_demand_act(&mut self, now_ns: f64, bank: BankId, row: RowId) -> DemandDecision {
        match self.mc.on_demand_act(now_ns, bank, row) {
            McAction::Plain => DemandDecision::Plain,
            McAction::Hira { refresh_row, .. } => DemandDecision::Hira { refresh_row },
        }
    }

    fn on_act_executed(&mut self, now_ns: f64, bank: BankId, row: RowId) {
        self.mc.on_row_activated(now_ns, bank, row);
    }

    fn attach_para(&mut self, pth: f64, slack_acts: u32) -> bool {
        // HiRA-MC queues preventive victims under its own tRefSlack; absorb
        // only when that matches the slack the layer's p_th was solved for,
        // otherwise the caller wraps us with a dedicated preventive MC.
        if slack_acts != self.mc.config().slack_acts {
            return false;
        }
        self.mc.enable_para(pth);
        true
    }

    fn hira_lead(&self) -> Option<(f64, f64)> {
        let t = self.mc.config().op.timings;
        Some((t.t1, t.t2))
    }

    fn profile(&self) -> PolicyProfile {
        let p = self.mc.params();
        let t = &p.timing;
        let rows = f64::from(p.rows_per_bank);
        let single = rows * t.t_rc / t.t_refw;
        let paired = rows * (self.mc.config().op.two_row_refresh_ns(t) + t.t_rp) / 2.0 / t.t_refw;
        PolicyProfile {
            performs_refresh: true,
            rank_blocked_frac: 0.0,
            bank_busy_frac: if self.mc.config().refresh_refresh {
                paired
            } else {
                single
            },
            cmd_per_sec: rows * f64::from(p.banks) * 2.0 / (t.t_refw * 1e-9),
        }
    }

    fn mc_stats(&self) -> Vec<McStats> {
        vec![self.mc.stats()]
    }

    fn stats(&self) -> PolicyStats {
        let s = self.mc.stats();
        PolicyStats {
            rank_refs: 0,
            bank_refs: 0,
            rows_refreshed: s.refresh_access + s.refresh_refresh + s.singles,
            rows_skipped: 0,
            preventive_queued: s.preventive_generated,
        }
    }
}

/// Handle for the registry keys `hira<N>` (HiRA-N: `tRefSlack = N·tRC`).
pub fn hira(n: u32) -> PolicyHandle {
    hira_custom(format!("hira{n}"), HiraConfig::hira_n(n)).with_summary(format!(
        "per-row refresh through HiRA-MC, tRefSlack = {n}*tRC"
    ))
}

/// Handle for an explicitly-configured HiRA-MC (ablations, custom `t1/t2`).
/// The name is the identity — encode the configuration in it.
pub fn hira_custom(name: impl Into<String>, config: HiraConfig) -> PolicyHandle {
    let name = name.into();
    let key = name.clone();
    PolicyHandle::new(name, move |env| {
        Box::new(HiraPolicy::new(key.clone(), env, config))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn policy(n: u32) -> HiraPolicy {
        let cfg = SystemConfig::table3(8.0, hira(n));
        HiraPolicy::new(
            format!("hira{n}"),
            &PolicyEnv::for_rank(&cfg, 0, 0),
            HiraConfig::hira_n(n),
        )
    }

    fn idle_view() -> RankView<'static> {
        RankView {
            now: 1_000_000,
            clock: crate::clock::MemClock::ddr4_2400(),
            t_rc: 56,
            bank_next_act: &[0; 16],
            bank_has_demand: &[false; 16],
            bank_open: &[false; 16],
        }
    }

    #[test]
    fn serves_generated_requests_by_deadline_or_opportunistically() {
        let mut p = policy(2);
        p.tick(4_000.0);
        let mut served = 0;
        while p.next_action(4_000.0, &idle_view()).is_some() {
            served += 1;
            if served > 1_000 {
                break;
            }
        }
        assert!(served >= 16, "served {served}");
        assert!(p.stats().rows_refreshed >= 16);
    }

    #[test]
    fn backlog_defers_deadline_work_to_opportunistic_banks() {
        let mut p = policy(0); // everything immediately due
        p.tick(2_000.0);
        // All banks backlogged and non-idle: nothing can be served.
        let blocked = [u64::MAX; 16];
        let busy = RankView {
            now: 0,
            clock: crate::clock::MemClock::ddr4_2400(),
            t_rc: 56,
            bank_next_act: &blocked,
            bank_has_demand: &[true; 16],
            bank_open: &[false; 16],
        };
        assert_eq!(p.next_action(2_000.0, &busy), None);
        // Queue intact: an idle view drains it.
        assert!(p.next_action(2_000.0, &idle_view()).is_some());
    }

    #[test]
    fn attach_para_is_absorbed_natively_at_matching_slack() {
        let mut p = policy(4);
        assert!(p.attach_para(1.0, 4));
        p.on_act_executed(100.0, BankId(0), RowId(500));
        assert_eq!(p.stats().preventive_queued, 1);
    }

    #[test]
    fn attach_para_refuses_a_mismatched_slack() {
        // hira8 cannot honour a 2·tRC victim deadline with its own 8·tRC
        // queue; the layer must be wrapped instead of silently loosened.
        let mut p = policy(8);
        assert!(!p.attach_para(1.0, 2));
        p.on_act_executed(100.0, BankId(0), RowId(500));
        assert_eq!(p.stats().preventive_queued, 0);
    }

    #[test]
    fn lead_timings_come_from_the_operation() {
        let p = policy(4);
        let (t1, t2) = p.hira_lead().unwrap();
        assert_eq!((t1, t2), (3.0, 3.0));
    }
}
