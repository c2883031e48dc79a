//! Per-row refresh through HiRA-MC (§5/§8) as a [`RefreshPolicy`], and
//! the HiRA-queued PARA layer (§9) for periodic policies without a
//! HiRA-MC of their own.

use super::{
    DemandDecision, PolicyEnv, PolicyHandle, PolicyStats, RankView, RefreshAction, RefreshPolicy,
};
use hira_core::config::HiraConfig;
use hira_core::finder::{DeadlineWork, HiraMc, HiraMcParams, McAction, McStats};
use hira_dram::addr::{BankId, RowId};

/// Builds the per-rank [`HiraMc`] instance a [`HiraPolicy`] drives.
fn build_mc(env: &PolicyEnv, config: HiraConfig, periodic_via_hira: bool) -> HiraMc {
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

/// The HiRA-MC service loop: deadline-driven work first (Case 2, gated on
/// the due bank's backlog), then opportunistic service on idle
/// demand-free banks.
fn poll_mc(mc: &mut HiraMc, now_ns: f64, view: &RankView<'_>) -> Option<RefreshAction> {
    if let Some(bank) = mc.next_due_bank(now_ns) {
        if !view.backlogged(bank) {
            if let Some(work) = mc.deadline_work(now_ns) {
                return Some(work_to_action(work));
            }
        }
        // Due bank backlogged: leave the entry queued (its deadline forces
        // it later) and fall through to opportunistic service elsewhere.
    }
    for b in 0..view.banks.len() {
        let bank = BankId(b as u16);
        if view.idle(bank) && mc.has_queued(bank) {
            if let Some(work) = mc.opportunistic_work(now_ns, bank) {
                return Some(work_to_action(work));
            }
        }
    }
    None
}

/// The HiRA-MC wake under `view`'s bank state: the first instant at which
/// [`poll_mc`] could return work or [`HiraMc::tick`] could change state
/// (with nothing queued, [`HiraMc::generation_wake`]). [`poll_mc`] serves
///
/// * deadline work once the earliest deadline is within `tRC` (the exact
///   instant [`HiraMc::next_due`] reports) and its bank is not backlogged;
/// * opportunistic work once a demand-free closed bank holding queued
///   requests reaches its next `ACT`.
fn mc_wake(mc: &HiraMc, view: &RankView<'_>) -> f64 {
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

/// The composed-handle name of a HiRA-queued PARA layer over `inner` (see
/// [`super::preventive::immediate_name`]). Also used for the absorb path,
/// where the inner policy hosts the layer itself.
pub(super) fn queued_name(inner: &str, pth: f64, slack_acts: u32) -> String {
    format!("{inner}+para@hira{slack_acts}(p={pth:.4})")
}

/// One HiRA-MC per rank, in either of the paper's two roles.
///
/// * Built by [`HiraPolicy::new`]: per-row periodic refresh. Requests are
///   generated at the per-row rate, queued with `tRefSlack = N·tRC`, and
///   served by deadline as refresh-access ride-alongs (Case 1),
///   refresh-refresh pairs or singles (Case 2), plus opportunistic
///   zero-interference service on idle banks. A PARA layer at the same
///   slack is absorbed into this MC ([`RefreshPolicy::attach_para`]).
/// * Built by [`HiraPolicy::para_layer`]: HiRA-queued PARA over a periodic
///   policy without a HiRA-MC of its own. Periodic generation is off, and
///   the MC queues only PARA victims. The inner policy comes first in
///   every hook but [`RefreshPolicy::on_demand_act`], where the MC may
///   claim the activation for a queued victim first.
#[derive(Debug)]
pub struct HiraPolicy {
    name: String,
    mc: HiraMc,
    /// The periodic policy a PARA layer runs over; `None` when the MC
    /// generates the periodic refreshes itself.
    inner: Option<Box<dyn RefreshPolicy>>,
}

impl HiraPolicy {
    /// Builds the periodic policy for one rank.
    pub fn new(name: impl Into<String>, env: &PolicyEnv, config: HiraConfig) -> Self {
        HiraPolicy {
            name: name.into(),
            mc: build_mc(env, config, true),
            inner: None,
        }
    }

    /// Layers HiRA-N-queued PARA over `inner` for one rank: a HiRA-MC with
    /// `tRefSlack = slack_acts·tRC`, periodic generation off and PARA
    /// sampling every executed activation with probability `pth`.
    pub fn para_layer(
        inner: Box<dyn RefreshPolicy>,
        pth: f64,
        slack_acts: u32,
        env: &PolicyEnv,
    ) -> Self {
        let mut mc = build_mc(env, HiraConfig::hira_n(slack_acts), false);
        mc.enable_para(pth);
        HiraPolicy {
            name: queued_name(inner.name(), pth, slack_acts),
            mc,
            inner: Some(inner),
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
        if let Some(inner) = &mut self.inner {
            inner.tick(now_ns);
        }
        self.mc.tick(now_ns);
    }

    fn next_action(&mut self, now_ns: f64, view: &RankView<'_>) -> Option<RefreshAction> {
        // A layer's periodic engine first (its REF cadence is a hard
        // schedule), then the MC's queue.
        if let Some(action) = self
            .inner
            .as_mut()
            .and_then(|i| i.next_action(now_ns, view))
        {
            return Some(action);
        }
        poll_mc(&mut self.mc, now_ns, view)
    }

    fn next_wake(&self, now_ns: f64, view: &RankView<'_>) -> f64 {
        let mc = mc_wake(&self.mc, view);
        match &self.inner {
            Some(inner) => inner.next_wake(now_ns, view).min(mc),
            None => mc,
        }
    }

    fn on_demand_act(&mut self, now_ns: f64, bank: BankId, row: RowId) -> DemandDecision {
        match (self.mc.on_demand_act(now_ns, bank, row), &mut self.inner) {
            (McAction::Hira { refresh_row, .. }, _) => DemandDecision::Hira { refresh_row },
            (McAction::Plain, Some(inner)) => inner.on_demand_act(now_ns, bank, row),
            (McAction::Plain, None) => DemandDecision::Plain,
        }
    }

    fn on_act_executed(&mut self, now_ns: f64, bank: BankId, row: RowId) {
        if let Some(inner) = &mut self.inner {
            inner.on_act_executed(now_ns, bank, row);
        }
        self.mc.on_row_activated(now_ns, bank, row);
    }

    fn attach_para(&mut self, pth: f64, slack_acts: u32) -> bool {
        // HiRA-MC queues preventive victims under its own tRefSlack; absorb
        // only when that matches the slack the layer's p_th was solved for,
        // otherwise the caller wraps us with a dedicated preventive MC. A
        // PARA layer never absorbs a second one.
        if self.inner.is_some() || slack_acts != self.mc.config().slack_acts {
            return false;
        }
        self.mc.enable_para(pth);
        true
    }

    fn hira_lead(&self) -> Option<(f64, f64)> {
        let t = self.mc.config().op.timings;
        Some((t.t1, t.t2))
    }

    fn mc_stats(&self) -> Vec<McStats> {
        let mut stats = vec![self.mc.stats()];
        if let Some(inner) = &self.inner {
            stats.extend(inner.mc_stats());
        }
        stats
    }

    fn stats(&self) -> PolicyStats {
        let s = self.mc.stats();
        let own = PolicyStats {
            rows_refreshed: s.refresh_access + s.refresh_refresh + s.singles,
            preventive_queued: s.preventive_generated,
            ..PolicyStats::default()
        };
        match &self.inner {
            Some(inner) => inner.stats().merge(own),
            None => own,
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
    use crate::policy::tests::{view, BLOCKED, IDLE};

    fn policy(n: u32) -> HiraPolicy {
        let cfg = SystemConfig::table3(8.0, hira(n));
        HiraPolicy::new(
            format!("hira{n}"),
            &PolicyEnv::for_rank(&cfg, 0, 0),
            HiraConfig::hira_n(n),
        )
    }

    fn idle_view() -> RankView<'static> {
        view(1_000_000, &[IDLE; 16], &[0; 16])
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
        let busy = view(0, &[BLOCKED; 16], &[1; 16]);
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
    fn a_para_layer_refuses_a_second_layer() {
        let cfg = SystemConfig::table3(8.0, crate::policy::baseline());
        let env = PolicyEnv::for_rank(&cfg, 0, 0);
        let mut p = HiraPolicy::para_layer(crate::policy::baseline().build(&env), 1.0, 4, &env);
        assert!(!p.attach_para(1.0, 4));
    }

    #[test]
    fn lead_timings_come_from_the_operation() {
        let p = policy(4);
        let (t1, t2) = p.hira_lead().unwrap();
        assert_eq!((t1, t2), (3.0, 3.0));
    }
}
