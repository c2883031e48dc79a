//! Conventional all-bank `REF` (the paper's Baseline, §2.2).

use super::{PolicyEnv, PolicyHandle, PolicyStats, RankView, RefreshAction, RefreshPolicy};

/// Issues a rank-level `REF` every `tREFI`, blocking all banks for `tRFC`
/// (scaled with chip capacity by Expression 1). REF phases are staggered
/// across the ranks of a channel so their blocked windows interleave.
#[derive(Debug, Clone)]
pub struct AllBankRef {
    next_due_ns: f64,
    t_refi: f64,
    stats: PolicyStats,
}

impl AllBankRef {
    /// Builds the engine for one rank.
    pub fn new(env: &PolicyEnv) -> Self {
        let t_refi = env.timing.t_refi;
        AllBankRef {
            // Stagger REF phases across ranks.
            next_due_ns: t_refi * env.rank as f64 / env.ranks_per_channel.max(1) as f64,
            t_refi,
            stats: PolicyStats::default(),
        }
    }
}

impl RefreshPolicy for AllBankRef {
    fn name(&self) -> &str {
        "baseline"
    }

    fn next_action(&mut self, now_ns: f64, _view: &RankView<'_>) -> Option<RefreshAction> {
        (now_ns >= self.next_due_ns).then(|| {
            self.next_due_ns += self.t_refi;
            self.stats.rank_refs += 1;
            RefreshAction::RankRef
        })
    }

    fn next_wake(&self, _now_ns: f64, _view: &RankView<'_>) -> f64 {
        // Purely time-gated: nothing can happen before the next REF is due.
        self.next_due_ns
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

/// Handle for the registry key `baseline`.
pub fn baseline() -> PolicyHandle {
    PolicyHandle::new("baseline", |env| Box::new(AllBankRef::new(env)))
        .with_summary("all-bank REF every tREFI, rank blocked for tRFC")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::policy::tests::IDLE;
    use crate::policy::PolicyEnv;

    fn env() -> PolicyEnv {
        PolicyEnv::for_rank(&SystemConfig::table3(8.0, baseline()), 0, 0)
    }

    fn view() -> RankView<'static> {
        crate::policy::tests::view(0, &[IDLE; 16], &[0; 16])
    }

    #[test]
    fn one_ref_per_trefi() {
        let mut p = AllBankRef::new(&env());
        assert_eq!(p.next_action(0.0, &view()), Some(RefreshAction::RankRef));
        // Consumed: nothing more until the next interval.
        assert_eq!(p.next_action(0.0, &view()), None);
        assert_eq!(p.next_action(7000.0, &view()), None);
        assert_eq!(p.next_action(7800.0, &view()), Some(RefreshAction::RankRef));
        assert_eq!(p.stats().rank_refs, 2);
    }

    #[test]
    fn rank_stagger_offsets_the_first_ref() {
        let cfg = SystemConfig::table3(8.0, baseline()).with_geometry(1, 4);
        let p1 = AllBankRef::new(&PolicyEnv::for_rank(&cfg, 0, 1));
        assert!((p1.next_due_ns - cfg.timing.t_refi / 4.0).abs() < 1e-9);
    }
}
