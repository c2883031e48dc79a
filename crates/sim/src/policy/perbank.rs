//! Per-bank staggered refresh (`REFpb`), after Chang et al.'s
//! refresh-access-parallelism work and the LPDDR/DDR5 per-bank REF command.

use super::{PolicyEnv, PolicyHandle, PolicyStats, RankView, RefreshAction, RefreshPolicy};
use hira_dram::addr::BankId;

/// The default `tRFCpb / tRFC` fraction a device quotes when it has no
/// better number: a per-bank refresh moves 1/`banks` of the row burst but
/// keeps the fixed command/charge-pump overhead, so it costs about half an
/// all-bank `tRFC` rather than 1/16 of one (LPDDR4 8 Gb: 140 ns vs 280 ns;
/// DDR5 scales similarly). The live value reaches the policy through
/// [`PolicyEnv::t_rfc_pb_ns`], so REFpb-native devices can quote their own.
pub const REFPB_TRFC_FRACTION: f64 = 0.5;

/// Round-robin per-bank `REF` at the all-bank rate: one `REFpb` every
/// `tREFI / banks`, each blocking a single bank for `tRFCpb` while the
/// other 15 keep serving demand. This trades the Baseline's rank-wide
/// `tRFC` stall for a higher command rate and per-bank interference — the
/// refresh-access-parallelism arrangement HiRA's §8 analysis compares
/// against conceptually.
#[derive(Debug, Clone)]
pub struct PerBankRef {
    next_due_ns: f64,
    interval_ns: f64,
    cursor: u16,
    banks: u16,
    t_rfc_pb: f64,
    stats: PolicyStats,
}

impl PerBankRef {
    /// Builds the engine for one rank.
    pub fn new(env: &PolicyEnv) -> Self {
        let interval_ns = env.timing.t_refi / f64::from(env.banks.max(1));
        PerBankRef {
            // Stagger across ranks like the all-bank engine.
            next_due_ns: interval_ns * env.rank as f64 / env.ranks_per_channel.max(1) as f64,
            interval_ns,
            cursor: 0,
            banks: env.banks,
            t_rfc_pb: env.t_rfc_pb_ns,
            stats: PolicyStats::default(),
        }
    }
}

impl RefreshPolicy for PerBankRef {
    fn name(&self) -> &str {
        "refpb"
    }

    fn next_action(&mut self, now_ns: f64, _view: &RankView<'_>) -> Option<RefreshAction> {
        (now_ns >= self.next_due_ns).then(|| {
            let bank = BankId(self.cursor);
            self.cursor = (self.cursor + 1) % self.banks;
            self.next_due_ns += self.interval_ns;
            self.stats.bank_refs += 1;
            RefreshAction::BankRef {
                bank,
                t_rfc_pb_ns: self.t_rfc_pb,
            }
        })
    }

    fn next_wake(&self, _now_ns: f64, _view: &RankView<'_>) -> f64 {
        // Purely time-gated: the rotation fires on its own schedule.
        self.next_due_ns
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

/// Handle for the registry key `refpb`.
pub fn refpb() -> PolicyHandle {
    PolicyHandle::new("refpb", |env| Box::new(PerBankRef::new(env)))
        .with_summary("staggered per-bank REFpb, one bank blocked tRFCpb = tRFC/2")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::policy::tests::IDLE;

    fn env() -> PolicyEnv {
        PolicyEnv::for_rank(&SystemConfig::table3(8.0, refpb()), 0, 0)
    }

    fn view() -> RankView<'static> {
        crate::policy::tests::view(0, &[IDLE; 16], &[0; 16])
    }

    #[test]
    fn rotates_through_every_bank_at_the_all_bank_rate() {
        let e = env();
        let mut p = PerBankRef::new(&e);
        let mut seen = Vec::new();
        // One full tREFI of polling covers all 16 banks exactly once.
        let mut now = 0.0;
        while now < e.timing.t_refi {
            if let Some(RefreshAction::BankRef { bank, .. }) = p.next_action(now, &view()) {
                seen.push(bank.0);
            }
            now += e.timing.t_refi / 64.0;
        }
        assert_eq!(seen.len(), 16, "banks hit: {seen:?}");
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_eq!(p.stats().bank_refs, 16);
    }

    #[test]
    fn native_refpb_devices_quote_their_own_trfcpb() {
        // On LPDDR4 the device quotes tRFCpb = 140 ns at 8 Gb and the
        // rotation spans the part's 8 banks, not DDR4's 16.
        let cfg = crate::builder::SystemBuilder::new()
            .device(crate::device::lpddr4_3200())
            .policy(refpb())
            .build()
            .unwrap();
        let e = PolicyEnv::for_rank(&cfg, 0, 0);
        assert!((e.t_rfc_pb_ns - 140.0).abs() < 1e-9);
        let p = PerBankRef::new(&e);
        assert_eq!(p.banks, 8);
        assert!((p.t_rfc_pb - 140.0).abs() < 1e-9);
    }
}
