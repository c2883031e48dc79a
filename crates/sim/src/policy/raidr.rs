//! RAIDR-style retention-binned per-row refresh (Liu et al., ISCA 2012;
//! "Retrospective: RAIDR", Mutlu 2023), driven by `hira-dram`'s retention
//! model.

use super::{PolicyEnv, PolicyHandle, PolicyStats, RankView, RefreshAction, RefreshPolicy};
use hira_dram::addr::{BankId, RowId};
use hira_dram::retention::RetentionModel;

/// Temperature the retention bins are computed at. RAIDR's profiling runs
/// at a fixed guard-banded temperature; the simulator's nominal 45 °C
/// corner matches the retention model's reference point.
pub const RAIDR_REFERENCE_TEMP_C: f64 = 45.0;

/// Rows examined per `next_action` call after a stall, bounding the
/// catch-up scan so one controller tick never does unbounded work.
const MAX_SCAN_PER_CALL: u32 = 64;

/// Parked refreshes (due rows whose bank is backlogged) held at once;
/// beyond this, refreshes are forced through despite the backlog.
const MAX_PENDING: usize = 64;

/// Retention-aware refresh binning: every row is profiled once (through the
/// deterministic [`RetentionModel`]) into a refresh-interval bin — 1×, 2×
/// or 4× `tREFW` — and a row pointer sweeps all rows once per window,
/// refreshing only the rows whose bin is due. Strong rows (the long tail of
/// the retention distribution) are touched every fourth window, cutting
/// refresh activity to a fraction of the per-row baseline.
#[derive(Debug, Clone)]
pub struct RaidrBinned {
    model: RetentionModel,
    seed: u64,
    banks: u16,
    rows_per_bank: u32,
    /// Emission slot width: one row-slot per `tREFW / total_rows`.
    interval_ns: f64,
    next_slot_ns: f64,
    /// Global row cursor, bank-interleaved (`bank = pos % banks`).
    pos: u64,
    /// Completed sweeps (the RAIDR window counter bins are tested against).
    window: u64,
    /// Due refreshes whose bank was backlogged: retried, oldest first, as
    /// their banks drain.
    pending: std::collections::VecDeque<(BankId, RowId)>,
    t_refw: f64,
    stats: PolicyStats,
}

impl RaidrBinned {
    /// Builds the engine for one rank.
    pub fn new(env: &PolicyEnv) -> Self {
        let total = u64::from(env.rows_per_bank) * u64::from(env.banks);
        RaidrBinned {
            model: RetentionModel::default(),
            seed: env.seed,
            banks: env.banks,
            rows_per_bank: env.rows_per_bank,
            interval_ns: env.timing.t_refw / total as f64,
            next_slot_ns: 0.0,
            pos: 0,
            window: 0,
            pending: std::collections::VecDeque::new(),
            t_refw: env.timing.t_refw,
            stats: PolicyStats::default(),
        }
    }

    /// The refresh-interval multiple of `row` (1, 2 or 4 windows).
    fn bin_of(&self, bank: BankId, row: RowId) -> u64 {
        let retention_ms = self
            .model
            .retention_ms(self.seed, bank, row, RAIDR_REFERENCE_TEMP_C);
        let window_ms = self.t_refw / 1e6;
        if retention_ms >= 4.0 * window_ms {
            4
        } else if retention_ms >= 2.0 * window_ms {
            2
        } else {
            1
        }
    }

    /// Mean refresh probability per row-slot, estimated over a sample of
    /// rows (the bins are deterministic, so this is reproducible).
    #[cfg(test)]
    fn mean_refresh_rate(&self) -> f64 {
        let sample = 256u32.min(self.rows_per_bank);
        let due: f64 = (0..sample)
            .map(|r| 1.0 / self.bin_of(BankId(0), RowId(r)) as f64)
            .sum();
        due / f64::from(sample)
    }
}

impl RefreshPolicy for RaidrBinned {
    fn name(&self) -> &str {
        "raidr"
    }

    fn next_action(&mut self, now_ns: f64, view: &RankView<'_>) -> Option<RefreshAction> {
        // Previously-parked refreshes first: serve the oldest one whose
        // bank has drained, so a hot bank never head-of-line blocks the
        // other banks' parked work. When the parking lot is full, force
        // the oldest through regardless of backlog — deferral is bounded,
        // a retention deadline is not negotiable.
        let ready = self
            .pending
            .iter()
            .position(|&(bank, _)| !view.backlogged(bank))
            .or((self.pending.len() >= MAX_PENDING).then_some(0));
        if let Some(idx) = ready {
            let (bank, row) = self.pending.remove(idx).expect("index from position");
            self.stats.rows_refreshed += 1;
            return Some(RefreshAction::Single { bank, row });
        }
        let total = u64::from(self.rows_per_bank) * u64::from(self.banks);
        let mut scanned = 0;
        while now_ns >= self.next_slot_ns && scanned < MAX_SCAN_PER_CALL {
            scanned += 1;
            let bank = BankId((self.pos % u64::from(self.banks)) as u16);
            let row = RowId((self.pos / u64::from(self.banks)) as u32);
            self.pos += 1;
            if self.pos == total {
                self.pos = 0;
                self.window += 1;
            }
            self.next_slot_ns += self.interval_ns;
            if !self.window.is_multiple_of(self.bin_of(bank, row)) {
                self.stats.rows_skipped += 1;
                continue;
            }
            if view.backlogged(bank) && self.pending.len() < MAX_PENDING {
                // Park the refresh (the emission schedule already advanced,
                // so later rows are not starved behind a hot bank) and keep
                // scanning for work on drained banks. Once the parking lot
                // fills, both new and parked refreshes are forced through
                // despite the backlog (see the drain above).
                self.pending.push_back((bank, row));
                continue;
            }
            self.stats.rows_refreshed += 1;
            return Some(RefreshAction::Single { bank, row });
        }
        None
    }

    fn next_wake(&self, now_ns: f64, view: &RankView<'_>) -> f64 {
        // A full parking lot forces its oldest entry out at once; otherwise
        // the emission schedule's next row-slot or the first parked bank
        // to drain.
        if self.pending.len() >= MAX_PENDING {
            return now_ns;
        }
        self.pending
            .iter()
            .map(|&(bank, _)| view.ns(view.unbacklogged_at(bank)))
            .fold(self.next_slot_ns, f64::min)
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

/// Handle for the registry key `raidr`.
pub fn raidr() -> PolicyHandle {
    PolicyHandle::new("raidr", |env| Box::new(RaidrBinned::new(env)))
        .with_summary("RAIDR-style retention-binned per-row refresh")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::policy::tests::{BLOCKED, IDLE};

    fn env() -> PolicyEnv {
        PolicyEnv::for_rank(&SystemConfig::table3(8.0, raidr()), 0, 0)
    }

    fn view() -> RankView<'static> {
        crate::policy::tests::view(0, &[IDLE; 16], &[0; 16])
    }

    #[test]
    fn binning_skips_strong_rows() {
        let e = env();
        let mut p = RaidrBinned::new(&e);
        // Drain the first 4000 row-slots of window 0 (every row due).
        let horizon = p.interval_ns * 4000.0;
        let mut issued = 0u64;
        let mut now = 0.0;
        while now <= horizon {
            while p.next_action(now, &view()).is_some() {
                issued += 1;
            }
            now += p.interval_ns * 16.0;
        }
        // Window 0 refreshes everything (all bins due at window % bin == 0).
        assert!(issued >= 3_900, "window 0 issued {issued}");
        assert_eq!(p.stats().rows_skipped, 0);
        // In window 1 only bin-1 rows are due: the default retention model's
        // 180 ms floor puts every row in bin 2 or 4, so all rows skip.
        p.window = 1;
        p.pos = 0;
        let before = p.stats().rows_refreshed;
        p.next_slot_ns = 0.0;
        let mut now = 0.0;
        while now <= horizon {
            while p.next_action(now, &view()).is_some() {}
            now += p.interval_ns * 16.0;
        }
        assert_eq!(p.stats().rows_refreshed, before, "bin-skips must not act");
        assert!(p.stats().rows_skipped >= 3_900);
    }

    #[test]
    fn bins_are_deterministic_and_long_tailed() {
        let p = RaidrBinned::new(&env());
        let rate = p.mean_refresh_rate();
        // Mostly bin-4 with some bin-2: mean rate well below the 1.0 of
        // unconditional per-row refresh, at or above the bin-4 floor.
        assert!((0.25..0.75).contains(&rate), "mean rate {rate}");
        assert_eq!(
            p.bin_of(BankId(3), RowId(77)),
            p.bin_of(BankId(3), RowId(77))
        );
    }

    #[test]
    fn backlogged_bank_defers_but_never_drops() {
        let e = env();
        let mut p = RaidrBinned::new(&e);
        let v = crate::policy::tests::view(0, &[BLOCKED; 16], &[0; 16]);
        assert_eq!(p.next_action(1e6, &v), None);
        let held = *p.pending.front().expect("due refresh parked, not lost");
        // Once the banks drain, the oldest held refresh goes out first.
        let act = p.next_action(1e6, &view()).expect("pending served");
        assert_eq!(
            act,
            RefreshAction::Single {
                bank: held.0,
                row: held.1
            }
        );
    }

    #[test]
    fn one_hot_bank_does_not_starve_the_others() {
        let e = env();
        let mut p = RaidrBinned::new(&e);
        // Bank 0 permanently backlogged; the rest idle.
        let mut banks = [IDLE; 16];
        banks[0] = BLOCKED;
        let v = crate::policy::tests::view(0, &banks, &[0; 16]);
        // Two full bank rotations of due slots: bank-0 rows park, all other
        // banks' rows still flow.
        let mut served_banks = std::collections::HashSet::new();
        let now = p.interval_ns * 33.0;
        while let Some(RefreshAction::Single { bank, .. }) = p.next_action(now, &v) {
            served_banks.insert(bank.0);
        }
        assert!(!served_banks.contains(&0), "backlogged bank was issued to");
        assert!(
            served_banks.len() >= 15,
            "only banks {served_banks:?} served while bank 0 is hot"
        );
        assert!(!p.pending.is_empty(), "bank-0 rows parked, not dropped");
    }
}
