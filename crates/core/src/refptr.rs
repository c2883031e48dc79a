//! The RefPtr Table (§5.1.1, §5.1.3): per-subarray next-row pointers.
//!
//! To exploit HiRA's subarray-level parallelism, the Periodic Refresh
//! Controller keeps, for every subarray of every bank, a pointer to the next
//! row to refresh, and advances all subarrays in a *balanced* manner (the
//! Case-1 selection picks the compatible subarray with the least progress in
//! the current refresh window).

use hira_dram::addr::{BankId, RowId, SubarrayId};

/// Per-bank slice of the RefPtr Table.
#[derive(Debug, Clone)]
struct BankPtrs {
    /// Next row offset within each subarray.
    next: Vec<u32>,
    /// Rows refreshed per subarray in the current window.
    done: Vec<u32>,
}

/// The RefPtr Table for one rank.
#[derive(Debug, Clone)]
pub struct RefPtrTable {
    banks: Vec<BankPtrs>,
    subarrays: u32,
    rows_per_subarray: u32,
    rows_per_bank: u32,
}

impl RefPtrTable {
    /// Builds the table for `banks` banks of `rows_per_bank` rows split into
    /// subarrays of `rows_per_subarray`.
    pub fn new(banks: u16, rows_per_bank: u32, rows_per_subarray: u32) -> Self {
        assert!(rows_per_subarray > 0 && rows_per_bank.is_multiple_of(rows_per_subarray));
        let subarrays = rows_per_bank / rows_per_subarray;
        RefPtrTable {
            banks: (0..banks)
                .map(|_| BankPtrs {
                    next: vec![0; subarrays as usize],
                    done: vec![0; subarrays as usize],
                })
                .collect(),
            subarrays,
            rows_per_subarray,
            rows_per_bank,
        }
    }

    /// Number of subarrays per bank.
    pub fn subarrays(&self) -> u32 {
        self.subarrays
    }

    /// The row the pointer of `(bank, subarray)` currently designates.
    pub fn peek(&self, bank: BankId, sa: SubarrayId) -> RowId {
        let b = &self.banks[bank.index()];
        RowId(u32::from(sa.0) * self.rows_per_subarray + b.next[sa.index()])
    }

    /// Picks the least-advanced subarray of `bank` whose *candidate row*
    /// satisfies `compatible`, returning `(subarray, row)` without advancing.
    ///
    /// Iterating subarrays in least-progress-first order implements §5.1.3's
    /// balanced advancement. Ties go to the lower subarray: the walk visits
    /// one progress level at a time, in subarray order, which is the order
    /// a stable sort by progress gives, without sorting. Balanced
    /// advancement keeps the levels few.
    pub fn select<F>(&self, bank: BankId, mut compatible: F) -> Option<(SubarrayId, RowId)>
    where
        F: FnMut(RowId) -> bool,
    {
        let done = &self.banks[bank.index()].done;
        let mut level = done.iter().copied().min()?;
        loop {
            let mut next_level = None::<u32>;
            for (sa, &d) in done.iter().enumerate() {
                if d == level {
                    let sa = SubarrayId(sa as u16);
                    let row = self.peek(bank, sa);
                    if compatible(row) {
                        return Some((sa, row));
                    }
                } else if d > level && next_level.is_none_or(|n| d < n) {
                    next_level = Some(d);
                }
            }
            level = next_level?;
        }
    }

    /// The globally least-advanced subarray's candidate row (deadline path:
    /// no compatibility constraint).
    pub fn select_any(&self, bank: BankId) -> (SubarrayId, RowId) {
        self.select(bank, |_| true)
            .expect("at least one subarray exists")
    }

    /// Advances the pointer of `(bank, subarray)` after its row is refreshed.
    pub fn advance(&mut self, bank: BankId, sa: SubarrayId) {
        let rows = self.rows_per_subarray;
        let b = &mut self.banks[bank.index()];
        let n = &mut b.next[sa.index()];
        *n = (*n + 1) % rows;
        b.done[sa.index()] += 1;
    }

    /// Total rows refreshed in `bank` during the current window.
    pub fn window_progress(&self, bank: BankId) -> u32 {
        self.banks[bank.index()].done.iter().sum()
    }

    /// Spread between the most- and least-advanced subarrays of `bank`
    /// (refresh-balance diagnostic).
    pub fn progress_imbalance(&self, bank: BankId) -> u32 {
        let done = &self.banks[bank.index()].done;
        done.iter().max().unwrap() - done.iter().min().unwrap()
    }

    /// Closes a refresh window for `bank`: progress counters carry over any
    /// overshoot so multi-window accounting stays exact. Returns the number
    /// of rows refreshed in the closed window.
    pub fn roll_window(&mut self, bank: BankId) -> u32 {
        let b = &mut self.banks[bank.index()];
        let total: u32 = b.done.iter().sum();
        for d in &mut b.done {
            *d = d.saturating_sub(self.rows_per_subarray);
        }
        total
    }

    /// Rows per bank covered by this table.
    pub fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RefPtrTable {
        RefPtrTable::new(2, 4096, 512) // 8 subarrays per bank
    }

    #[test]
    fn peek_and_advance_walk_the_subarray() {
        let mut t = table();
        let bank = BankId(0);
        assert_eq!(t.peek(bank, SubarrayId(3)), RowId(3 * 512));
        t.advance(bank, SubarrayId(3));
        assert_eq!(t.peek(bank, SubarrayId(3)), RowId(3 * 512 + 1));
        // Wrap-around after a full subarray.
        for _ in 1..512 {
            t.advance(bank, SubarrayId(3));
        }
        assert_eq!(t.peek(bank, SubarrayId(3)), RowId(3 * 512));
    }

    #[test]
    fn select_prefers_least_advanced_subarray() {
        let mut t = table();
        let bank = BankId(0);
        t.advance(bank, SubarrayId(0));
        t.advance(bank, SubarrayId(0));
        t.advance(bank, SubarrayId(1));
        let (sa, _) = t.select(bank, |_| true).unwrap();
        assert!(sa.0 >= 2, "selected already-advanced subarray {sa}");
    }

    #[test]
    fn select_respects_compatibility_filter() {
        let t = table();
        let bank = BankId(0);
        // Only rows in subarray 5 are "compatible".
        let got = t.select(bank, |row| row.0 / 512 == 5).unwrap();
        assert_eq!(got.0, SubarrayId(5));
        assert!(t.select(bank, |_| false).is_none());
    }

    #[test]
    fn select_visits_subarrays_in_stable_progress_order() {
        // Against the stable sort by progress it replaces: seeded progress
        // vectors with spreads of 0-3 rows, under random compatibility
        // predicates (each row compatible with probability 0, 1/8, 1/2 or
        // 1), give the same `(subarray, row)`.
        let mut rng = hira_dram::rng::Stream::from_words(&[0x5E1EC7]);
        for trial in 0..2_000 {
            let mut t = RefPtrTable::new(1, 128 * 16, 16); // 128 subarrays
            let bank = BankId(0);
            let spread = trial % 4;
            let base = rng.next_below(4);
            for sa in 0..t.subarrays() {
                for _ in 0..base + rng.next_below(spread + 1) {
                    t.advance(bank, SubarrayId(sa as u16));
                }
            }
            let odds = [0, 1, 4, 8][rng.next_below(4) as usize];
            let salt = rng.next_u64();
            let compatible =
                |row: RowId| hira_dram::rng::hash_words(&[salt, u64::from(row.0)]) % 8 < odds;
            let done = &t.banks[0].done;
            let mut order: Vec<u32> = (0..t.subarrays()).collect();
            order.sort_by_key(|&sa| done[sa as usize]);
            let expected = order
                .into_iter()
                .map(|sa| (SubarrayId(sa as u16), t.peek(bank, SubarrayId(sa as u16))))
                .find(|&(_, row)| compatible(row));
            assert_eq!(t.select(bank, compatible), expected, "trial {trial}");
        }
    }

    #[test]
    fn balanced_advancement_keeps_imbalance_at_one() {
        let mut t = table();
        let bank = BankId(1);
        for _ in 0..1000 {
            let (sa, _) = t.select(bank, |_| true).unwrap();
            t.advance(bank, sa);
        }
        assert!(t.progress_imbalance(bank) <= 1);
        assert_eq!(t.window_progress(bank), 1000);
    }

    #[test]
    fn roll_window_carries_overshoot() {
        let mut t = RefPtrTable::new(1, 1024, 512); // 2 subarrays
        let bank = BankId(0);
        for _ in 0..512 {
            t.advance(bank, SubarrayId(0));
        }
        for _ in 0..513 {
            t.advance(bank, SubarrayId(1));
        }
        assert_eq!(t.roll_window(bank), 1025);
        // Subarray 1 overshot by one; the carry keeps it ahead.
        assert_eq!(t.window_progress(bank), 1);
    }

    #[test]
    fn banks_are_independent() {
        let mut t = table();
        t.advance(BankId(0), SubarrayId(0));
        assert_eq!(t.window_progress(BankId(0)), 1);
        assert_eq!(t.window_progress(BankId(1)), 0);
    }
}
