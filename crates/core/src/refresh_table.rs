//! The Refresh Table (§5, Fig. 7 component 3; sized in §6).
//!
//! Stores every generated-but-not-yet-performed refresh request with its
//! deadline, target bank and type. Sized for the worst case at
//! `tRefSlack = 4·tRC`: 4 periodic requests per rank plus 4 preventive
//! requests per bank (68 entries for a 16-bank rank).

use hira_dram::addr::{BankId, RowId};

/// The type of a queued refresh request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshKind {
    /// Periodic (data-retention) refresh; the row is chosen at issue time
    /// from the RefPtr Table.
    Periodic,
    /// RowHammer-preventive refresh of a specific victim row (the row lives
    /// in the PR-FIFO; the entry carries it for convenience).
    Preventive,
}

/// One Refresh Table entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshEntry {
    /// Absolute deadline (ns) by which the refresh must be performed.
    pub deadline: f64,
    /// Target bank.
    pub bank: BankId,
    /// Periodic or preventive.
    pub kind: RefreshKind,
    /// Victim row for preventive entries.
    pub victim: Option<RowId>,
}

/// A fixed-capacity refresh request table.
#[derive(Debug, Clone)]
pub struct RefreshTable {
    entries: Vec<RefreshEntry>,
    capacity: usize,
}

impl RefreshTable {
    /// The paper's sizing for a 16-bank rank at `tRefSlack = 4·tRC`.
    pub const PAPER_CAPACITY: usize = 68;

    /// An empty table with the given capacity. Storage grows with the
    /// entries actually queued, so a huge `tRefSlack` (and capacity) costs
    /// nothing up front; the capacity only bounds [`RefreshTable::is_full`].
    pub fn new(capacity: usize) -> Self {
        RefreshTable {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when the table cannot accept another request.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Inserts a request. Returns `false` (dropping nothing) when full — the
    /// caller must then force-serve a request first.
    #[must_use]
    pub fn insert(&mut self, entry: RefreshEntry) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// The queued entry with the earliest deadline, if any.
    pub fn earliest(&self) -> Option<&RefreshEntry> {
        self.entries
            .iter()
            .min_by(|a, b| a.deadline.total_cmp(&b.deadline))
    }

    /// Removes and returns the entry equal to `entry` (after it is served).
    pub fn remove(&mut self, entry: &RefreshEntry) -> Option<RefreshEntry> {
        let idx = self.entries.iter().position(|e| e == entry)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Removes and returns the earliest-deadline entry whose deadline falls
    /// at or before `horizon` (the Case-2 deadline watch).
    pub fn pop_due(&mut self, horizon: f64) -> Option<RefreshEntry> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.deadline <= horizon)
            .min_by(|(_, a), (_, b)| a.deadline.total_cmp(&b.deadline))
            .map(|(i, _)| i)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Removes and returns the earliest entry for `bank`, regardless of
    /// deadline (used when pairing a second refresh into a HiRA op).
    pub fn pop_for_bank(&mut self, bank: BankId) -> Option<RefreshEntry> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.bank == bank)
            .min_by(|(_, a), (_, b)| a.deadline.total_cmp(&b.deadline))
            .map(|(i, _)| i)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Iterates entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &RefreshEntry> {
        self.entries.iter()
    }
}

impl Default for RefreshTable {
    fn default() -> Self {
        Self::new(Self::PAPER_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(deadline: f64, bank: u16, kind: RefreshKind) -> RefreshEntry {
        RefreshEntry {
            deadline,
            bank: BankId(bank),
            kind,
            victim: None,
        }
    }

    #[test]
    fn insert_and_capacity() {
        let mut t = RefreshTable::new(2);
        assert!(t.insert(entry(10.0, 0, RefreshKind::Periodic)));
        assert!(t.insert(entry(20.0, 1, RefreshKind::Preventive)));
        assert!(t.is_full());
        assert!(!t.insert(entry(30.0, 2, RefreshKind::Periodic)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn earliest_respects_deadlines() {
        let mut t = RefreshTable::default();
        let _ = t.insert(entry(30.0, 0, RefreshKind::Periodic));
        let _ = t.insert(entry(10.0, 1, RefreshKind::Preventive));
        let _ = t.insert(entry(20.0, 0, RefreshKind::Periodic));
        assert_eq!(t.earliest().unwrap().deadline, 10.0);
    }

    #[test]
    fn pop_due_returns_only_expiring_entries() {
        let mut t = RefreshTable::default();
        let _ = t.insert(entry(100.0, 0, RefreshKind::Periodic));
        let _ = t.insert(entry(50.0, 1, RefreshKind::Periodic));
        assert!(t.pop_due(40.0).is_none());
        let e = t.pop_due(60.0).unwrap();
        assert_eq!(e.deadline, 50.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_specific_entry() {
        let mut t = RefreshTable::default();
        let e = entry(10.0, 3, RefreshKind::Preventive);
        let _ = t.insert(e);
        assert_eq!(t.remove(&e), Some(e));
        assert!(t.remove(&e).is_none());
    }

    #[test]
    fn pop_for_bank_picks_earliest_in_bank() {
        let mut t = RefreshTable::default();
        let _ = t.insert(entry(30.0, 2, RefreshKind::Periodic));
        let _ = t.insert(entry(10.0, 2, RefreshKind::Periodic));
        let _ = t.insert(entry(5.0, 1, RefreshKind::Periodic));
        assert_eq!(t.pop_for_bank(BankId(2)).unwrap().deadline, 10.0);
    }

    #[test]
    fn paper_capacity_is_68() {
        assert_eq!(RefreshTable::default().capacity, 68);
    }
}
