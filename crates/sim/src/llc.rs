//! Shared last-level cache (Table 3: 8 MB, 8-way, 64 B lines) with MSHR
//! merging and dirty writebacks.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map over the simulator's own integer keys (line addresses, request
/// ids, packed `(bank, row)` pairs), hashed with one folded multiply
/// instead of SipHash. No result depends on its iteration order, so the
/// hasher cannot move one: the MSHRs and the reads in flight are never
/// iterated, and the one fold over the victim-exposure map uses only
/// max, sum and count ([`crate::plugin::ExposureTracker`]). The keys
/// come from the simulator's own address decoding, so colliding keys
/// from a crafted trace could cost time, never a result.
pub(crate) type IntMap<V> = HashMap<u64, V, BuildHasherDefault<IntHasher>>;

/// The set form of [`IntMap`].
pub(crate) type IntSet = HashSet<u64, BuildHasherDefault<IntHasher>>;

/// The [`IntMap`] hasher: the high and low halves of a 128-bit product,
/// folded, so every key bit reaches the bucket-index bits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
}

/// Identifies a waiting instruction: `(core, window entry id)`.
pub type Waiter = (usize, u64);

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Data present; completes after the hit latency.
    Hit,
    /// Fetch issued (or merged onto an outstanding fetch).
    Miss,
    /// The miss path is saturated; retry next cycle.
    Busy,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// LRU stamp.
    used: u64,
    valid: bool,
}

#[derive(Debug)]
struct Mshr {
    waiters: Vec<Waiter>,
    mark_dirty: bool,
}

/// The shared LLC.
#[derive(Debug)]
pub struct Llc {
    /// Every set's lines in one allocation: set `s` is
    /// `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    ways: usize,
    set_mask: u64,
    stamp: u64,
    mshrs: IntMap<Mshr>,
    mshr_capacity: usize,
    /// Emptied waiter lists of filled MSHRs, reused by later misses.
    spare: Vec<Vec<Waiter>>,
    /// Line addresses whose fetch must be sent to the memory system.
    pub fetch_queue: Vec<u64>,
    /// Line addresses to write back (dirty evictions).
    pub writeback_queue: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Llc {
    /// LLC hit latency in CPU cycles.
    pub const HIT_LATENCY: u64 = 22;

    /// Builds a cache of `bytes` capacity and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics unless the set count works out to a power of two.
    pub fn new(bytes: usize, ways: usize) -> Self {
        let sets = bytes / 64 / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let empty = Line {
            tag: 0,
            dirty: false,
            used: 0,
            valid: false,
        };
        Llc {
            lines: vec![empty; sets * ways],
            ways,
            set_mask: sets as u64 - 1,
            stamp: 0,
            mshrs: IntMap::default(),
            mshr_capacity: 64,
            spare: Vec::new(),
            fetch_queue: Vec::new(),
            writeback_queue: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The positions in `lines` of the set `line` maps to.
    fn set_of(&self, line: u64) -> std::ops::Range<usize> {
        let start = (line & self.set_mask) as usize * self.ways;
        start..start + self.ways
    }

    /// Accesses `line` (a byte address divided by 64). On a miss the fetch
    /// is queued and `waiter` is notified through [`Llc::fill`].
    pub fn access(&mut self, line: u64, is_store: bool, waiter: Option<Waiter>) -> Access {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(line);
        if let Some(l) = self.lines[set]
            .iter_mut()
            .find(|l| l.valid && l.tag == line)
        {
            l.used = stamp;
            l.dirty |= is_store;
            self.hits += 1;
            return Access::Hit;
        }
        // Merge onto an outstanding fetch if one exists.
        if let Some(m) = self.mshrs.get_mut(&line) {
            if let Some(w) = waiter {
                m.waiters.push(w);
            }
            m.mark_dirty |= is_store;
            self.misses += 1;
            return Access::Miss;
        }
        if self.mshrs.len() >= self.mshr_capacity {
            return Access::Busy;
        }
        self.misses += 1;
        let mut m = Mshr {
            waiters: self.spare.pop().unwrap_or_default(),
            mark_dirty: is_store,
        };
        if let Some(w) = waiter {
            m.waiters.push(w);
        }
        self.mshrs.insert(line, m);
        self.fetch_queue.push(line);
        Access::Miss
    }

    /// Completes an outstanding fetch: installs the line (possibly evicting
    /// a dirty victim onto `writeback_queue`) and appends its waiters to
    /// `waiters`, a buffer the caller reuses. The emptied list is kept for
    /// a later miss, so a fill allocates nothing.
    pub fn fill(&mut self, line: u64, waiters: &mut Vec<Waiter>) {
        self.stamp += 1;
        let stamp = self.stamp;
        let Some(mut m) = self.mshrs.remove(&line) else {
            return;
        };
        let set = self.set_of(line);
        let victim = self.lines[set]
            .iter_mut()
            .min_by_key(|l| if l.valid { l.used } else { 0 })
            .expect("non-zero associativity");
        if victim.valid && victim.dirty {
            self.writeback_queue.push(victim.tag);
        }
        *victim = Line {
            tag: line,
            dirty: m.mark_dirty,
            used: stamp,
            valid: true,
        };
        waiters.append(&mut m.waiters);
        self.spare.push(m.waiters);
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Llc {
        Llc::new(64 * 64 * 2, 2) // 64 sets × 2 ways
    }

    /// [`Llc::fill`] into a fresh buffer.
    fn fill(c: &mut Llc, line: u64) -> Vec<Waiter> {
        let mut waiters = Vec::new();
        c.fill(line, &mut waiters);
        waiters
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.access(5, false, Some((0, 1))), Access::Miss);
        assert_eq!(c.fetch_queue, vec![5]);
        let waiters = fill(&mut c, 5);
        assert_eq!(waiters, vec![(0, 1)]);
        assert_eq!(c.access(5, false, None), Access::Hit);
    }

    #[test]
    fn merged_misses_share_one_fetch() {
        let mut c = small();
        assert_eq!(c.access(9, false, Some((0, 1))), Access::Miss);
        assert_eq!(c.access(9, false, Some((1, 2))), Access::Miss);
        assert_eq!(c.fetch_queue.len(), 1);
        let waiters = fill(&mut c, 9);
        assert_eq!(waiters.len(), 2);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = small();
        // Three lines mapping to set 1 in a 2-way cache.
        let lines = [1u64, 1 + 64, 1 + 128];
        assert_eq!(c.access(lines[0], true, None), Access::Miss);
        fill(&mut c, lines[0]);
        assert_eq!(c.access(lines[1], false, None), Access::Miss);
        fill(&mut c, lines[1]);
        assert_eq!(c.access(lines[2], false, None), Access::Miss);
        fill(&mut c, lines[2]); // evicts lines[0], which is dirty
        assert_eq!(c.writeback_queue, vec![lines[0]]);
    }

    #[test]
    fn store_miss_marks_line_dirty_on_fill() {
        let mut c = small();
        c.access(7, true, None);
        fill(&mut c, 7);
        // Evict it cleanly? Fill two more into the same set; the dirty line
        // must produce a writeback.
        c.access(7 + 64, false, None);
        fill(&mut c, 7 + 64);
        c.access(7 + 128, false, None);
        fill(&mut c, 7 + 128);
        assert!(c.writeback_queue.contains(&7));
    }

    #[test]
    fn fills_recycle_their_waiter_lists() {
        let mut c = small();
        c.access(3, false, Some((0, 1)));
        c.access(3, false, Some((1, 2)));
        let mut waiters = vec![(7, 7)];
        c.fill(3, &mut waiters);
        assert_eq!(waiters, vec![(7, 7), (0, 1), (1, 2)], "fill appends");
        assert_eq!(c.spare.len(), 1);
        assert!(c.spare[0].is_empty() && c.spare[0].capacity() >= 2);
        // The next miss takes the emptied list instead of a new one.
        c.access(4, false, Some((2, 3)));
        assert!(c.spare.is_empty());
        assert_eq!(fill(&mut c, 4), vec![(2, 3)]);
    }

    #[test]
    fn mshr_saturation_reports_busy() {
        let mut c = small();
        c.mshr_capacity = 2;
        assert_eq!(c.access(1, false, None), Access::Miss);
        assert_eq!(c.access(2, false, None), Access::Miss);
        assert_eq!(c.access(3, false, None), Access::Busy);
    }

    #[test]
    fn lru_keeps_recently_used_lines() {
        let mut c = small();
        let (a, b, x) = (11u64, 11 + 64, 11 + 128);
        c.access(a, false, None);
        fill(&mut c, a);
        c.access(b, false, None);
        fill(&mut c, b);
        // Touch `a` so `b` is LRU.
        assert_eq!(c.access(a, false, None), Access::Hit);
        c.access(x, false, None);
        fill(&mut c, x);
        assert_eq!(
            c.access(a, false, None),
            Access::Hit,
            "recently used line evicted"
        );
        assert_eq!(c.access(b, false, None), Access::Miss, "LRU line survived");
    }
}
