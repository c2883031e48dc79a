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

#[derive(Debug)]
struct Mshr {
    waiters: Vec<Waiter>,
    mark_dirty: bool,
}

/// Bits of a line address: a `u64` byte address divided by 64.
const LINE_BITS: u32 = 58;

/// The shared LLC.
///
/// Each way is one packed `u64`, and every set's ways sit side by side in
/// one zeroed allocation whose sets start at a 64 B boundary, so the
/// Table 3 cache (16,384 sets of 8 ways) keeps 1 MiB of way state and
/// each set fills one host cache line. A
/// zero word is an invalid way. A valid way's word holds, from the top
/// down, the line's tag (the line address above the set index), a valid
/// bit, a dirty bit and the way's recency rank among its set's valid ways
/// (0 = most recently used). The ranks order the valid ways exactly as
/// per-way access stamps would: a hit or a fill makes its way rank 0 and
/// ages each more recent valid way by one, and a fill takes the first
/// invalid way, else the way ranked `ways − 1`.
#[derive(Debug)]
pub struct Llc {
    /// One packed word per way: set `s` is
    /// `words[base + s * ways..base + (s + 1) * ways]`.
    words: Vec<u64>,
    /// The words before the first set, which start it at a 64 B boundary:
    /// the allocator aligns the buffer to 16 B only, and it never moves.
    base: usize,
    ways: usize,
    set_bits: u32,
    set_mask: u64,
    /// The rank field, the word's low bits.
    rank_mask: u64,
    /// The dirty bit, just above the rank field; the valid bit is the
    /// next one up.
    dirty_bit: u64,
    /// The tag's lowest bit, just above the valid bit.
    tag_shift: u32,
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

    /// The set count of a cache of `bytes` capacity and `ways`
    /// associativity with 64 B lines, or `None` when [`Llc::new`] cannot
    /// build it: no whole set fits, the set count is not a power of two,
    /// or the ways outnumber 16 × the sets. The last rule is what fits a
    /// way's word: the tag (58 line-address bits less the set-index
    /// bits), the valid and dirty bits and a rank of `⌈log2 ways⌉` bits.
    pub(crate) fn sets(bytes: usize, ways: usize) -> Option<usize> {
        let sets = (bytes / 64).checked_div(ways)?;
        if !sets.is_power_of_two() {
            return None;
        }
        let tag_bits = LINE_BITS - sets.trailing_zeros();
        (tag_bits + 2 + rank_bits(ways) <= u64::BITS).then_some(sets)
    }

    /// Builds a cache of `bytes` capacity and `ways` associativity: one
    /// zeroed allocation of `bytes / 64` way words, plus 56 B of slack to
    /// start the first set at a 64 B boundary, every way invalid.
    ///
    /// # Panics
    ///
    /// Panics unless the set count is a power of two and the ways number
    /// at most 16 × the sets; `SystemBuilder::build` refuses other
    /// geometries with `BuildError::LlcGeometry`.
    pub fn new(bytes: usize, ways: usize) -> Self {
        let sets = Llc::sets(bytes, ways)
            .unwrap_or_else(|| panic!("no {ways}-way LLC of {bytes} B can be built"));
        let rank_bits = rank_bits(ways);
        let words = vec![0; sets * ways + 7];
        let base = (64 - words.as_ptr() as usize % 64) % 64 / 8;
        Llc {
            words,
            base,
            ways,
            set_bits: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            rank_mask: (1 << rank_bits) - 1,
            dirty_bit: 1 << rank_bits,
            tag_shift: rank_bits + 2,
            mshrs: IntMap::default(),
            mshr_capacity: 64,
            spare: Vec::new(),
            fetch_queue: Vec::new(),
            writeback_queue: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The positions in `words` of the set `line` maps to.
    fn set_of(&self, line: u64) -> std::ops::Range<usize> {
        let start = self.base + (line & self.set_mask) as usize * self.ways;
        start..start + self.ways
    }

    /// The word of `line` as a valid, clean, most recently used way.
    fn word_of(&self, line: u64) -> u64 {
        debug_assert!(
            line >> LINE_BITS == 0,
            "line {line:#x} is not a u64 byte address / 64"
        );
        ((line >> self.set_bits) << self.tag_shift) | (self.dirty_bit << 1)
    }

    /// Accesses `line` (a byte address divided by 64). On a miss the fetch
    /// is queued and `waiter` is notified through [`Llc::fill`].
    pub fn access(&mut self, line: u64, is_store: bool, waiter: Option<Waiter>) -> Access {
        let key = self.word_of(line);
        let (rank_mask, dirty_bit) = (self.rank_mask, self.dirty_bit);
        let set = self.set_of(line);
        let words = &mut self.words[set];
        if let Some(way) = words
            .iter()
            .position(|&w| w & !(rank_mask | dirty_bit) == key)
        {
            let rank = words[way] & rank_mask;
            if rank != 0 {
                age(words, rank, rank_mask);
            }
            words[way] = (words[way] & !rank_mask) | if is_store { dirty_bit } else { 0 };
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

    /// Completes an outstanding fetch: installs the line in the set's
    /// first invalid way, else in its least recently used one (queueing
    /// a dirty victim on `writeback_queue`), and appends its waiters to
    /// `waiters`, a buffer the caller reuses. The emptied list is kept for
    /// a later miss, so a fill allocates nothing.
    pub fn fill(&mut self, line: u64, waiters: &mut Vec<Waiter>) {
        let Some(mut m) = self.mshrs.remove(&line) else {
            return;
        };
        let mut word = self.word_of(line);
        if m.mark_dirty {
            word |= self.dirty_bit;
        }
        let rank_mask = self.rank_mask;
        let set = self.set_of(line);
        let words = &mut self.words[set];
        // An invalid victim ages every valid way: fewer than `ways` are
        // valid, so no rank leaves its field.
        let (way, below) = match words.iter().position(|&w| w == 0) {
            Some(way) => (way, self.ways as u64),
            None => {
                let lru = self.ways as u64 - 1;
                let way = words
                    .iter()
                    .position(|&w| w & rank_mask == lru)
                    .expect("a full set ranks one way least recent");
                (way, lru)
            }
        };
        let victim = words[way];
        if victim & self.dirty_bit != 0 {
            let tag = victim >> self.tag_shift;
            self.writeback_queue
                .push((tag << self.set_bits) | (line & self.set_mask));
        }
        age(words, below, rank_mask);
        words[way] = word;
        waiters.append(&mut m.waiters);
        self.spare.push(m.waiters);
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// The bits of a rank among `ways` ways: `⌈log2 ways⌉`.
fn rank_bits(ways: usize) -> u32 {
    usize::BITS - (ways - 1).leading_zeros()
}

/// Ages by one rank every valid way of `words` ranked below `below`,
/// without a branch per way.
fn age(words: &mut [u64], below: u64, rank_mask: u64) {
    for w in words {
        *w += u64::from((*w != 0) & (*w & rank_mask < below));
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

    /// The stamp-LRU cache the packed one replaced, kept as its reference:
    /// one `Line` per way with the stamp of its last use, and a fill's
    /// victim is the first invalid way, else the least recently stamped.
    struct StampLlc {
        lines: Vec<Line>,
        ways: usize,
        set_mask: u64,
        stamp: u64,
        mshrs: IntMap<Mshr>,
        mshr_capacity: usize,
        fetch_queue: Vec<u64>,
        writeback_queue: Vec<u64>,
        hits: u64,
        misses: u64,
    }

    #[derive(Debug, Clone, Copy)]
    struct Line {
        tag: u64,
        dirty: bool,
        used: u64,
        valid: bool,
    }

    impl StampLlc {
        fn new(bytes: usize, ways: usize) -> Self {
            let sets = bytes / 64 / ways;
            let empty = Line {
                tag: 0,
                dirty: false,
                used: 0,
                valid: false,
            };
            StampLlc {
                lines: vec![empty; sets * ways],
                ways,
                set_mask: sets as u64 - 1,
                stamp: 0,
                mshrs: IntMap::default(),
                mshr_capacity: 64,
                fetch_queue: Vec::new(),
                writeback_queue: Vec::new(),
                hits: 0,
                misses: 0,
            }
        }

        fn set_of(&self, line: u64) -> std::ops::Range<usize> {
            let start = (line & self.set_mask) as usize * self.ways;
            start..start + self.ways
        }

        fn access(&mut self, line: u64, is_store: bool, waiter: Option<Waiter>) -> Access {
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
            if let Some(m) = self.mshrs.get_mut(&line) {
                m.waiters.extend(waiter);
                m.mark_dirty |= is_store;
                self.misses += 1;
                return Access::Miss;
            }
            if self.mshrs.len() >= self.mshr_capacity {
                return Access::Busy;
            }
            self.misses += 1;
            let m = Mshr {
                waiters: waiter.into_iter().collect(),
                mark_dirty: is_store,
            };
            self.mshrs.insert(line, m);
            self.fetch_queue.push(line);
            Access::Miss
        }

        fn fill(&mut self, line: u64, waiters: &mut Vec<Waiter>) {
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
        }
    }

    /// Drives the packed cache and [`StampLlc`] with one seeded stream of
    /// `ops` operations over `sets × ways` and asserts they agree after
    /// each: loads with and without waiters, stores, fills of outstanding
    /// lines in random order and of lines with no fetch, a small MSHR
    /// pool, and queues drained at random. Each set sees `2 × ways + 1`
    /// lines, among them tag 0 and the widest tag.
    fn agrees_with_the_stamp_reference(sets: usize, ways: usize, ops: usize) {
        use hira_dram::rng::Stream;
        let bytes = 64 * sets * ways;
        let at = format!("{sets} sets x {ways} ways");
        let (mut c, mut r) = (Llc::new(bytes, ways), StampLlc::new(bytes, ways));
        let mut rng = Stream::from_words(&[0x004C_4C43, sets as u64, ways as u64]);
        // Fewer MSHRs than distinct lines, so the pool saturates.
        let lines = sets * (2 * ways + 1);
        let mshrs = 1 + rng.next_below(lines.min(16) as u64 - 1) as usize;
        (c.mshr_capacity, r.mshr_capacity) = (mshrs, mshrs);
        let set_bits = sets.trailing_zeros();
        let tag_bits = LINE_BITS - set_bits;
        let tags: Vec<u64> = (0..2 * ways as u64 + 1)
            .map(|i| match i {
                0 => 0,
                1 => (1 << tag_bits) - 1,
                _ => rng.next_u64() >> (64 - tag_bits),
            })
            .collect();
        let draw_line = |rng: &mut Stream| {
            let tag = tags[rng.next_below(tags.len() as u64) as usize];
            (tag << set_bits) | rng.next_below(sets as u64)
        };
        let mut outstanding: Vec<u64> = Vec::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let (mut busy, mut writebacks) = (0, 0);
        for op in 0..ops as u64 {
            let roll = rng.next_below(16);
            if roll < 4 && !outstanding.is_empty() {
                let i = rng.next_below(outstanding.len() as u64) as usize;
                let line = outstanding.swap_remove(i);
                c.fill(line, &mut got);
                r.fill(line, &mut want);
                assert_eq!(got, want, "{at}, op {op}: waiters of a fill of {line:#x}");
            } else if roll == 4 {
                let line = draw_line(&mut rng);
                c.fill(line, &mut got);
                r.fill(line, &mut want);
                assert_eq!(got, want, "{at}, op {op}: waiters of a fill of {line:#x}");
            } else {
                let line = draw_line(&mut rng);
                let is_store = roll >= 13;
                let waiter = (roll < 12).then_some((roll as usize, op));
                let a = c.access(line, is_store, waiter);
                assert_eq!(
                    a,
                    r.access(line, is_store, waiter),
                    "{at}, op {op}: access to {line:#x} (store {is_store})"
                );
                busy += u64::from(a == Access::Busy);
            }
            assert_eq!(c.fetch_queue, r.fetch_queue, "{at}, op {op}: fetch queue");
            assert_eq!(
                c.writeback_queue, r.writeback_queue,
                "{at}, op {op}: writebacks"
            );
            assert_eq!(c.stats(), (r.hits, r.misses), "{at}, op {op}: stats");
            got.clear();
            want.clear();
            if rng.next_bool(0.5) {
                outstanding.append(&mut c.fetch_queue);
                r.fetch_queue.clear();
            }
            if rng.next_bool(0.5) {
                writebacks += c.writeback_queue.len();
                c.writeback_queue.clear();
                r.writeback_queue.clear();
            }
        }
        // Every path ran.
        let (hits, misses) = c.stats();
        assert!(
            hits > 0 && misses > 0 && busy > 0 && writebacks > 0,
            "{at}: {hits} hits, {misses} misses, {busy} busy, {writebacks} writebacks"
        );
    }

    #[test]
    fn packed_ways_match_the_stamp_lru_reference() {
        // The largest way count the builder accepts at one set (a fully
        // associative cache): a 58-bit tag leaves a 4-bit rank.
        let largest = (1..)
            .take_while(|&w| {
                crate::builder::SystemBuilder::new()
                    .llc(64 * w, w)
                    .build()
                    .is_ok()
            })
            .last()
            .expect("a one-way set builds");
        assert_eq!(largest, 16);
        for (sets, ways) in [
            (1, 1),
            (1, 3),
            (64, 2),
            (512, 8),
            (32, 16),
            (1, largest),
            (4, 64), // at the limit too: a 56-bit tag and a 6-bit rank
        ] {
            agrees_with_the_stamp_reference(sets, ways, 100_000);
        }
    }

    #[test]
    fn table3_cache_keeps_one_mib_of_way_state() {
        let c = Llc::new(8 << 20, 8);
        let sets = &c.words[c.base..][..16_384 * 8];
        assert_eq!(std::mem::size_of_val(sets), 1 << 20);
        assert_eq!(c.words.len(), sets.len() + 7, "seven words of slack");
        // Each 8-way set is one 64 B host cache line.
        assert_eq!(sets.as_ptr() as usize % 64, 0);
        assert_eq!(c.ways * std::mem::size_of::<u64>(), 64);
    }

    #[test]
    fn way_count_is_bounded_by_sixteen_per_set() {
        for set_bits in 0..12 {
            let sets = 1usize << set_bits;
            let limit = 16 * sets;
            assert_eq!(Llc::sets(64 * sets * limit, limit), Some(sets));
            assert_eq!(Llc::sets(64 * sets * (limit + 1), limit + 1), None);
        }
        assert_eq!(Llc::sets(3 << 20, 8), None, "6,144 sets");
        assert_eq!(Llc::sets(64 * 7, 8), None, "no whole set");
        assert_eq!(Llc::sets(64, 0), None, "no ways");
    }
}
