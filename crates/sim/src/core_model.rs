//! Trace-driven out-of-order core model (Table 3: 4-wide issue, 128-entry
//! instruction window).
//!
//! A standard simple-OoO abstraction (as in Ramulator's `SimpleO3` core):
//! the window holds up to 128 in-flight instructions; up to 4 retire from
//! the head and up to 4 dispatch into the tail each cycle. Non-memory
//! instructions complete immediately; loads complete when the cache/memory
//! hierarchy answers; stores retire through a write buffer without waiting.
//!
//! Every dispatched instruction takes the next id, so the window is the id
//! range `[head, next_id)`. Only loads can be unfinished, and their ids are
//! kept in dispatch order with a completion flag each, which makes the
//! window's shape — how many done slots sit ahead of the oldest in-flight
//! load — an O(1) question.

use hira_workload::{Op, Workload};
use std::collections::VecDeque;

/// Issue/retire width.
pub const WIDTH: usize = 4;
/// Instruction-window capacity.
pub const WINDOW: usize = 128;

/// What the core asks of the memory hierarchy this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreRequest {
    /// Load of a line; the entry id must be completed later.
    Load { line: u64, entry: u64 },
    /// Store to a line (fire and forget).
    Store { line: u64 },
}

/// One simulated core.
#[derive(Debug)]
pub struct Core {
    /// Core index.
    pub id: usize,
    wl: Box<dyn Workload>,
    /// Id of the oldest in-flight instruction: the window is the id range
    /// `[head, next_id)`.
    head: u64,
    next_id: u64,
    /// The in-flight loads, oldest first — the only window slots that are
    /// not done at dispatch — as `(id, completed)`.
    loads: VecDeque<(u64, bool)>,
    /// Pending compute burst from the trace.
    compute_left: u32,
    /// A memory op that could not issue (back-pressure) and must retry.
    stalled_op: Option<Op>,
    /// Retired instruction count.
    pub retired: u64,
    /// Cycle at which `retired` first reached the measurement target.
    pub finished_at: Option<u64>,
    /// Scheduled completion times for LLC hits `(cycle, entry)`.
    hit_returns: VecDeque<(u64, u64)>,
    /// Event-kernel wake cache: the absolute cycle [`Core::next_wake`]
    /// last reported. Until then this core's ticks are covered by
    /// [`Core::skip`]; external completions reset it to 0 ("re-examine
    /// me"). The dense kernel never reads it.
    pub(crate) wake_cache: u64,
    /// The first cycle this core has not advanced over yet: its state is
    /// the state at the start of `synced` ([`Core::catch_up`]).
    synced: u64,
    /// [`Core::tick`] and [`Core::skip`] calls so far (run telemetry).
    pub(crate) updates: u64,
}

impl Core {
    /// Builds a core driven by the workload frontend `wl`.
    pub fn new(id: usize, wl: Box<dyn Workload>) -> Self {
        Core {
            id,
            wl,
            head: 0,
            next_id: 0,
            loads: VecDeque::new(),
            compute_left: 0,
            stalled_op: None,
            retired: 0,
            finished_at: None,
            hit_returns: VecDeque::new(),
            wake_cache: 0,
            synced: 0,
            updates: 0,
        }
    }

    /// The per-core workload instance name (for a multiprogrammed mix,
    /// the member benchmark this core runs).
    pub fn workload_name(&self) -> &str {
        self.wl.name()
    }

    /// Forwards the region-of-interest start to the workload frontend
    /// (called by the system when this core finishes warmup).
    pub fn begin_roi(&mut self) {
        self.wl.on_roi_begin();
    }

    /// Forwards the region-of-interest end to the workload frontend
    /// (called by the system when this core retires its budget).
    pub fn end_roi(&mut self) {
        self.wl.on_roi_end();
    }

    /// Marks a load entry complete (memory response).
    pub fn complete(&mut self, entry: u64) {
        self.mark_completed(entry);
        self.wake_cache = 0;
    }

    /// Sets an in-flight load's completion flag (ids are sorted, so this
    /// is a binary search).
    fn mark_completed(&mut self, entry: u64) {
        let found = self.loads.binary_search_by_key(&entry, |&(id, _)| id);
        debug_assert!(found.is_ok(), "completion for load {entry} not in flight");
        if let Ok(i) = found {
            self.loads[i].1 = true;
        }
    }

    /// Schedules an LLC-hit completion.
    pub fn complete_at(&mut self, cycle: u64, entry: u64) {
        self.hit_returns.push_back((cycle, entry));
        self.wake_cache = 0;
    }

    /// Advances one CPU cycle. `issue` receives at most one memory request
    /// per cycle and returns `false` when the hierarchy cannot accept it.
    pub fn tick<F>(&mut self, cycle: u64, target_insts: u64, mut issue: F)
    where
        F: FnMut(&mut Self, CoreRequest) -> bool,
    {
        debug_assert_eq!(
            cycle, self.synced,
            "tick without advancing over the cycles before"
        );
        self.synced = cycle + 1;
        self.updates += 1;
        // Deliver due hit returns.
        while let Some(&(t, entry)) = self.hit_returns.front() {
            if t > cycle {
                break;
            }
            self.hit_returns.pop_front();
            self.mark_completed(entry);
        }

        // Retire up to WIDTH from the head; a load retires once completed.
        let mut retired_now = 0;
        while retired_now < WIDTH && self.head < self.next_id {
            if let Some(&(load, completed)) = self.loads.front() {
                if load == self.head {
                    if !completed {
                        break;
                    }
                    self.loads.pop_front();
                }
            }
            self.head += 1;
            self.retired += 1;
            retired_now += 1;
        }
        if self.finished_at.is_none() && self.retired >= target_insts {
            self.finished_at = Some(cycle);
        }

        // Dispatch up to WIDTH into the tail.
        let mut dispatched = 0;
        while dispatched < WIDTH && self.window_occupancy() < WINDOW {
            if self.compute_left > 0 {
                self.compute_left -= 1;
                self.next_id += 1;
                dispatched += 1;
                continue;
            }
            let op = match self.stalled_op.take() {
                Some(op) => op,
                None => self.wl.next_access(),
            };
            match op {
                Op::Compute(n) => {
                    self.compute_left = n;
                }
                Op::Load(addr) => {
                    // In flight before `issue` runs, so a completion it
                    // delivers at once finds the load.
                    let entry = self.next_id;
                    self.next_id += 1;
                    self.loads.push_back((entry, false));
                    if issue(
                        self,
                        CoreRequest::Load {
                            line: addr / 64,
                            entry,
                        },
                    ) {
                        dispatched += 1;
                    } else {
                        // Back-pressure: retry the same op next cycle.
                        self.loads.pop_back();
                        self.next_id -= 1;
                        self.stalled_op = Some(op);
                        break;
                    }
                }
                Op::Store(addr) => {
                    if issue(self, CoreRequest::Store { line: addr / 64 }) {
                        self.next_id += 1;
                        dispatched += 1;
                    } else {
                        self.stalled_op = Some(op);
                        break;
                    }
                }
            }
        }
    }

    /// Brings this core up to the start of `cycle` with one
    /// [`Core::skip`] over the cycles since it last advanced — the event
    /// kernel's lazy catch-up: a core whose wake lies ahead is left alone
    /// until its wake arrives, a fill reaches it, an epoch sample reads
    /// it or the run ends. Every caught-up cycle must lie before the wake
    /// [`Core::next_wake`] reported. A no-op when already there.
    pub(crate) fn catch_up(&mut self, cycle: u64) {
        debug_assert!(
            cycle >= self.synced,
            "catch-up to {cycle} behind {}",
            self.synced
        );
        if cycle > self.synced {
            self.skip(cycle - self.synced);
        }
    }

    /// Number of in-flight window entries.
    pub fn window_occupancy(&self) -> usize {
        (self.next_id - self.head) as usize
    }

    /// The *mechanical* stretch this core is in: the ticks ahead whose
    /// every effect is a fixed function of the state, so the event kernel
    /// can skip them in O(1). A stretch has two phases:
    ///
    /// * `rotate` ticks, each retiring exactly [`WIDTH`] done slots from the
    ///   head and dispatching exactly [`WIDTH`] fresh compute slots. The
    ///   phase ends before the tick that would exhaust the compute burst
    ///   (and so call into the workload) or reach the oldest in-flight
    ///   load (tracked in O(1): the front of `loads`).
    /// * then, if the rotation lands exactly on that load and it is still
    ///   waiting, `fill` ticks that retire nothing and dispatch compute
    ///   slots into the free room. When the burst covers the room the
    ///   window fills and the core sleeps, so the phase never ends on its
    ///   own (`u64::MAX`; a fully blocked window is its zero-room case).
    ///   Otherwise it ends before the tick that would exhaust the burst.
    ///
    /// A back-pressure retry touches LLC state every cycle, so a stalled
    /// op dispatches in no stretch (it only ever waits with the burst
    /// spent).
    fn stretch(&self) -> Option<Stretch> {
        let w = WIDTH as u64;
        let compute = self.compute_left as u64;
        let len = self.window_occupancy() as u64;
        let bursts = if self.stalled_op.is_none() {
            compute / w
        } else {
            0
        };
        let Some(&(load, completed)) = self.loads.front() else {
            // Nothing in flight: every slot is done, and a rotation keeps
            // the window exactly as long as it is.
            return (len >= w && bursts > 0).then_some(Stretch {
                rotate: bursts,
                fill: 0,
            });
        };
        let ahead = load - self.head;
        let rotate = bursts.min(ahead / w);
        let fill = if completed || ahead != rotate * w {
            0
        } else {
            let left = compute - rotate * w;
            if left >= WINDOW as u64 - len {
                u64::MAX
            } else {
                bursts - rotate
            }
        };
        (rotate > 0 || fill > 0).then_some(Stretch { rotate, fill })
    }

    /// The first cycle at or after `now` whose [`Core::tick`] would do
    /// anything the event kernel cannot reproduce with [`Core::skip`] —
    /// the core's contribution to the kernel's next wake. A mechanical
    /// stretch (a compute burst retiring and dispatching at full width past
    /// in-flight loads, or filling the window behind a waiting load) is
    /// skipped up to the first tick that delivers a pending LLC-hit return
    /// or crosses the warmup or target retirement count (observed by the
    /// run loop). Returns `u64::MAX` when only an external event (a fill
    /// delivered through [`Core::complete`]) can make this core progress;
    /// waking it earlier is always safe (the tick is then a no-op, exactly
    /// as in the dense kernel). The wake is an absolute cycle, so it stays
    /// valid while the event kernel leaves the core behind: whenever the
    /// kernel catches the core up with one [`Core::skip`], the cycles
    /// skipped all lie before it.
    pub fn next_wake(&self, now: u64, target: u64, warmup: u64) -> u64 {
        let Some(stretch) = self.stretch() else {
            // Calling into the workload, retiring a completed load,
            // retrying a stalled op or draining a sub-width window: tick
            // densely.
            return now;
        };
        let mut span = stretch.rotate.saturating_add(stretch.fill);
        if let Some(&(t, _)) = self.hit_returns.front() {
            span = span.min(t.saturating_sub(now));
        }
        for count in [target, warmup] {
            // Only the rotation retires: the crossing is its `ticks`-th
            // tick, if the rotation gets that far.
            let ticks = count.saturating_sub(self.retired).div_ceil(WIDTH as u64);
            if ticks > 0 && ticks <= stretch.rotate {
                span = span.min(ticks - 1);
            }
        }
        now.saturating_add(span)
    }

    /// Advances this core over `span` cycles the kernel has proven
    /// uninteresting (every skipped cycle is strictly before the wake
    /// [`Core::next_wake`] reported, and no external completion arrived),
    /// in O(1): the rotation retires and dispatches [`WIDTH`] slots per
    /// cycle, so in-flight loads keep their ids and move closer to the
    /// head; the fill then dispatches [`WIDTH`] compute slots per cycle
    /// until the window is full. Any other core is asleep and unchanged.
    ///
    /// Skips compose: inside one stretch, skipping `a` then `b` cycles
    /// leaves the state one skip of `a + b` leaves (the rotation's
    /// remaining length shrinks by exactly the ticks taken, and the fill
    /// phase's length depends only on what the rotation left). That is
    /// what lets the event kernel advance a core lazily.
    pub fn skip(&mut self, span: u64) {
        self.synced += span;
        self.updates += 1;
        let Some(stretch) = self.stretch().filter(|_| span > 0) else {
            return;
        };
        debug_assert!(
            span <= stretch.rotate.saturating_add(stretch.fill),
            "skipped {span} ticks past {stretch:?}"
        );
        let w = WIDTH as u64;
        let rotated = w * span.min(stretch.rotate);
        let room = (WINDOW - self.window_occupancy()) as u64;
        let filled = w.saturating_mul(span - span.min(stretch.rotate)).min(room);
        self.retired += rotated;
        self.head += rotated;
        self.compute_left -= (rotated + filled) as u32;
        self.next_id += rotated + filled;
    }
}

/// A mechanical stretch ([`Core::stretch`]): `rotate` ticks that each
/// retire and dispatch [`WIDTH`] slots, then `fill` ticks (`u64::MAX`:
/// until a completion) that dispatch into the free room while the head
/// waits on its load.
#[derive(Debug, Clone, Copy)]
struct Stretch {
    rotate: u64,
    fill: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc::Llc;
    use hira_workload::{spec, Family, WorkloadEnv, WorkloadProfile};

    fn core(name: &str) -> Core {
        let env = WorkloadEnv {
            core: 0,
            cores: 1,
            seed: 1,
        };
        Core::new(0, spec(name).build(&env))
    }

    #[test]
    fn compute_bound_core_retires_at_full_width() {
        let mut c = core("povray");
        for cycle in 0..10_000 {
            c.tick(cycle, u64::MAX, |_c, req| match req {
                // Instant memory: complete immediately.
                CoreRequest::Load { entry, .. } => {
                    _c.complete(entry);
                    true
                }
                CoreRequest::Store { .. } => true,
            });
        }
        let ipc = c.retired as f64 / 10_000.0;
        assert!(ipc > 3.5, "compute-bound IPC {ipc}");
    }

    #[test]
    fn unanswered_loads_stall_the_window() {
        let mut c = core("mcf");
        for cycle in 0..5_000 {
            c.tick(cycle, u64::MAX, |_c, req| {
                matches!(req, CoreRequest::Store { .. } | CoreRequest::Load { .. })
            });
        }
        // Loads never complete: the window fills and retirement stops.
        assert!(
            c.window_occupancy() == WINDOW,
            "window {}",
            c.window_occupancy()
        );
        let stuck = c.retired;
        for cycle in 5_000..6_000 {
            c.tick(cycle, u64::MAX, |_, _| true);
        }
        assert_eq!(c.retired, stuck, "retired without memory answers");
    }

    #[test]
    fn completions_unblock_retirement() {
        let mut c = core("mcf");
        let mut pending = Vec::new();
        for cycle in 0..2_000 {
            c.tick(cycle, u64::MAX, |_c, req| {
                if let CoreRequest::Load { entry, .. } = req {
                    pending.push(entry);
                }
                true
            });
            // Answer loads with a 100-cycle delay pattern.
            if cycle % 100 == 0 {
                for e in pending.drain(..) {
                    c.complete(e);
                }
            }
        }
        assert!(c.retired > 1_000, "retired {}", c.retired);
    }

    #[test]
    fn back_pressure_retries_the_same_op() {
        let mut c = core("lbm");
        let mut rejected = 0;
        let mut accepted = 0;
        for cycle in 0..2_000 {
            c.tick(cycle, u64::MAX, |_c, req| {
                if cycle < 500 {
                    rejected += 1;
                    false
                } else {
                    if let CoreRequest::Load { entry, .. } = req {
                        _c.complete(entry);
                    }
                    accepted += 1;
                    true
                }
            });
        }
        assert!(rejected > 0 && accepted > 0);
        assert!(c.retired > 0);
    }

    #[test]
    fn finish_line_is_recorded_once() {
        let mut c = core("povray");
        for cycle in 0..5_000 {
            c.tick(cycle, 1_000, |_c, req| {
                if let CoreRequest::Load { entry, .. } = req {
                    _c.complete(entry);
                }
                true
            });
        }
        let t = c.finished_at.expect("must finish");
        assert!(t < 2_000, "finished at {t}");
    }

    /// A frontend that plays a fixed op script, for hand-built windows.
    #[derive(Debug)]
    struct Script(Vec<Op>, usize);

    impl Workload for Script {
        fn name(&self) -> &str {
            "script"
        }

        fn next_access(&mut self) -> Op {
            let op = self.0[self.1 % self.0.len()];
            self.1 += 1;
            op
        }

        fn profile(&self) -> WorkloadProfile {
            WorkloadProfile {
                family: Family::Generator,
                summary: String::new(),
                mem_per_kinst: 0.0,
                store_frac: 0.0,
                footprint_lines: 2,
            }
        }
    }

    /// Drives a core densely into the shape the event kernel batches past:
    /// a first load (line 0) misses and fills at cycle 40 while 400
    /// compute slots fill the window behind it; the window then rotates
    /// until a second load (line 1) dispatches deep in it, 125 slots from
    /// the head — an LLC hit when `second_hits`, else a miss that stays in
    /// flight. Returns the core and the first cycle after that dispatch.
    fn deep_load(second_hits: bool) -> (Core, u64) {
        deep_load_at(None, second_hits)
    }

    /// [`deep_load`]'s script, stopped after `stop` ticks instead of after
    /// the second load's dispatch when `stop` is given.
    fn deep_load_at(stop: Option<u64>, second_hits: bool) -> (Core, u64) {
        let script = vec![
            Op::Load(0),
            Op::Compute(400),
            Op::Load(64),
            Op::Compute(1_000),
        ];
        let mut c = Core::new(0, Box::new(Script(script, 0)));
        for cycle in 0..1_000 {
            if stop == Some(cycle) {
                return (c, cycle);
            }
            let mut second = false;
            c.tick(cycle, u64::MAX, |c, req| {
                if let CoreRequest::Load { line: 1, entry } = req {
                    second = true;
                    if second_hits {
                        c.complete_at(cycle + Llc::HIT_LATENCY, entry);
                    }
                }
                true
            });
            if cycle == 40 {
                c.complete(0);
            }
            if second {
                return (c, cycle + 1);
            }
        }
        panic!("the second load never dispatched");
    }

    fn shape(c: &Core) -> (u64, u64, u64, u32, Vec<(u64, bool)>) {
        let loads = c.loads.iter().copied().collect();
        (c.head, c.next_id, c.retired, c.compute_left, loads)
    }

    #[test]
    fn skip_rotates_the_window_past_in_flight_loads() {
        let (mut event, now) = deep_load(false);
        let (mut dense, _) = deep_load(false);
        let (load, _) = *event.loads.front().expect("second load in flight");
        let ahead = load - event.head;
        assert!(ahead >= 8 * WIDTH as u64, "load only {ahead} slots deep");
        // The stretch runs up to the load: one tick per WIDTH done slots.
        let wake = event.next_wake(now, u64::MAX, 0);
        assert_eq!(wake - now, ahead / WIDTH as u64);
        event.skip(wake - now);
        for cycle in now..wake {
            dense.tick(cycle, u64::MAX, |_, _| true);
        }
        assert_eq!(shape(&event), shape(&dense), "skip diverged from ticking");
        // The window rotated for real: the load kept its id and moved to
        // within one issue width of the head.
        assert_eq!(event.loads.front(), Some(&(load, false)));
        assert!(load - event.head < WIDTH as u64);
        assert_eq!(event.window_occupancy(), WINDOW);
    }

    #[test]
    fn a_skip_split_into_pieces_matches_one_skip() {
        // The event kernel catches a core up lazily: the cycles it sat out
        // arrive as one skip or as several, wherever the kernel happened
        // to touch it. Inside one stretch every split leaves the same
        // window: rotating up to the waiting second load, rotating up to a
        // pending hit return, and (before the first load fills at cycle
        // 40) filling the window behind the head's load until it is full
        // and then sleeping.
        let fixtures: [fn() -> (Core, u64); 3] = [
            || deep_load(false),
            || deep_load(true),
            || deep_load_at(Some(8), false),
        ];
        for (case, fixture) in fixtures.iter().enumerate() {
            let (mut whole, now) = fixture();
            let span = (whole.next_wake(now, u64::MAX, 0) - now).min(40);
            assert!(span >= 8, "case {case}: stretch of only {span} ticks");
            whole.skip(span);
            let mut rng = hira_dram::rng::Stream::from_words(&[0x5_1D, case as u64]);
            for split in 0..64 {
                let (mut pieces, _) = fixture();
                let mut left = span;
                while left > 0 {
                    let piece = 1 + rng.next_below(left.min(8));
                    pieces.skip(piece);
                    left -= piece;
                }
                assert_eq!(shape(&pieces), shape(&whole), "case {case}, split {split}");
            }
            let (mut caught_up, _) = fixture();
            caught_up.catch_up(now + span);
            assert_eq!(shape(&caught_up), shape(&whole), "case {case}");
        }
    }

    #[test]
    fn a_pending_hit_return_ends_a_stretch() {
        let (mut event, now) = deep_load(true);
        let (mut dense, _) = deep_load(true);
        let (hit, entry) = event.hit_returns[0];
        let ahead = event.loads.front().expect("hit load in flight").0 - event.head;
        assert!(
            now + ahead / WIDTH as u64 > hit,
            "the stretch must outlast the hit return for this test to bite"
        );
        // The span stops at the tick that delivers the hit return...
        assert_eq!(event.next_wake(now, u64::MAX, 0), hit);
        event.skip(hit - now);
        for cycle in now..hit {
            dense.tick(cycle, u64::MAX, |_, _| true);
        }
        assert_eq!(shape(&event), shape(&dense));
        // ...which then runs for real and files the completion.
        event.tick(hit, u64::MAX, |_, _| true);
        assert!(event.hit_returns.is_empty());
        assert!(event.loads.contains(&(entry, true)));
    }
}
