//! Shared measurement plumbing: the counting allocator behind
//! `peak_heap_mb`, per-operation minimum tracking, quantiles, the span
//! recorder of the traced mode, and the result line.

use hira_engine::json;
use hira_obs::{field, Level, TraceSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The system allocator plus a live-byte counter and its high-water mark.
/// With one engine worker every allocation happens in a fixed order, so
/// the peak is the same on every run of the same inputs.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to the system allocator with the caller's
// own arguments and returns its result unchanged; the counters are atomics
// that never affect what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Peak live heap so far, in MB (10^6 bytes), without the [`Reference`]
/// kernel's own arrays (allocated once at start and live throughout).
pub fn peak_heap_mb() -> f64 {
    (PEAK.load(Ordering::Relaxed) - REF_BYTES) as f64 / 1e6
}

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Per-operation minimum host time over repeated passes. The host's speed
/// drifts by up to 2x and drift only ever adds time, so the fastest of
/// several passes spaced seconds apart estimates each operation's
/// undisturbed cost.
#[derive(Debug, Clone)]
pub struct MinTimes {
    best: Vec<f64>,
}

impl MinTimes {
    /// `n` operations, none timed yet.
    pub fn new(n: usize) -> Self {
        MinTimes {
            best: vec![f64::INFINITY; n],
        }
    }

    /// Records one timing of operation `i`.
    pub fn record(&mut self, i: usize, v: f64) {
        if v < self.best[i] {
            self.best[i] = v;
        }
    }

    /// The per-operation minima.
    pub fn values(&self) -> &[f64] {
        &self.best
    }

    /// Sum of the per-operation minima.
    pub fn sum(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Span recorder of the traced mode: every public call the benchmark makes
/// into a layer runs inside a span kept in an in-memory [`TraceSink`].
/// Each span line carries its name, start and end (ns since the run's
/// epoch), parent span id and the point or request id. Inert when
/// disabled, so untraced runs pay one branch per call.
pub struct Tracer {
    sink: Option<TraceSink>,
    epoch: Instant,
    stack: Mutex<Vec<u64>>,
}

/// An open span; closes on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    span: Option<hira_obs::Span>,
    start_ns: u64,
    parent: u64,
    id: u64,
}

impl Tracer {
    /// A recorder that keeps spans in memory, or an inert one.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            sink: enabled.then(|| TraceSink::in_memory(Level::Debug)),
            epoch: Instant::now(),
            stack: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens span `name` for point or request `id`, nested under the
    /// innermost open span.
    pub fn span(&self, name: &str, id: u64) -> SpanGuard<'_> {
        let Some(sink) = &self.sink else {
            return SpanGuard {
                tracer: self,
                span: None,
                start_ns: 0,
                parent: 0,
                id,
            };
        };
        let mut stack = self.stack.lock().expect("span stack");
        let parent = stack.last().copied().unwrap_or(0);
        let span = sink.span(Level::Info, name, Vec::new());
        stack.push(span.id());
        SpanGuard {
            tracer: self,
            start_ns: self.now_ns(),
            span: Some(span),
            parent,
            id,
        }
    }

    /// Runs `f` inside span `name`.
    pub fn time<R>(&self, name: &str, id: u64, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name, id);
        f()
    }

    /// Every recorded span line (JSONL), in close order.
    pub fn lines(&self) -> Vec<String> {
        self.sink.as_ref().map(TraceSink::lines).unwrap_or_default()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            let end_ns = self.tracer.now_ns();
            span.add_field(field("start_ns", self.start_ns));
            span.add_field(field("end_ns", end_ns));
            span.add_field(field("parent", self.parent));
            span.add_field(field("id", self.id));
            self.tracer.stack.lock().expect("span stack").pop();
        }
    }
}

/// Per-name totals derived from span lines: calls, inclusive ns and self
/// ns (inclusive minus the part covered by direct children).
pub fn self_times(lines: &[String]) -> Vec<(String, u64, f64, f64)> {
    struct S {
        name: String,
        parent: u64,
        dur: f64,
    }
    let mut spans: Vec<(u64, S)> = Vec::new();
    for line in lines {
        let Ok(v) = json::parse(line) else { continue };
        let (Some(id), Some(name), Some(start), Some(end), Some(parent)) = (
            v.get("span").and_then(|x| x.as_u64()),
            v.get("event").and_then(|x| x.as_str()),
            v.get("start_ns").and_then(|x| x.as_f64()),
            v.get("end_ns").and_then(|x| x.as_f64()),
            v.get("parent").and_then(|x| x.as_u64()),
        ) else {
            continue;
        };
        spans.push((
            id,
            S {
                name: name.to_owned(),
                parent,
                dur: end - start,
            },
        ));
    }
    spans.sort_by_key(|(id, _)| *id);
    let index = |id: u64| spans.binary_search_by_key(&id, |(i, _)| *i).ok();
    let mut child_ns = vec![0.0; spans.len()];
    for (_, s) in &spans {
        if let Some(p) = index(s.parent) {
            child_ns[p] += s.dur;
        }
    }
    let mut out: Vec<(String, u64, f64, f64)> = Vec::new();
    for (k, (_, s)) in spans.iter().enumerate() {
        let self_ns = s.dur - child_ns[k];
        match out.iter_mut().find(|(n, ..)| *n == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += s.dur;
                e.3 += self_ns;
            }
            None => out.push((s.name.clone(), 1, s.dur, self_ns)),
        }
    }
    out
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds (or replaces) one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.metrics.push(Metric { name, value, unit }),
        }
    }

    /// Adds `name` as 0 unless already reported.
    pub fn fill(&mut self, name: &str, unit: &'static str) {
        if !self.metrics.iter().any(|m| m.name == name) {
            self.put(name, 0.0, unit);
        }
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut metrics = String::new();
        json::write_object(
            &mut metrics,
            self.metrics.iter().map(|m| {
                let mut v = String::new();
                json::write_f64(&mut v, m.value);
                let mut u = String::new();
                json::write_str(&mut u, m.unit);
                let mut o = String::new();
                json::write_object(&mut o, [("value", v), ("unit", u)]);
                (m.name.as_str(), o)
            }),
        );
        let mut out = String::new();
        json::write_object(
            &mut out,
            [
                ("correct", correct.to_string()),
                ("attempted", attempted.to_string()),
                ("failed", failed.to_string()),
                ("metrics", metrics),
            ],
        );
        out
    }
}

/// Outcome of the correctness checks: every failed check is kept as a
/// message and printed, and any failure makes `correct` false.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub passed: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }
}

/// The input seed named `tag` under the run's `--seed`.
pub fn input_seed(seed: u64, tag: &str) -> u64 {
    hira_engine::derive_seed(seed, &hira_engine::ScenarioKey::root().with("input", tag))
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in a `cpu_set_t` (1024 CPUs).
const CPU_WORDS: usize = 16;

/// The CPUs the calling thread may run on (empty when unknown).
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread (and the threads it spawns afterwards) to
/// `cpu`; false when the kernel refuses.
fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; CPU_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Moves the measuring thread to the next allowed CPU pass by pass. On the
/// shared host each virtual CPU slows down on its own (two loops pinned to
/// the two CPUs ran 30 and 55 ms per point at the same time), so spreading
/// each operation's timings over every CPU keeps one slow CPU from setting
/// its time.
struct CpuRotation {
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// The rotation over the CPUs this process may use at start.
    pub fn new() -> Self {
        CpuRotation {
            cpus: allowed_cpus(),
        }
    }

    /// Pins the calling thread for pass `pass`.
    pub fn enter(&self, pass: u64) {
        if !self.cpus.is_empty() {
            pin_to(self.cpus[pass as usize % self.cpus.len()]);
        }
    }

    /// Restores the original CPU set.
    pub fn release(&self) {
        let mut mask = [0u64; CPU_WORDS];
        for &c in &self.cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

/// One step of a run's measured phase.
pub enum Step {
    /// Pass `p`, which belongs to series `k`.
    Pass(u64, usize),
    /// Set-up repetition `r` (repetition 0 is the set-up itself).
    Setup(u64),
}

/// The order of a run's measured passes and of its set-up repetitions.
///
/// Passes come in whole rounds, one pass of each of `series` series in
/// turn, so a traced and an untraced series see the same host conditions.
/// Rounds go on until one more would pass `seconds` (at least two). The
/// measuring thread moves to the next allowed CPU every round, so each
/// series visits all of them.
///
/// Set-up repetitions `1..reps` are spread over the same time: repetition
/// `r` falls due between rounds once `r / reps` of `seconds` has gone by,
/// and those left after the last round follow it. Spread so, set-up is
/// timed under the same host conditions as the passes, not only under
/// those of the run's first seconds.
pub struct Schedule {
    series: u64,
    seconds: f64,
    reps: u64,
    start: Instant,
    cpus: CpuRotation,
    passes: u64,
    rep: u64,
    over: bool,
}

impl Schedule {
    /// A schedule starting now; set-up repetition 0 has already run.
    pub fn new(series: usize, seconds: f64, reps: u64) -> Self {
        Schedule {
            series: series as u64,
            seconds,
            reps,
            start: Instant::now(),
            cpus: CpuRotation::new(),
            passes: 0,
            rep: 1,
            over: false,
        }
    }
}

impl Iterator for Schedule {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let between = self.passes.is_multiple_of(self.series);
        let elapsed = secs(self.start);
        if between
            && self.rep < self.reps
            && (self.over || elapsed >= self.rep as f64 * self.seconds / self.reps as f64)
        {
            self.rep += 1;
            return Some(Step::Setup(self.rep - 1));
        }
        if self.over {
            return None;
        }
        let p = self.passes;
        if between
            && p >= 2 * self.series
            && elapsed + elapsed / p as f64 * self.series as f64 > self.seconds
        {
            self.over = true;
            self.cpus.release();
            return self.next();
        }
        self.cpus.enter(p / self.series);
        self.passes += 1;
        Some(Step::Pass(p, (p % self.series) as usize))
    }
}

/// Nominal time of one [`Reference`] sample. Calibrated host times are
/// reported at this reference speed; the value puts them near the raw
/// per-operation minima of the fastest runs seen on the 2-vCPU host the
/// benchmark was tuned on.
pub const REF_NOMINAL_NS: f64 = 2.1e6;

/// Lines of the [`Reference`] cache model (8 MB of 64 B lines).
const REF_LINES: usize = (8 << 20) / 64;

/// Heap bytes the [`Reference`] holds: a tag and a stamp per line.
const REF_BYTES: usize = REF_LINES * 2 * std::mem::size_of::<u64>();

/// Accesses per [`Reference`] sample.
const REF_ACCESSES: u32 = 60_000;

/// A reference sample is retaken once the last is older than this.
const REF_SPACING_NS: u128 = 20_000_000;

/// The host-speed reference: an 8 MB, 16-way LRU cache model fed by a
/// fixed pseudo-random line stream over 12 MB, the same kind of work as
/// the simulator's LLC model and as sensitive to a neighbour on the same
/// core. Its code never changes with the program under test, so the time
/// of an operation over the reference time sampled next to it on the same
/// CPU cancels the host's drift and keeps the program's own speed.
pub struct Reference {
    tags: Vec<u64>,
    stamp: Vec<u64>,
    now: u64,
    rng: u64,
    last: Option<Instant>,
    current: f64,
    hits: u64,
}

impl Reference {
    /// A cold reference (allocated and warmed once).
    pub fn new() -> Self {
        let mut r = Reference {
            tags: vec![u64::MAX; REF_LINES],
            stamp: vec![0; REF_LINES],
            now: 0,
            rng: 0x5EED,
            last: None,
            current: f64::NAN,
            hits: 0,
        };
        for _ in 0..4 {
            r.sample();
        }
        r
    }

    fn access(&mut self, line: u64) {
        const WAYS: usize = 16;
        self.now += 1;
        let base = (line as usize % (self.tags.len() / WAYS)) * WAYS;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for w in base..base + WAYS {
            if self.tags[w] == line {
                self.stamp[w] = self.now;
                self.hits += 1;
                return;
            }
            if self.stamp[w] < oldest {
                oldest = self.stamp[w];
                victim = w;
            }
        }
        self.tags[victim] = line;
        self.stamp[victim] = self.now;
    }

    /// Times one sample now; returns its ns.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..REF_ACCESSES {
            self.rng = self
                .rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.access((self.rng >> 24) % ((12 << 20) / 64));
        }
        std::hint::black_box(self.hits);
        self.current = t.elapsed().as_nanos() as f64;
        self.last = Some(Instant::now());
        self.current
    }

    /// The reference time next to an operation about to start: a fresh
    /// sample when the last one is older than 20 ms, the last one otherwise.
    pub fn tick(&mut self) -> f64 {
        match self.last {
            Some(t) if t.elapsed().as_nanos() < REF_SPACING_NS => self.current,
            _ => self.sample(),
        }
    }
}

/// Timings kept per operation for [`Calibration::PairedMedian`]; later
/// ones are not kept.
const MAX_SAMPLES: usize = 128;

/// How [`Timed::calibrated`] turns an operation's timings into one time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calibration {
    /// The median, over the operation's timings, of host time over the
    /// reference sample taken right before it on the same CPU. For
    /// operations of milliseconds each timed next to a sample of their own:
    /// a slow stretch slows the operation and its sample alike, so each
    /// ratio keeps the program's own speed, and the median drops the
    /// timings whose sample missed a short disturbance.
    PairedMedian,
    /// The fastest timing over the fastest reference sample next to any of
    /// them. For sub-millisecond operations, which share one sample with a
    /// hundred others: there a single ratio is mostly noise.
    MinOverMin,
}

/// Each operation's timings with the reference samples next to them,
/// reduced to one calibrated time per operation (see [`Calibration`]). The
/// per-operation minima are kept either way, for the uncalibrated figures
/// printed to stderr. The ratios of [`Calibration::PairedMedian`] live in
/// buffers sized once, so the heap they take does not depend on how many
/// passes a run makes.
#[derive(Debug, Clone)]
pub struct Timed {
    pub host: MinTimes,
    pub reference: MinTimes,
    mode: Calibration,
    ratios: Vec<Vec<f32>>,
}

impl Timed {
    /// `n` operations, none timed yet.
    pub fn new(n: usize, mode: Calibration) -> Self {
        let ratios = match mode {
            Calibration::PairedMedian => (0..n).map(|_| Vec::with_capacity(MAX_SAMPLES)).collect(),
            Calibration::MinOverMin => Vec::new(),
        };
        Timed {
            host: MinTimes::new(n),
            reference: MinTimes::new(n),
            mode,
            ratios,
        }
    }

    /// Records one timing of operation `i` and its reference sample.
    pub fn record(&mut self, i: usize, host_ns: f64, reference_ns: f64) {
        self.host.record(i, host_ns);
        self.reference.record(i, reference_ns);
        if self.mode == Calibration::PairedMedian && self.ratios[i].len() < MAX_SAMPLES {
            self.ratios[i].push((host_ns / reference_ns) as f32);
        }
    }

    /// Operation `i`'s calibrated time in ns, at the nominal reference
    /// speed (0 when it was never timed).
    pub fn calibrated(&self, i: usize) -> f64 {
        let h = self.host.values()[i];
        if !h.is_finite() {
            return 0.0;
        }
        match self.mode {
            Calibration::PairedMedian => {
                let v: Vec<f64> = self.ratios[i].iter().map(|&x| f64::from(x)).collect();
                median(&v) * REF_NOMINAL_NS
            }
            Calibration::MinOverMin => h * REF_NOMINAL_NS / self.reference.values()[i],
        }
    }

    /// Every operation's calibrated time.
    pub fn all(&self) -> Vec<f64> {
        (0..self.host.values().len())
            .map(|i| self.calibrated(i))
            .collect()
    }

    /// Sum of the calibrated times, in ns.
    pub fn sum(&self) -> f64 {
        self.all().iter().sum()
    }

    /// Sum of the raw minima, in ns.
    pub fn raw_sum(&self) -> f64 {
        self.host.values().iter().filter(|v| v.is_finite()).sum()
    }

    /// Quantile `q` of the calibrated times, in ns.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.all(), q)
    }

    /// Median slowdown of the reference samples over nominal.
    pub fn slowdown(&self) -> f64 {
        let r: Vec<f64> = self
            .reference
            .values()
            .iter()
            .filter(|v| v.is_finite())
            .map(|v| v / REF_NOMINAL_NS)
            .collect();
        median(&r)
    }
}
