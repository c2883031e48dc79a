//! The cache-aware executor path: plan a sweep against the store, run only
//! the misses, replay the hits.
//!
//! The contract is **bit-identity with the uncached path**: for any thread
//! count and any hit/miss interleaving, the [`RunSet`] a cached run
//! assembles is identical — canonical *and* bench serialization — to the
//! run set the same sweep would produce cold through this module. That
//! works because:
//!
//! * tasks are deterministic functions of their [`Scenario`] (key, seed,
//!   params), the executor's own contract, so a replayed result *is* the
//!   result the task would recompute;
//! * per-point wall times and telemetry are persisted at computation time
//!   and replayed verbatim on hits, and the run set's total wall is
//!   defined as the **sum of per-point walls** — a quantity invariant
//!   under caching, unlike elapsed time;
//! * the reported thread count is the worker count the executor *would*
//!   use for the full sweep (`threads.min(points)`), independent of how
//!   many points actually missed.
//!
//! Usage is two-phase — [`SweepPlan::compute`] classifies every point as
//! hit or miss without running anything, so callers can scope side work
//! (e.g. alone-IPC warmup) to the misses; then
//! [`CacheExecutorExt::run_cached`] executes the plan. A run without a
//! store takes the same path: [`SweepPlan::uncached`] plans every point
//! as a miss and nothing is persisted.

use crate::store::{StoredPoint, SweepStore};
use hira_engine::{Executor, Metric, PointTelemetry, RunRecord, RunSet, Scenario, Sweep};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// A sweep classified against the store: per-point content hashes plus the
/// cached results of every hit, shared with the store's index rather than
/// copied out of it. Computing a plan runs nothing.
#[derive(Debug)]
pub struct SweepPlan {
    hashes: Vec<String>,
    hits: Vec<Option<Arc<StoredPoint>>>,
}

impl SweepPlan {
    /// Classifies every point of `sweep` against `store`. `canon` renders a
    /// point's canonical configuration string — everything its result
    /// depends on besides the seed (which the scenario carries) and the
    /// code version (which `salt` carries). Callers whose tasks measure
    /// different things for the same configuration must bake a task tag
    /// into the canonical string, or their keys collide.
    pub fn compute<P>(
        store: &SweepStore,
        sweep: &Sweep<P>,
        salt: u64,
        canon: impl Fn(Scenario<'_, P>) -> String,
    ) -> Self {
        let mut hashes = Vec::with_capacity(sweep.len());
        let mut hits = Vec::with_capacity(sweep.len());
        for i in 0..sweep.len() {
            let sc = sweep.scenario(i);
            let seed = sc.seed;
            let hash = crate::point_key(&canon(sc), seed, salt);
            hits.push(store.shared(&hash));
            hashes.push(hash);
        }
        SweepPlan { hashes, hits }
    }

    /// The plan of a run without a store: every one of `len` points is a
    /// miss, and none has a content hash (nothing will be persisted).
    pub fn uncached(len: usize) -> Self {
        SweepPlan {
            hashes: vec![String::new(); len],
            hits: vec![None; len],
        }
    }

    /// Number of planned points.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the plan covers no points.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Number of points the store already holds.
    pub fn hits(&self) -> usize {
        self.hits.iter().filter(|h| h.is_some()).count()
    }

    /// Number of points that must be computed.
    pub fn misses(&self) -> usize {
        self.len() - self.hits()
    }

    /// Whether every point is a hit — a warm run performs zero simulations.
    pub fn is_warm(&self) -> bool {
        self.misses() == 0
    }

    /// The point indices that must be computed, in point order.
    pub fn miss_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.hits
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_none())
            .map(|(i, _)| i)
    }

    /// The content hash of point `i`.
    pub fn hash(&self, i: usize) -> &str {
        &self.hashes[i]
    }
}

/// Hit/miss accounting of one cached run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Points in the sweep.
    pub points: usize,
    /// Points replayed from the store.
    pub hits: usize,
    /// Points computed this run.
    pub misses: usize,
    /// Points newly persisted (≤ misses: duplicate hashes within one sweep
    /// collapse to a single stored point).
    pub appended: usize,
}

/// One finished point, streamed to [`CacheExecutorExt::run_cached`]'s
/// `on_point` observer as it lands: hits first in point order (replayed in
/// microseconds), then misses in completion order from worker threads —
/// observers that write shared state must synchronize.
#[derive(Debug)]
pub struct PointOutcome<'a> {
    /// The point's index in the sweep.
    pub index: usize,
    /// Whether the point was replayed from the store.
    pub cached: bool,
    /// Milliseconds the point sat queued before a worker picked it up
    /// (0 for replayed hits — they never enter the work queue). Purely
    /// observational: never persisted, never part of the run set.
    pub queue_wait_ms: f64,
    /// The point's result (stored form).
    pub point: &'a StoredPoint,
}

/// A streamed-point observer.
pub type OnPoint<'a> = &'a (dyn Fn(PointOutcome<'_>) + Sync);

/// The cache-aware run path, as an extension of the engine's [`Executor`].
pub trait CacheExecutorExt {
    /// Executes `plan`: replays every hit from `store`, schedules only the
    /// misses on the executor's work queue, persists the new results (when
    /// a store is given), and assembles the full [`RunSet`] in point order
    /// — bit-identical to the run set an uncached execution of `sweep`
    /// would produce, for any thread count and any hit/miss split. The run
    /// set's `wall_ms` is the sum of its per-point walls.
    ///
    /// `task` is the uncached per-point computation (metrics + optional
    /// telemetry); it is invoked **only for misses**. `on_point` observes
    /// every finished point (see [`PointOutcome`]).
    ///
    /// # Errors
    ///
    /// Propagates store append failures (the computed results are lost with
    /// the error — callers should treat this as fatal).
    ///
    /// # Panics
    ///
    /// Panics if `plan` was computed for a different sweep (length
    /// mismatch), and propagates task panics.
    fn run_cached<P, F>(
        &self,
        store: Option<&mut SweepStore>,
        sweep: &Sweep<P>,
        plan: &SweepPlan,
        task: F,
        on_point: Option<OnPoint<'_>>,
    ) -> io::Result<(RunSet, CacheStats)>
    where
        P: Sync,
        F: Fn(Scenario<'_, P>) -> (Vec<Metric>, Option<PointTelemetry>) + Sync;
}

impl CacheExecutorExt for Executor {
    fn run_cached<P, F>(
        &self,
        store: Option<&mut SweepStore>,
        sweep: &Sweep<P>,
        plan: &SweepPlan,
        task: F,
        on_point: Option<OnPoint<'_>>,
    ) -> io::Result<(RunSet, CacheStats)>
    where
        P: Sync,
        F: Fn(Scenario<'_, P>) -> (Vec<Metric>, Option<PointTelemetry>) + Sync,
    {
        let n = sweep.len();
        assert_eq!(
            plan.len(),
            n,
            "plan covers {} points but sweep `{}` has {n}",
            plan.len(),
            sweep.name()
        );

        // Hits stream immediately, in point order.
        if let Some(cb) = on_point {
            for (i, hit) in plan.hits.iter().enumerate() {
                if let Some(point) = hit.as_deref() {
                    cb(PointOutcome {
                        index: i,
                        cached: true,
                        queue_wait_ms: 0.0,
                        point,
                    });
                }
            }
        }

        // Only the misses enter the work queue. The miss sweep's payload is
        // the original point index; the task runs against the *original*
        // scenario view, so keys, seeds and params are exactly those of an
        // uncached run.
        let miss_indices: Vec<usize> = plan.miss_indices().collect();
        let miss_sweep = Sweep::from_points(
            sweep.name(),
            sweep.base_seed(),
            miss_indices
                .iter()
                .map(|&i| (sweep.points()[i].0.clone(), i))
                .collect(),
        );
        let t_queue = Instant::now();
        let computed: Vec<StoredPoint> = self.map(&miss_sweep, |sc| {
            let queue_wait_ms = t_queue.elapsed().as_secs_f64() * 1e3;
            let i = *sc.params;
            let orig = sweep.scenario(i);
            let key = orig.key.clone();
            let t0 = Instant::now();
            let (metrics, telemetry) = task(orig);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let point = StoredPoint {
                hash: plan.hashes[i].clone(),
                sweep: sweep.name().to_string(),
                key,
                wall_ms,
                telemetry,
                metrics,
            };
            if let Some(cb) = on_point {
                cb(PointOutcome {
                    index: i,
                    cached: false,
                    queue_wait_ms,
                    point: &point,
                });
            }
            point
        });
        let appended = match store {
            Some(store) => store.append(computed.clone())?,
            None => 0,
        };

        // Assemble the full run set in point order. Replayed records carry
        // the querying sweep's key (stored keys are provenance, and a result
        // may have been computed under another sweep's coordinates).
        let mut by_index: Vec<Option<&StoredPoint>> =
            plan.hits.iter().map(Option::as_deref).collect();
        for (&i, point) in miss_indices.iter().zip(&computed) {
            by_index[i] = Some(point);
        }
        let mut records =
            Vec::with_capacity(by_index.iter().flatten().map(|p| p.metrics.len()).sum());
        let mut wall_ms = 0.0;
        for (i, point) in by_index.iter().enumerate() {
            let point = point.expect("every point is a hit or was computed");
            wall_ms += point.wall_ms;
            for m in &point.metrics {
                records.push(RunRecord {
                    key: sweep.points()[i].0.clone(),
                    metric: m.name.clone(),
                    value: m.value,
                    wall_ms: point.wall_ms,
                    telemetry: point.telemetry,
                });
            }
        }
        let run = RunSet {
            sweep: sweep.name().to_string(),
            threads: self.threads().min(n.max(1)),
            wall_ms,
            records,
        };
        let stats = CacheStats {
            points: n,
            hits: n - miss_indices.len(),
            misses: miss_indices.len(),
            appended,
        };
        Ok((run, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hira_engine::metric;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hira-run-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn demo_sweep(n: u32) -> Sweep<u32> {
        Sweep::new("cache_demo").axis("i", (0..n).map(|i| (i.to_string(), i)), |_, &i| i)
    }

    fn canon(sc: Scenario<'_, u32>) -> String {
        format!("task=demo;x={}", sc.params)
    }

    /// A deterministic pseudo-measurement: pure in the scenario.
    fn demo_task(sc: Scenario<'_, u32>) -> (Vec<Metric>, Option<PointTelemetry>) {
        let x = sc.seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (
            vec![
                metric("m", (x >> 11) as f64),
                metric("twice", f64::from(*sc.params) * 2.0),
            ],
            Some(PointTelemetry {
                events: u64::from(*sc.params) * 10,
                peak_queue: 3,
            }),
        )
    }

    #[test]
    fn plans_classify_without_running_and_warm_runs_simulate_nothing() {
        let dir = tmp_dir("warm");
        let mut store = SweepStore::open(&dir).unwrap();
        let sweep = demo_sweep(9);
        let ex = Executor::with_threads(4);
        let calls = AtomicUsize::new(0);
        let task = |sc: Scenario<'_, u32>| {
            calls.fetch_add(1, Ordering::Relaxed);
            demo_task(sc)
        };

        let plan = SweepPlan::compute(&store, &sweep, 7, canon);
        assert_eq!((plan.hits(), plan.misses()), (0, 9));
        assert_eq!(calls.load(Ordering::Relaxed), 0, "planning runs nothing");

        let (cold, stats) = ex
            .run_cached(Some(&mut store), &sweep, &plan, task, None)
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 9);
        assert_eq!(
            stats,
            CacheStats {
                points: 9,
                hits: 0,
                misses: 9,
                appended: 9
            }
        );

        let plan = SweepPlan::compute(&store, &sweep, 7, canon);
        assert!(plan.is_warm());
        let (warm, stats) = ex
            .run_cached(Some(&mut store), &sweep, &plan, task, None)
            .unwrap();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            9,
            "warm run computes nothing"
        );
        assert_eq!(stats.hits, 9);
        // Bit-identity: canonical AND bench serializations match the cold run.
        assert_eq!(warm.canonical_json(), cold.canonical_json());
        assert_eq!(warm.bench_json(), cold.bench_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_runs_are_bit_identical_for_any_thread_count_and_split() {
        let dir = tmp_dir("splits");
        let mut seed_store = SweepStore::open(&dir).unwrap();
        let sweep = demo_sweep(12);
        // Reference: a cold run through the cached path at 1 thread.
        let plan = SweepPlan::compute(&seed_store, &sweep, 7, canon);
        let (reference, _) = Executor::with_threads(1)
            .run_cached(Some(&mut seed_store), &sweep, &plan, demo_task, None)
            .unwrap();
        // And the engine's plain uncached path agrees on the canonical form.
        let plain = Executor::with_threads(1).run_instrumented(&sweep, |sc| {
            let (m, t) = demo_task(sc);
            ((), m, t)
        });
        assert_eq!(reference.canonical_json(), plain.1.canonical_json());
        std::fs::remove_dir_all(&dir).ok();

        // Partial prewarms at several thread counts: seed a store with a
        // subset sweep, then run the full sweep over the mixed store.
        for (threads, prewarm) in [(1usize, 5u32), (8, 5), (8, 0), (8, 12), (3, 11)] {
            let dir = tmp_dir(&format!("split-{threads}-{prewarm}"));
            let mut store = SweepStore::open(&dir).unwrap();
            let subset = demo_sweep(prewarm);
            let plan = SweepPlan::compute(&store, &subset, 7, canon);
            Executor::with_threads(threads)
                .run_cached(Some(&mut store), &subset, &plan, demo_task, None)
                .unwrap();
            let plan = SweepPlan::compute(&store, &sweep, 7, canon);
            assert_eq!(plan.hits(), prewarm as usize);
            let (run, stats) = Executor::with_threads(threads)
                .run_cached(Some(&mut store), &sweep, &plan, demo_task, None)
                .unwrap();
            assert_eq!(stats.misses, 12 - prewarm as usize);
            assert_eq!(
                run.canonical_json(),
                reference.canonical_json(),
                "threads={threads} prewarm={prewarm}"
            );
            assert_eq!(
                run.threads,
                Executor::with_threads(threads).threads().min(12)
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn on_point_streams_hits_in_order_then_misses_as_computed() {
        let dir = tmp_dir("stream");
        let mut store = SweepStore::open(&dir).unwrap();
        let sweep = demo_sweep(6);
        let ex = Executor::with_threads(2);
        // Prewarm points 0..3 via a subset sweep.
        let subset = demo_sweep(3);
        let plan = SweepPlan::compute(&store, &subset, 7, canon);
        ex.run_cached(Some(&mut store), &subset, &plan, demo_task, None)
            .unwrap();

        let seen: Mutex<Vec<(usize, bool)>> = Mutex::new(Vec::new());
        let observer = |o: PointOutcome<'_>| {
            assert_eq!(o.point.hash.len(), 64);
            if o.cached {
                assert_eq!(o.queue_wait_ms, 0.0, "replays never queue");
            } else {
                assert!(o.queue_wait_ms >= 0.0);
            }
            seen.lock().unwrap().push((o.index, o.cached));
        };
        let plan = SweepPlan::compute(&store, &sweep, 7, canon);
        let (_, stats) = ex
            .run_cached(Some(&mut store), &sweep, &plan, demo_task, Some(&observer))
            .unwrap();
        assert_eq!(
            stats,
            CacheStats {
                points: 6,
                hits: 3,
                misses: 3,
                appended: 3
            }
        );
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 6, "every point is observed exactly once");
        // Hits arrive first, in point order.
        assert_eq!(&seen[..3], &[(0, true), (1, true), (2, true)]);
        // Misses follow in some completion order, flagged uncached.
        let mut missed: Vec<usize> = seen[3..]
            .iter()
            .map(|&(i, c)| {
                assert!(!c);
                i
            })
            .collect();
        missed.sort_unstable();
        assert_eq!(missed, vec![3, 4, 5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncached_plans_compute_every_point_and_persist_nothing() {
        let dir = tmp_dir("uncached");
        let mut store = SweepStore::open(&dir).unwrap();
        let sweep = demo_sweep(5);
        let ex = Executor::with_threads(2);
        let plan = SweepPlan::compute(&store, &sweep, 7, canon);
        let (cached, _) = ex
            .run_cached(Some(&mut store), &sweep, &plan, demo_task, None)
            .unwrap();
        let plan = SweepPlan::uncached(sweep.len());
        assert_eq!((plan.hits(), plan.misses()), (0, 5));
        let (run, stats) = ex.run_cached(None, &sweep, &plan, demo_task, None).unwrap();
        assert_eq!(
            stats,
            CacheStats {
                points: 5,
                hits: 0,
                misses: 5,
                appended: 0
            }
        );
        assert_eq!(run.canonical_json(), cached.canonical_json());
        let summed: f64 = (0..5).map(|i| run.records[2 * i].wall_ms).sum();
        assert_eq!(run.wall_ms, summed, "wall_ms sums the per-point walls");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changing_the_salt_invalidates_every_point() {
        let dir = tmp_dir("salt");
        let mut store = SweepStore::open(&dir).unwrap();
        let sweep = demo_sweep(4);
        let ex = Executor::with_threads(2);
        let plan = SweepPlan::compute(&store, &sweep, 7, canon);
        ex.run_cached(Some(&mut store), &sweep, &plan, demo_task, None)
            .unwrap();
        assert!(SweepPlan::compute(&store, &sweep, 7, canon).is_warm());
        let other = SweepPlan::compute(&store, &sweep, 8, canon);
        assert_eq!(other.misses(), 4, "new salt, cold cache");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "plan covers")]
    fn plans_must_match_their_sweep() {
        let dir = tmp_dir("mismatch");
        let mut store = SweepStore::open(&dir).unwrap();
        let plan = SweepPlan::compute(&store, &demo_sweep(2), 7, canon);
        let _ = Executor::with_threads(1).run_cached(
            Some(&mut store),
            &demo_sweep(3),
            &plan,
            demo_task,
            None,
        );
    }
}
