//! The multi-threaded sweep executor.
//!
//! Std-only: `std::thread::scope` workers pulling point indices from a
//! shared atomic queue (`AtomicUsize::fetch_add`), so an idle worker always
//! steals the next pending point regardless of how long its neighbours'
//! points run. Each point's result lands in its own pre-allocated slot and
//! the run set is assembled in point order afterwards — results are
//! therefore **bit-identical for any thread count**, provided tasks are
//! deterministic functions of their [`Scenario`] (key, seed, params).
//!
//! The worker count comes from `HIRA_THREADS` when set to a positive
//! integer; zero or unparsable values (and an unset variable) fall back to
//! [`std::thread::available_parallelism`].

use crate::record::{Metric, PointTelemetry, RunRecord, RunSet};
use crate::scenario::{Scenario, ScenarioKey, Sweep};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One point's finished work: opaque output, metrics, optional telemetry,
/// and wall time in ms.
type Slot<R> = Mutex<Option<(R, Vec<Metric>, Option<PointTelemetry>, f64)>>;

/// One point's execution timing, handed to a [`RunObserver`] as the point
/// completes (from the worker thread that ran it).
#[derive(Debug, Clone)]
pub struct PointRun<'a> {
    /// The point's index within the sweep.
    pub index: usize,
    /// The point's coordinates.
    pub key: &'a ScenarioKey,
    /// Milliseconds the point sat queued before a worker picked it up.
    pub queue_wait_ms: f64,
    /// Milliseconds the task ran.
    pub wall_ms: f64,
}

/// A per-point completion hook: called from worker threads, in completion
/// (not point) order. Purely observational — it receives no result data
/// and cannot influence the run.
pub type RunObserver<'a> = &'a (dyn Fn(&PointRun<'_>) + Sync);

/// A sweep executor with a fixed worker-thread budget.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

/// Parses a `HIRA_THREADS`-style value; `None` for absent/unparsable/zero.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

impl Executor {
    /// Worker count from `HIRA_THREADS`, defaulting to the machine's
    /// available parallelism.
    pub fn from_env() -> Self {
        let env = std::env::var("HIRA_THREADS").ok();
        let threads = parse_threads(env.as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Executor { threads }
    }

    /// An executor with an explicit worker count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every point of `sweep` through `task`, which returns an opaque
    /// per-point output plus its metrics. Returns the outputs in point order
    /// and the assembled [`RunSet`].
    ///
    /// # Panics
    ///
    /// Propagates task panics after all workers stop.
    pub fn run_with<P, R, F>(&self, sweep: &Sweep<P>, task: F) -> (Vec<R>, RunSet)
    where
        P: Sync,
        R: Send,
        F: Fn(Scenario<'_, P>) -> (R, Vec<Metric>) + Sync,
    {
        self.run_instrumented(sweep, |sc| {
            let (out, metrics) = task(sc);
            (out, metrics, None)
        })
    }

    /// [`Executor::run_with`] for tasks that additionally report per-point
    /// [`PointTelemetry`] — kernel events processed and peak queue depth —
    /// which lands on every record of that point (and in the `BENCH_*.json`
    /// payload, never in the canonical serialization).
    ///
    /// # Panics
    ///
    /// Propagates task panics after all workers stop.
    pub fn run_instrumented<P, R, F>(&self, sweep: &Sweep<P>, task: F) -> (Vec<R>, RunSet)
    where
        P: Sync,
        R: Send,
        F: Fn(Scenario<'_, P>) -> (R, Vec<Metric>, Option<PointTelemetry>) + Sync,
    {
        self.run_observed(sweep, task, None)
    }

    /// [`Executor::run_instrumented`] with an optional per-point
    /// [`RunObserver`]: as each point completes, its worker thread reports
    /// the index, key, queue wait (time between run start and pickup) and
    /// task wall time. The observer sees timing only — results flow
    /// exactly as without it, so observed runs stay bit-identical.
    ///
    /// # Panics
    ///
    /// Propagates task panics after all workers stop.
    pub fn run_observed<P, R, F>(
        &self,
        sweep: &Sweep<P>,
        task: F,
        observer: Option<RunObserver<'_>>,
    ) -> (Vec<R>, RunSet)
    where
        P: Sync,
        R: Send,
        F: Fn(Scenario<'_, P>) -> (R, Vec<Metric>, Option<PointTelemetry>) + Sync,
    {
        let t0 = Instant::now();
        let n = sweep.len();
        let workers = self.threads.min(n.max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<Slot<R>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|s| {
            // An empty sweep (a fully cached one's misses) spawns no worker.
            for _ in 0..workers.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let w0 = Instant::now();
                    let queue_wait_ms = (w0 - t0).as_secs_f64() * 1e3;
                    let (out, metrics, telemetry) = task(sweep.scenario(i));
                    let wall_ms = w0.elapsed().as_secs_f64() * 1e3;
                    *slots[i].lock().expect("result slot") =
                        Some((out, metrics, telemetry, wall_ms));
                    if let Some(observe) = observer {
                        observe(&PointRun {
                            index: i,
                            key: &sweep.points()[i].0,
                            queue_wait_ms,
                            wall_ms,
                        });
                    }
                });
            }
        });

        let mut outputs = Vec::with_capacity(n);
        let mut records = Vec::new();
        let mut total_ms = 0.0;
        for (i, slot) in slots.into_iter().enumerate() {
            let (out, metrics, telemetry, wall_ms) = slot
                .into_inner()
                .expect("result slot")
                .expect("point executed");
            total_ms += wall_ms;
            let key = &sweep.points()[i].0;
            for m in metrics {
                records.push(RunRecord {
                    key: key.clone(),
                    metric: m.name,
                    value: m.value,
                    wall_ms,
                    telemetry,
                });
            }
            outputs.push(out);
        }
        let run = RunSet {
            sweep: sweep.name().to_string(),
            threads: workers,
            wall_ms: total_ms,
            records,
        };
        (outputs, run)
    }

    /// [`Executor::run_with`] for tasks that only produce metrics.
    pub fn run<P, F>(&self, sweep: &Sweep<P>, task: F) -> RunSet
    where
        P: Sync,
        F: Fn(Scenario<'_, P>) -> Vec<Metric> + Sync,
    {
        self.run_with(sweep, |sc| ((), task(sc))).1
    }

    /// [`Executor::run_with`] for tasks that only produce an output value.
    pub fn map<P, R, F>(&self, sweep: &Sweep<P>, task: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(Scenario<'_, P>) -> R + Sync,
    {
        self.run_with(sweep, |sc| (task(sc), Vec::new())).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::metric;
    use crate::scenario::ScenarioKey;

    fn demo_sweep(n: u32) -> Sweep<u32> {
        Sweep::new("exec_demo").axis("i", (0..n).map(|i| (i.to_string(), i)), |_, &i| i)
    }

    #[test]
    fn outputs_follow_point_order_for_any_thread_count() {
        let sweep = demo_sweep(37);
        for threads in [1, 2, 8, 64] {
            let outs = Executor::with_threads(threads).map(&sweep, |sc| *sc.params * 3);
            let expect: Vec<u32> = (0..37).map(|i| i * 3).collect();
            assert_eq!(outs, expect, "threads={threads}");
        }
    }

    #[test]
    fn canonical_results_are_byte_identical_across_thread_counts() {
        let sweep = demo_sweep(41);
        let run_at = |threads| {
            Executor::with_threads(threads)
                .run(&sweep, |sc| {
                    // A seed-driven pseudo-measurement: pure in the scenario.
                    let x = sc.seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
                    vec![
                        metric("m", (x >> 11) as f64),
                        metric("twice", *sc.params as f64 * 2.0),
                    ]
                })
                .canonical_json()
        };
        let single = run_at(1);
        assert_eq!(single, run_at(2));
        assert_eq!(single, run_at(8));
    }

    #[test]
    fn runset_carries_sweep_name_thread_count_and_records() {
        let sweep = demo_sweep(3);
        let run = Executor::with_threads(2).run(&sweep, |sc| vec![metric("v", *sc.params as f64)]);
        assert_eq!(run.sweep, "exec_demo");
        assert_eq!(run.threads, 2);
        assert_eq!(run.records.len(), 3);
        assert_eq!(run.value(&[("i", "2")], "v"), 2.0);
        assert!(run.records.iter().all(|r| r.wall_ms >= 0.0));
        // The run's wall is its points' summed walls (one record each).
        let summed: f64 = run.records.iter().map(|r| r.wall_ms).sum();
        assert_eq!(run.wall_ms, summed);
    }

    #[test]
    fn worker_count_never_exceeds_points_and_empty_sweeps_work() {
        let empty: Sweep<u32> = Sweep::from_points("empty", 0, Vec::new());
        let run = Executor::with_threads(8).run(&empty, |_| vec![]);
        assert!(run.records.is_empty());
        assert_eq!(run.wall_ms, 0.0);
        let one = Sweep::from_points("one", 0, vec![(ScenarioKey::root(), 7u32)]);
        let (outs, run) = Executor::with_threads(8).run_with(&one, |sc| (*sc.params, vec![]));
        assert_eq!(outs, vec![7]);
        assert_eq!(run.threads, 1);
    }

    #[test]
    fn instrumented_tasks_stamp_telemetry_on_every_record() {
        let sweep = demo_sweep(4);
        let (_, run) = Executor::with_threads(2).run_instrumented(&sweep, |sc| {
            let t = PointTelemetry {
                events: *sc.params as u64 * 10,
                peak_queue: 3,
            };
            ((), vec![metric("a", 1.0), metric("b", 2.0)], Some(t))
        });
        assert_eq!(run.records.len(), 8);
        assert!(run
            .records
            .iter()
            .all(|r| r.telemetry.map(|t| t.peak_queue) == Some(3)));
        // Both records of point i=2 carry that point's event count.
        let events: Vec<u64> = run
            .records
            .iter()
            .filter(|r| r.key.matches(&[("i", "2")]))
            .map(|r| r.telemetry.unwrap().events)
            .collect();
        assert_eq!(events, vec![20, 20]);
        // Plain run_with leaves telemetry empty.
        let (_, plain) =
            Executor::with_threads(2).run_with(&sweep, |_| ((), vec![metric("a", 0.0)]));
        assert!(plain.records.iter().all(|r| r.telemetry.is_none()));
    }

    #[test]
    fn observers_see_every_point_without_perturbing_results() {
        let sweep = demo_sweep(9);
        let seen = Mutex::new(Vec::new());
        let observer = |p: &PointRun<'_>| {
            assert!(p.queue_wait_ms >= 0.0 && p.wall_ms >= 0.0);
            seen.lock().unwrap().push((p.index, p.key.clone()));
        };
        let (outs, run) = Executor::with_threads(4).run_observed(
            &sweep,
            |sc| (*sc.params * 3, vec![metric("m", *sc.params as f64)], None),
            Some(&observer),
        );
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|(i, _)| *i);
        assert_eq!(seen.len(), 9, "one callback per point");
        for (i, (idx, key)) in seen.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(key, &sweep.points()[i].0);
        }
        // Observed output identical to the unobserved run.
        let (plain_outs, plain) = Executor::with_threads(4).run_observed(
            &sweep,
            |sc| (*sc.params * 3, vec![metric("m", *sc.params as f64)], None),
            None,
        );
        assert_eq!(outs, plain_outs);
        assert_eq!(run.canonical_json(), plain.canonical_json());
    }

    #[test]
    fn thread_env_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("nope")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 12 ")), Some(12));
    }
}
