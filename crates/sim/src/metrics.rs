//! Performance metrics (§7: weighted speedup [31, 156]) and the always-on
//! log2-bucketed latency histograms behind the p50/p90/p99/p999 columns.

use crate::controller::ChannelStats;
use crate::plugin::PluginStats;
use crate::policy::PolicyStats;
use hira_core::finder::McStats;

/// Number of log2 latency buckets. Bucket 0 holds zero-cycle latencies,
/// bucket `b ≥ 1` the range `[2^(b-1), 2^b)`, and the last bucket absorbs
/// everything at or beyond `2^(LATENCY_BUCKETS-2)` cycles — far past any
/// latency the timing model can produce.
pub const LATENCY_BUCKETS: usize = 24;

/// A log2-bucketed latency histogram, recorded unconditionally by the
/// controller for demand reads and writes (one array increment per
/// request — cheap enough to stay on even in the `perf_kernel` hot path,
/// and entirely deterministic, so it never perturbs the dense-vs-event or
/// probe-attached equality guarantees).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts (see [`LATENCY_BUCKETS`]).
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Records one latency sample (in memory cycles).
    #[inline]
    pub fn record(&mut self, latency: u64) {
        let b = (64 - latency.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[b] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds `other`'s counts into `self` (channel aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The inclusive `[low, high]` cycle range of bucket `b`. The last
    /// bucket is open-ended upward; its reported high end is the clamp
    /// point every farther sample is folded into.
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        assert!(b < LATENCY_BUCKETS);
        if b == 0 {
            (0, 0)
        } else {
            (1 << (b - 1), (1u64 << b) - 1)
        }
    }

    /// The `q`-quantile latency (`q` clamped into `[0, 1]`), reported as
    /// the upper bound of the bucket containing the `⌈q·n⌉`-th sample —
    /// a deterministic, conservative estimate. `None` when no samples
    /// were recorded.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return Some(Self::bucket_bounds(b).1);
            }
        }
        unreachable!("cumulative count reaches the total")
    }
}

/// Result of one simulation run.
///
/// Equality is exact (bit-level on the float fields): two runs of the same
/// configuration compare equal regardless of thread count or
/// [`crate::config::KernelMode`] — the property the dense-vs-event
/// equality harness asserts.
///
/// `Default` is uniform: **every** collection field defaults empty (no
/// phantom channel), and every scalar to zero.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimResult {
    /// Per-core IPC over the measurement region.
    pub ipc: Vec<f64>,
    /// Per-core workload instance names (for a multiprogrammed mix, the
    /// member benchmark each core ran) — the keys weighted-speedup
    /// denominators resolve by.
    pub workloads: Vec<String>,
    /// CPU cycles simulated, up to the last core's finish line — or, when
    /// the safety cap triggers first, exactly the cap. Under the
    /// event-driven kernel this *includes* skipped cycles: time skipping
    /// advances the clock, it does not compress it, so `cycles` (and the
    /// per-core IPC denominators derived from it) are identical to the
    /// dense kernel's count, and a capped run never reports a cycle
    /// number past the cap however far the next wake lay.
    pub cycles: u64,
    /// Memory command-clock cycles simulated (the device's clock domain —
    /// the denominator of bus-utilization fractions).
    pub mem_cycles: u64,
    /// Aggregated channel statistics.
    pub channel_stats: Vec<ChannelStats>,
    /// HiRA-MC statistics per (channel, rank), where configured.
    pub mc_stats: Vec<McStats>,
    /// Refresh-policy service counters per (channel, rank).
    pub policy_stats: Vec<PolicyStats>,
    /// Controller-plugin (RowHammer defense) counters per (channel, rank,
    /// plugin ordinal) — empty when no plugins are configured.
    pub plugin_stats: Vec<PluginStats>,
}

impl SimResult {
    /// Weighted speedup: `Σ IPC_shared_i / IPC_alone_i`.
    ///
    /// # Panics
    ///
    /// Panics if `alone` and the per-core IPC vectors differ in length.
    pub fn weighted_speedup(&self, alone: &[f64]) -> f64 {
        assert_eq!(alone.len(), self.ipc.len(), "need one alone-IPC per core");
        self.ipc
            .iter()
            .zip(alone)
            .map(|(&shared, &alone)| shared / alone.max(1e-9))
            .sum()
    }

    /// Total demand reads served by the memory system.
    pub fn total_reads(&self) -> u64 {
        self.channel_stats.iter().map(|s| s.reads_done).sum()
    }

    /// Row-buffer hit rate over demand accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let hits: u64 = self.channel_stats.iter().map(|s| s.row_hits).sum();
        let total: u64 = self
            .channel_stats
            .iter()
            .map(|s| s.reads_done + s.writes_done)
            .sum();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Average read latency in memory cycles.
    ///
    /// A run with zero completed reads reports `0.0` (documented
    /// divide-by-zero guard — never `NaN`), matching
    /// [`SimResult::avg_write_latency`] and
    /// [`SimResult::data_bus_utilization`].
    pub fn avg_read_latency(&self) -> f64 {
        let lat: u64 = self.channel_stats.iter().map(|s| s.read_latency_sum).sum();
        let n = self.total_reads();
        if n == 0 {
            0.0
        } else {
            lat as f64 / n as f64
        }
    }

    /// The run's read-latency histogram, aggregated across channels.
    pub fn read_latency_histogram(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for s in &self.channel_stats {
            h.merge(&s.read_lat_hist);
        }
        h
    }

    /// The run's write-latency histogram, aggregated across channels.
    pub fn write_latency_histogram(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for s in &self.channel_stats {
            h.merge(&s.write_lat_hist);
        }
        h
    }

    /// The `q`-quantile read latency in memory cycles (log2-bucket upper
    /// bound; see [`LatencyHistogram::quantile`]). `None` on a run with no
    /// completed reads.
    pub fn read_latency_quantile(&self, q: f64) -> Option<u64> {
        self.read_latency_histogram().quantile(q)
    }

    /// The `q`-quantile write service latency in memory cycles. `None` on
    /// a run with no writes.
    pub fn write_latency_quantile(&self, q: f64) -> Option<u64> {
        self.write_latency_histogram().quantile(q)
    }

    /// Total demand writes issued to DRAM.
    pub fn total_writes(&self) -> u64 {
        self.channel_stats.iter().map(|s| s.writes_done).sum()
    }

    /// Average write service latency (arrival to end of the write burst)
    /// in memory cycles.
    ///
    /// A run with zero writes reports `0.0` (documented divide-by-zero
    /// guard — never `NaN`).
    pub fn avg_write_latency(&self) -> f64 {
        let lat: u64 = self.channel_stats.iter().map(|s| s.write_latency_sum).sum();
        let n = self.total_writes();
        if n == 0 {
            0.0
        } else {
            lat as f64 / n as f64
        }
    }

    /// All plugin instances' counters merged into one [`PluginStats`]
    /// (counters add, the exposure peak takes the max) — the run-level
    /// defense summary `rh_matrix` reports.
    pub fn plugin_totals(&self) -> PluginStats {
        self.plugin_stats
            .iter()
            .fold(PluginStats::default(), |acc, s| acc.merge(*s))
    }

    /// Preventive refreshes injected by plugins, summed.
    pub fn plugin_injected(&self) -> u64 {
        self.plugin_totals().injected
    }

    /// Per-channel data-bus utilization: the fraction of simulated memory
    /// cycles each channel's data bus spent transferring bursts (demand
    /// reads and writes; refresh traffic never uses the data bus).
    ///
    /// A zero-cycle run reports `0.0` for every channel (documented
    /// divide-by-zero guard — never `NaN`).
    pub fn data_bus_utilization(&self) -> Vec<f64> {
        self.channel_stats
            .iter()
            .map(|s| {
                if self.mem_cycles == 0 {
                    0.0
                } else {
                    s.data_bus_busy as f64 / self.mem_cycles as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ipc: Vec<f64>) -> SimResult {
        SimResult {
            workloads: vec!["x".to_owned(); ipc.len()],
            ipc,
            cycles: 1000,
            mem_cycles: 375,
            channel_stats: vec![ChannelStats::default()],
            mc_stats: vec![],
            policy_stats: vec![],
            plugin_stats: vec![],
        }
    }

    #[test]
    fn weighted_speedup_sums_ratios() {
        let r = result(vec![1.0, 2.0]);
        let ws = r.weighted_speedup(&[2.0, 2.0]);
        assert!((ws - 1.5).abs() < 1e-12);
    }

    #[test]
    fn equal_performance_gives_core_count() {
        let r = result(vec![0.5; 8]);
        assert!((r.weighted_speedup(&[0.5; 8]) - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alone-IPC")]
    fn mismatched_lengths_panic() {
        result(vec![1.0]).weighted_speedup(&[1.0, 1.0]);
    }

    #[test]
    fn write_latency_averages_over_writes() {
        let mut r = result(vec![1.0]);
        assert_eq!(r.avg_write_latency(), 0.0, "no writes → 0, not NaN");
        r.channel_stats[0].writes_done = 4;
        r.channel_stats[0].write_latency_sum = 200;
        assert!((r.avg_write_latency() - 50.0).abs() < 1e-12);
        // Aggregates across channels like the read-side metric.
        r.channel_stats.push(ChannelStats {
            writes_done: 4,
            write_latency_sum: 600,
            ..ChannelStats::default()
        });
        assert!((r.avg_write_latency() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_uniformly_empty() {
        // The satellite fix: every collection field defaults empty — no
        // phantom single-channel asymmetry against mc/policy stats.
        let d = SimResult::default();
        assert!(d.ipc.is_empty());
        assert!(d.workloads.is_empty());
        assert_eq!(d.cycles, 0);
        assert_eq!(d.mem_cycles, 0);
        assert!(d.channel_stats.is_empty());
        assert!(d.mc_stats.is_empty());
        assert!(d.policy_stats.is_empty());
        assert!(d.plugin_stats.is_empty());
    }

    #[test]
    fn plugin_totals_merge_across_instances() {
        let mut r = result(vec![1.0]);
        assert_eq!(r.plugin_totals(), PluginStats::default(), "no plugins");
        r.plugin_stats = vec![
            PluginStats {
                injected: 3,
                max_exposure: 40,
                exposure_sum: 60,
                exposure_rows: 2,
                rows_over_threshold: 1,
                ..PluginStats::default()
            },
            PluginStats {
                injected: 1,
                max_exposure: 25,
                exposure_sum: 40,
                exposure_rows: 2,
                ..PluginStats::default()
            },
        ];
        let totals = r.plugin_totals();
        assert_eq!(r.plugin_injected(), 4);
        assert_eq!(totals.injected, 4);
        assert_eq!(totals.max_exposure, 40, "the peak takes the max");
        assert!((totals.mean_exposure() - 25.0).abs() < 1e-12);
        assert_eq!(totals.rows_over_threshold, 1);
    }

    #[test]
    fn read_latency_of_a_zero_read_run_is_zero() {
        // Divide-by-zero guard: a run that completed no reads (and a fully
        // empty default) reports 0.0, never NaN.
        let r = result(vec![1.0]);
        assert_eq!(r.avg_read_latency(), 0.0);
        assert_eq!(SimResult::default().avg_read_latency(), 0.0);
        assert_eq!(r.read_latency_quantile(0.99), None, "quantiles say None");
    }

    #[test]
    fn zero_cycle_run_reports_zero_utilization_and_latency() {
        let mut r = result(vec![1.0]);
        r.mem_cycles = 0;
        r.cycles = 0;
        assert!(r.data_bus_utilization().iter().all(|&u| u == 0.0));
        assert_eq!(r.avg_write_latency(), 0.0);
        assert_eq!(r.write_latency_quantile(0.5), None);
    }

    #[test]
    fn histogram_buckets_by_log2_and_merges() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        assert_eq!(h.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(h.buckets[1], 1, "1 lands in [1,1]");
        assert_eq!(h.buckets[2], 2, "2..=3 land in [2,3]");
        assert_eq!(h.buckets[3], 1, "4 lands in [4,7]");
        assert_eq!(h.count(), 5);
        let mut other = LatencyHistogram::default();
        other.record(u64::MAX); // clamps into the last bucket
        assert_eq!(other.buckets[LATENCY_BUCKETS - 1], 1);
        h.merge(&other);
        assert_eq!(h.count(), 6);
        assert_eq!(LatencyHistogram::bucket_bounds(0), (0, 0));
        assert_eq!(LatencyHistogram::bucket_bounds(3), (4, 7));
    }

    #[test]
    fn quantiles_walk_the_buckets_deterministically() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantile");
        // 90 samples at latency 32 (bucket [32,63]), 10 at 1000 ([512,1023]).
        for _ in 0..90 {
            h.record(32);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.quantile(0.5), Some(63));
        assert_eq!(h.quantile(0.90), Some(63));
        assert_eq!(h.quantile(0.95), Some(1023));
        assert_eq!(h.quantile(0.999), Some(1023));
        assert_eq!(h.quantile(0.0), Some(63), "q=0 is the first sample");
        assert_eq!(h.quantile(1.0), Some(1023));
        // SimResult aggregates across channels before extracting.
        let mut r = result(vec![1.0]);
        r.channel_stats[0].read_lat_hist = h;
        r.channel_stats.push(ChannelStats {
            read_lat_hist: h,
            ..ChannelStats::default()
        });
        let agg = r.read_latency_histogram();
        assert_eq!(agg.count(), 200);
        assert_eq!(r.read_latency_quantile(0.99), Some(1023));
    }

    #[test]
    fn data_bus_utilization_is_per_channel_busy_fraction() {
        let mut r = result(vec![1.0]);
        assert_eq!(r.data_bus_utilization(), vec![0.0]);
        r.channel_stats[0].data_bus_busy = 75;
        r.channel_stats.push(ChannelStats {
            data_bus_busy: 150,
            ..ChannelStats::default()
        });
        let util = r.data_bus_utilization();
        assert!((util[0] - 0.2).abs() < 1e-12, "{util:?}");
        assert!((util[1] - 0.4).abs() < 1e-12, "{util:?}");
        // A zero-length run reports zeros, never NaN.
        r.mem_cycles = 0;
        assert!(r.data_bus_utilization().iter().all(|&u| u == 0.0));
    }
}
