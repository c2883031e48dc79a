//! Distribution summaries for the characterization figures.

/// A box-and-whiskers summary (§4.2 footnote 6): min / Q1 / median / Q3 /
/// max, plus the mean for the tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Smallest observation.
    pub min: f64,
    /// First quartile (median of the lower half).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (median of the upper half).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of observations.
    pub n: usize,
}

impl BoxStats {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize an empty sample");
        let mut xs = samples.to_vec();
        xs.sort_by(|a, b| a.total_cmp(b));
        let n = xs.len();
        let median = median_of(&xs);
        // Quartiles as the medians of the ordered halves (footnote 6).
        let half = n / 2;
        let (q1, q3) = if n == 1 {
            (xs[0], xs[0])
        } else {
            (median_of(&xs[..half]), median_of(&xs[n - half..]))
        };
        BoxStats {
            min: xs[0],
            q1,
            median,
            q3,
            max: xs[n - 1],
            mean: xs.iter().sum::<f64>() / n as f64,
            n,
        }
    }
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// A fixed-width histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "hi must exceed lo");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one observation (out-of-range values clamp to the edge bins).
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let idx = (((x - self.lo) / (self.hi - self.lo)) * bins as f64)
            .floor()
            .clamp(0.0, (bins - 1) as f64) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Adds every observation of a sample.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// `(bin_center, fraction_of_total)` pairs — the normalized histogram the
    /// paper plots in Fig. 5.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let center = self.lo + (i as f64 + 0.5) * width;
                let frac = if self.total == 0 {
                    0.0
                } else {
                    c as f64 / self.total as f64
                };
                (center, frac)
            })
            .collect()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_stats_of_known_sample() {
        let s = BoxStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.median, 4.5);
        assert_eq!(s.q1, 2.5);
        assert_eq!(s.q3, 6.5);
        assert_eq!(s.mean, 4.5);
    }

    #[test]
    fn box_stats_single_value() {
        let s = BoxStats::from_samples(&[3.5]);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.q1, 3.5);
        assert_eq!(s.q3, 3.5);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn box_stats_is_order_invariant() {
        let a = BoxStats::from_samples(&[3.0, 1.0, 2.0]);
        let b = BoxStats::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn box_stats_rejects_empty() {
        BoxStats::from_samples(&[]);
    }

    #[test]
    fn histogram_bins_and_normalizes() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend(&[0.5, 1.5, 2.5, 2.6, 9.9, -3.0, 42.0]);
        let norm = h.normalized();
        assert_eq!(norm.len(), 5);
        assert_eq!(h.total(), 7);
        // Bin 0 holds 0.5, 1.5 and the clamped -3.0.
        assert!((norm[0].1 - 3.0 / 7.0).abs() < 1e-12);
        // Bin centers are mid-bin.
        assert!((norm[0].0 - 1.0).abs() < 1e-12);
        let total_frac: f64 = norm.iter().map(|(_, f)| f).sum();
        assert!((total_frac - 1.0).abs() < 1e-12);
    }
}
