//! Deterministic, allocation-free hashing RNG used to sample per-row analog
//! parameters, weak-cell positions, and corruption masks.
//!
//! The chip model must return *identical* behaviour for identical
//! (module seed, bank, row, …) coordinates across runs and across query
//! orders, which rules out a stateful generator for per-row properties.
//! We therefore derive every sample from a [SplitMix64] hash of the logical
//! coordinates. A small stateful [`Stream`] wrapper is provided for sequences
//! (e.g. drawing many weak-cell positions for one row).
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

/// One round of the SplitMix64 output function.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a sequence of 64-bit words into a single well-mixed word.
#[inline]
pub fn hash_words(words: &[u64]) -> u64 {
    let mut acc = 0x853C_49E6_748F_EA9Bu64;
    for &w in words {
        acc = splitmix64(acc ^ w.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    }
    splitmix64(acc)
}

/// A deterministic stream of pseudo-random values seeded from coordinates.
///
/// Two `Stream`s built from the same words produce the same sequence.
#[derive(Debug, Clone)]
pub struct Stream {
    state: u64,
}

impl Stream {
    /// Creates a stream keyed by the given coordinate words.
    pub fn from_words(words: &[u64]) -> Self {
        Stream {
            state: hash_words(words),
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of uniformity.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiplicative range reduction; bias is negligible for our bounds.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Standard normal via Box-Muller (uses two uniforms, returns one value).
    #[inline]
    pub fn next_normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn next_gauss(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.next_normal()
    }

    /// Log-normal: `exp(N(mu, sigma))`.
    #[inline]
    pub fn next_lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.next_normal()).exp()
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Convenience: a single uniform sample in `[0,1)` keyed by coordinates.
#[inline]
pub fn unit_at(words: &[u64]) -> f64 {
    Stream::from_words(words).next_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn streams_with_same_key_agree() {
        let mut a = Stream::from_words(&[1, 2, 3]);
        let mut b = Stream::from_words(&[1, 2, 3]);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_with_different_keys_disagree() {
        let mut a = Stream::from_words(&[1, 2, 3]);
        let mut b = Stream::from_words(&[1, 2, 4]);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut s = Stream::from_words(&[42]);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut s = Stream::from_words(&[7]);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| s.next_gauss(3.0, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "sd {}", var.sqrt());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut s = Stream::from_words(&[9]);
        for _ in 0..10_000 {
            assert!(s.next_below(37) < 37);
        }
    }

    #[test]
    fn bernoulli_rate_matches_probability() {
        let mut s = Stream::from_words(&[11]);
        let n = 50_000;
        let hits = (0..n).filter(|_| s.next_bool(0.32)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.32).abs() < 0.01, "rate {rate}");
    }
}
