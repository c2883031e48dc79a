//! The Subarray Pairs Table (§5.1.4).
//!
//! The memory controller must know whether two rows can be HiRA-activated
//! concurrently. The paper proposes learning the isolation structure either
//! by one-time reverse engineering (running §4.2's coverage test) or from
//! manufacturer-provided mode status registers. The SPT caches that
//! knowledge on-chip.
//!
//! Two fidelity levels are provided:
//!
//! * [`Spt::from_map`] — "MSR" mode: the full row-pair predicate (what a
//!   manufacturer could expose); exact.
//! * [`Spt::probabilistic`] — a synthetic predicate with a given
//!   compatibility fraction, for simulator configurations whose geometry has
//!   no characterized module (e.g. projected 128 Gb chips). The paper's
//!   evaluation assumes exactly this: "a refresh to a DRAM row can be served
//!   concurrently with a refresh or an access to 32 % of the rows within the
//!   same DRAM bank" (§7).

use hira_dram::addr::RowId;
use hira_dram::isolation::IsolationMap;

/// The controller's isolation knowledge.
#[derive(Debug, Clone)]
pub struct Spt {
    source: Source,
}

#[derive(Debug, Clone)]
enum Source {
    Map(IsolationMap),
    Probabilistic {
        seed: u64,
        fraction: f64,
        rows_per_subarray: u32,
    },
}

impl Spt {
    /// Builds the SPT from a characterized module's isolation map.
    pub fn from_map(map: IsolationMap) -> Self {
        Spt {
            source: Source::Map(map),
        }
    }

    /// Builds a synthetic SPT where a row pair is compatible with the given
    /// probability (§7's 32 % evaluation assumption), except within the same
    /// or adjacent subarrays.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1)`.
    pub fn probabilistic(seed: u64, fraction: f64, rows_per_subarray: u32) -> Self {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0,1)"
        );
        assert!(rows_per_subarray > 0);
        Spt {
            source: Source::Probabilistic {
                seed,
                fraction,
                rows_per_subarray,
            },
        }
    }

    /// Whether `a` and `b` can be concurrently activated by HiRA.
    pub fn compatible(&self, a: RowId, b: RowId) -> bool {
        match &self.source {
            Source::Map(map) => map.isolated(a, b),
            Source::Probabilistic {
                seed,
                fraction,
                rows_per_subarray,
            } => {
                let sa = a.0 / rows_per_subarray;
                let sb = b.0 / rows_per_subarray;
                if sa.abs_diff(sb) <= 1 {
                    return false;
                }
                let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
                hira_dram::rng::unit_at(&[*seed, 0x5054, u64::from(lo), u64::from(hi)]) < *fraction
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_mode_mirrors_the_module() {
        let map = IsolationMap::new(9, 32 * 1024, 512, 0.32, 0.02);
        let spt = Spt::from_map(map.clone());
        for i in 0..500u32 {
            let a = RowId(i * 37 % 32768);
            let b = RowId(i * 8191 % 32768);
            assert_eq!(spt.compatible(a, b), map.isolated(a, b));
        }
    }

    #[test]
    fn probabilistic_mode_tracks_fraction() {
        let spt = Spt::probabilistic(3, 0.32, 512);
        let mut hits = 0;
        let mut probes = 0;
        for i in 0..4000u32 {
            let a = RowId(i * 131 % 65536);
            let b = RowId((i * 52_711 + 9000) % 65536);
            if (a.0 / 512).abs_diff(b.0 / 512) <= 1 {
                continue;
            }
            probes += 1;
            if spt.compatible(a, b) {
                hits += 1;
            }
        }
        let frac = f64::from(hits) / f64::from(probes);
        assert!((frac - 0.32).abs() < 0.03, "fraction {frac}");
    }

    #[test]
    fn probabilistic_mode_excludes_neighbor_subarrays() {
        let spt = Spt::probabilistic(3, 0.9, 512);
        assert!(!spt.compatible(RowId(0), RowId(100)));
        assert!(!spt.compatible(RowId(0), RowId(600)));
    }

    #[test]
    fn probabilistic_is_symmetric() {
        let spt = Spt::probabilistic(11, 0.32, 512);
        for i in 0..200u32 {
            let a = RowId(i * 977 % 65536);
            let b = RowId(i * 3457 % 65536);
            assert_eq!(spt.compatible(a, b), spt.compatible(b, a));
        }
    }
}
