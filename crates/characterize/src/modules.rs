//! End-to-end per-module characterization (Table 1 / Table 4).

use crate::config::CharacterizeConfig;
use crate::coverage;
use crate::stats::BoxStats;
use crate::verify;
use hira_dram::addr::BankId;
use hira_dram::ModuleSpec;
use hira_softmc::SoftMc;

/// One row of Table 4: coverage and normalized-threshold statistics for a
/// module, plus the absolute thresholds behind Fig. 5a.
#[derive(Debug, Clone)]
pub struct ModuleCharacterization {
    /// Module label ("A0" … "C2").
    pub label: String,
    /// DIMM vendor string.
    pub dimm_vendor: String,
    /// Chip capacity in Gb.
    pub chip_gbit: f64,
    /// Die revision.
    pub die_rev: char,
    /// Manufacturing date code `(week, year)`.
    pub date_code: (u8, u16),
    /// HiRA coverage distribution across tested rows (min/avg/max in Table 4).
    pub coverage: BoxStats,
    /// Normalized RowHammer threshold distribution (Table 4).
    pub norm_nrh: BoxStats,
    /// Absolute thresholds measured without HiRA (Fig. 5a, "without").
    pub abs_nrh_without: Vec<f64>,
    /// Absolute thresholds measured with HiRA (Fig. 5a, "with").
    pub abs_nrh_with: Vec<f64>,
    /// Whether the module supports HiRA (§4.3 verdict: the second activation
    /// is demonstrably not ignored).
    pub hira_capable: bool,
}

/// Characterizes one module on bank 0 (the paper's default bank).
pub fn characterize_module(spec: ModuleSpec, cfg: &CharacterizeConfig) -> ModuleCharacterization {
    let label = spec.label.clone();
    let dimm_vendor = spec.dimm_vendor.clone();
    let chip_gbit = spec.geometry.chip_gbit();
    let die_rev = spec.die_rev;
    let date_code = spec.date_code;

    let mut mc = SoftMc::new(spec);
    let bank = BankId(0);

    let cov = coverage::measure(&mut mc, bank, cfg);
    let nrh = verify::measure_many(&mut mc, bank, cfg);
    let norms: Vec<f64> = nrh.iter().map(verify::NrhMeasurement::normalized).collect();
    let abs_without: Vec<f64> = nrh.iter().map(|m| f64::from(m.without_hira)).collect();
    let abs_with: Vec<f64> = nrh.iter().map(|m| f64::from(m.with_hira)).collect();
    let norm_stats = BoxStats::from_samples(&norms);

    ModuleCharacterization {
        label,
        dimm_vendor,
        chip_gbit,
        die_rev,
        date_code,
        coverage: cov.stats(),
        norm_nrh: norm_stats,
        abs_nrh_without: abs_without,
        abs_nrh_with: abs_with,
        // The §4.3 criterion: a real second activation raises the measured
        // threshold well above the baseline for the vast majority of rows.
        hira_capable: norm_stats.median > 1.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CharacterizeConfig {
        CharacterizeConfig {
            rows_per_region: 24,
            row_a_stride: 3,
            row_b_stride: 2,
            nrh_victims: 8,
            ..CharacterizeConfig::fast()
        }
    }

    #[test]
    fn c0_lands_in_its_table4_band() {
        let m = characterize_module(ModuleSpec::c0(), &quick_cfg());
        // At this scale the structural exclusion factor is 2/3, so the
        // Table 4 average of 35.3 % maps to ≈ 0.447 × 2/3 ≈ 0.30.
        assert!(
            (0.22..=0.38).contains(&m.coverage.mean),
            "C0 coverage mean {}",
            m.coverage.mean
        );
        assert!(
            (1.6..=2.2).contains(&m.norm_nrh.mean),
            "C0 normalized NRH mean {}",
            m.norm_nrh.mean
        );
        assert!(m.hira_capable);
    }

    #[test]
    fn a0_coverage_sits_below_c1_coverage() {
        // Table 4 ordering: A0 has the lowest coverage (25.0 %), C1 the
        // highest (38.4 %).
        let a0 = characterize_module(ModuleSpec::a0(), &quick_cfg());
        let c1 = characterize_module(ModuleSpec::c1(), &quick_cfg());
        assert!(
            a0.coverage.mean + 0.04 < c1.coverage.mean,
            "A0 {} vs C1 {}",
            a0.coverage.mean,
            c1.coverage.mean
        );
    }

    #[test]
    fn micron_module_is_flagged_hira_incapable() {
        let m = characterize_module(ModuleSpec::micron_4gb(5), &quick_cfg());
        assert!(
            !m.hira_capable,
            "normalized NRH median {}",
            m.norm_nrh.median
        );
    }
}
