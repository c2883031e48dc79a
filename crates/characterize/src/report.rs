//! Plain-text rendering of tables and figure series for the bench binaries.

use crate::coverage::CoverageGridPoint;
use crate::modules::ModuleCharacterization;
use std::fmt::Write as _;

/// Renders Table 1/Table 4 (module summary with coverage and normalized NRH).
pub fn render_table1(rows: &[ModuleCharacterization]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<6} {:<10} {:>5} {:>4} {:>8}   {:>24}   {:>24}   {:<5}",
        "Module",
        "Vendor",
        "Cap",
        "Die",
        "Date",
        "HiRA Cov (min/avg/max)",
        "Norm NRH (min/avg/max)",
        "HiRA?"
    );
    let _ = writeln!(s, "{}", "-".repeat(104));
    for m in rows {
        let _ = writeln!(
            s,
            "{:<6} {:<10} {:>4}Gb {:>4} {:>5}-{:<2}   {:>6.1}% /{:>5.1}% /{:>5.1}%   {:>6.2} /{:>6.2} /{:>6.2}   {:<5}",
            m.label,
            m.dimm_vendor,
            m.chip_gbit,
            m.die_rev,
            m.date_code.0,
            m.date_code.1 % 100,
            m.coverage.min * 100.0,
            m.coverage.mean * 100.0,
            m.coverage.max * 100.0,
            m.norm_nrh.min,
            m.norm_nrh.mean,
            m.norm_nrh.max,
            if m.hira_capable { "yes" } else { "no" },
        );
    }
    s
}

/// Renders the Fig. 4 grid as a table of box summaries.
pub fn render_figure4(grid: &[CoverageGridPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>5} {:>5}   {:>7} {:>7} {:>7} {:>7} {:>7}",
        "t1", "t2", "min", "q1", "median", "q3", "max"
    );
    let _ = writeln!(s, "{}", "-".repeat(56));
    for p in grid {
        let b = &p.stats;
        let _ = writeln!(
            s,
            "{:>4.1}n {:>4.1}n   {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            p.hira.t1,
            p.hira.t2,
            b.min * 100.0,
            b.q1 * 100.0,
            b.median * 100.0,
            b.q3 * 100.0,
            b.max * 100.0
        );
    }
    s
}

/// Renders a histogram as `center  fraction  bar`.
pub fn render_histogram(title: &str, series: &[(f64, f64)], scale: f64) -> String {
    let mut s = format!("{title}\n");
    for &(center, frac) in series {
        let bar = "#".repeat((frac * 200.0).round() as usize);
        let _ = writeln!(s, "{:>12.1}  {:>6.3}  {}", center / scale, frac, bar);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::BoxStats;

    fn fake_module(label: &str) -> ModuleCharacterization {
        ModuleCharacterization {
            label: label.to_owned(),
            dimm_vendor: "Test".to_owned(),
            chip_gbit: 4.0,
            die_rev: 'F',
            date_code: (51, 2020),
            coverage: BoxStats::from_samples(&[0.25, 0.32, 0.40]),
            norm_nrh: BoxStats::from_samples(&[1.7, 1.9, 2.2]),
            abs_nrh_without: vec![27_000.0],
            abs_nrh_with: vec![51_000.0],
            hira_capable: true,
        }
    }

    #[test]
    fn table1_contains_all_modules() {
        let out = render_table1(&[fake_module("A0"), fake_module("C2")]);
        assert!(out.contains("A0") && out.contains("C2"));
        assert!(out.contains("yes"));
    }

    #[test]
    fn histogram_renders_bars() {
        let out = render_histogram("h", &[(10_000.0, 0.5), (20_000.0, 0.5)], 1_000.0);
        assert!(out.contains('#'));
        assert!(out.lines().count() >= 3);
    }
}
