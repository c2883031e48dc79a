//! DDR4 timing parameters (in nanoseconds) and the HiRA timing pair.
//!
//! Values follow the paper's Table 3 and §2.2/§3: DDR4-2400 with
//! `tRC = 46.25 ns`, `tRAS = 32 ns`, `tRP = 14.25 ns`, `tFAW = 16 ns`,
//! and HiRA's customized `t1`/`t2` (3 ns each in the best configuration).
//! The refresh latency `tRFC` scales with chip capacity per the paper's
//! Expression (1): `tRFC = 110 × C_chip^0.6` ns.

use crate::decimal;
use std::cell::RefCell;

/// Full set of DDR4 timing parameters used by the controller and benches.
///
/// All fields are in nanoseconds. The set is deliberately flat and public in
/// the C-struct spirit: it is passive configuration data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingParams {
    /// Command clock period (DDR4-2400 ⇒ 0.8333 ns).
    pub t_ck: f64,
    /// ACT → column command (row-activation latency).
    pub t_rcd: f64,
    /// ACT → PRE (charge-restoration latency).
    pub t_ras: f64,
    /// PRE → ACT (precharge latency).
    pub t_rp: f64,
    /// ACT → ACT, same bank (row cycle); `>= t_ras + t_rp`.
    pub t_rc: f64,
    /// ACT → ACT, different banks, same bank group.
    pub t_rrd_l: f64,
    /// ACT → ACT, different banks, different bank groups.
    pub t_rrd_s: f64,
    /// Four-activation window (per rank).
    pub t_faw: f64,
    /// RD → RD, same bank group.
    pub t_ccd_l: f64,
    /// RD → RD, different bank groups.
    pub t_ccd_s: f64,
    /// CAS (read) latency.
    pub t_cl: f64,
    /// CAS write latency.
    pub t_cwl: f64,
    /// Burst duration on the data bus (BL8 at DDR ⇒ 4 command clocks).
    pub t_bl: f64,
    /// Write recovery: end of write burst → PRE.
    pub t_wr: f64,
    /// Write → read turnaround, same rank.
    pub t_wtr: f64,
    /// Read → PRE.
    pub t_rtp: f64,
    /// REF → next command to the rank (all-bank refresh latency).
    pub t_rfc: f64,
    /// Average periodic-refresh interval.
    pub t_refi: f64,
    /// Refresh window: every row must be refreshed once per window.
    pub t_refw: f64,
}

/// How many distinct timing tables [`TimingParams::write_cache_descriptor`]
/// keeps rendered per thread: a sweep has one per device and capacity, and
/// each entry is about 0.5 KB.
const RENDERED_TABLES: usize = 8;

impl TimingParams {
    /// Every field with its descriptor name, in descriptor order. The
    /// exhaustive destructuring stops compiling when the struct grows, so
    /// a new field cannot be left out of the cache identity silently.
    fn named_fields(&self) -> [(&'static str, f64); 19] {
        let TimingParams {
            t_ck,
            t_rcd,
            t_ras,
            t_rp,
            t_rc,
            t_rrd_l,
            t_rrd_s,
            t_faw,
            t_ccd_l,
            t_ccd_s,
            t_cl,
            t_cwl,
            t_bl,
            t_wr,
            t_wtr,
            t_rtp,
            t_rfc,
            t_refi,
            t_refw,
        } = *self;
        [
            ("tCK", t_ck),
            ("tRCD", t_rcd),
            ("tRAS", t_ras),
            ("tRP", t_rp),
            ("tRC", t_rc),
            ("tRRDL", t_rrd_l),
            ("tRRDS", t_rrd_s),
            ("tFAW", t_faw),
            ("tCCDL", t_ccd_l),
            ("tCCDS", t_ccd_s),
            ("tCL", t_cl),
            ("tCWL", t_cwl),
            ("tBL", t_bl),
            ("tWR", t_wr),
            ("tWTR", t_wtr),
            ("tRTP", t_rtp),
            ("tRFC", t_rfc),
            ("tREFI", t_refi),
            ("tREFW", t_refw),
        ]
    }

    /// Appends a canonical, exhaustive rendering of every timing field,
    /// `tCK=0.8333;tRCD=14.25;...;tREFW=64000000` (each value as `Display`
    /// writes it, the shortest decimal that parses back to it) — the
    /// timing portion of a simulation's cache identity.
    ///
    /// A sweep renders the same few tables over and over (one per device
    /// and capacity), so each thread keeps its last eight renderings,
    /// keyed by the fields' exact bit patterns: `-0.0` and `0.0`, each NaN
    /// payload and two values one ulp apart are distinct keys, and a hit
    /// appends exactly the bytes a fresh rendering would.
    pub fn write_cache_descriptor(&self, out: &mut String) {
        thread_local! {
            static RENDERED: RefCell<Vec<([u64; 19], String)>> = const { RefCell::new(Vec::new()) };
        }
        let fields = self.named_fields();
        let bits = fields.map(|(_, v)| v.to_bits());
        RENDERED.with_borrow_mut(|rendered| {
            if let Some((_, text)) = rendered.iter().rev().find(|(key, _)| *key == bits) {
                out.push_str(text);
                return;
            }
            let mut text = String::with_capacity(320);
            for (i, (name, v)) in fields.into_iter().enumerate() {
                if i > 0 {
                    text.push(';');
                }
                text.push_str(name);
                text.push('=');
                decimal::write_f64(&mut text, v);
            }
            out.push_str(&text);
            if rendered.len() == RENDERED_TABLES {
                rendered.remove(0);
            }
            rendered.push((bits, text));
        });
    }

    /// DDR4-2400 parameters for a 4 Gb chip (the characterization default),
    /// matching the paper's Table 3 and JESD79-4 values.
    pub fn ddr4_2400() -> Self {
        TimingParams {
            t_ck: 0.8333,
            t_rcd: 14.25,
            t_ras: 32.0,
            t_rp: 14.25,
            t_rc: 46.25,
            t_rrd_l: 4.9,
            t_rrd_s: 3.3,
            t_faw: 16.0,
            t_ccd_l: 5.0,
            t_ccd_s: 3.333,
            t_cl: 14.25,
            t_cwl: 10.0,
            t_bl: 3.333,
            t_wr: 15.0,
            t_wtr: 7.5,
            t_rtp: 7.5,
            t_rfc: 260.0,
            t_refi: 7800.0,
            t_refw: 64_000_000.0,
        }
    }

    /// Same as [`TimingParams::ddr4_2400`] but with `tRFC` projected for the
    /// given chip capacity (in gigabits) using the paper's Expression (1).
    pub fn ddr4_2400_with_capacity(chip_gbit: f64) -> Self {
        let mut t = Self::ddr4_2400();
        t.t_rfc = trfc_for_capacity(chip_gbit);
        t
    }

    /// DDR4-3200 parameters (JESD79-4, speed bin 3200AA). The faster
    /// command clock (1.6 GHz) tightens most ns-denominated parameters
    /// slightly while the analog core (`tRAS`, charge restoration) stays
    /// put — which is exactly why the refresh/demand interference balance
    /// shifts across speed bins.
    pub fn ddr4_3200() -> Self {
        TimingParams {
            t_ck: 0.625,
            t_rcd: 13.75,
            t_ras: 32.0,
            t_rp: 13.75,
            t_rc: 45.75,
            t_rrd_l: 4.9,
            t_rrd_s: 2.5,
            t_faw: 13.125,
            t_ccd_l: 5.0,
            t_ccd_s: 2.5,
            t_cl: 13.75,
            t_cwl: 10.0,
            t_bl: 2.5,
            t_wr: 15.0,
            t_wtr: 7.5,
            t_rtp: 7.5,
            t_rfc: 260.0,
            t_refi: 7800.0,
            t_refw: 64_000_000.0,
        }
    }

    /// LPDDR4-3200 parameters (JESD209-4). The mobile standard trades a
    /// slower analog core (`tRC = 60 ns`) for *native per-bank refresh*:
    /// `REFpb` is a first-class command with `tRFCpb = tRFC/2`, and the
    /// refresh window is 32 ms — double DDR4's periodic-refresh rate.
    /// Geometry differs too: 8 banks, no bank groups (`tCCD`/`tRRD` have a
    /// single value each).
    pub fn lpddr4_3200() -> Self {
        TimingParams {
            t_ck: 0.625,
            t_rcd: 18.0,
            t_ras: 42.0,
            t_rp: 18.0,
            t_rc: 60.0,
            t_rrd_l: 10.0,
            t_rrd_s: 10.0,
            t_faw: 40.0,
            t_ccd_l: 5.0,
            t_ccd_s: 5.0,
            t_cl: 17.5,
            t_cwl: 8.75,
            t_bl: 2.5,
            t_wr: 18.0,
            t_wtr: 10.0,
            t_rtp: 7.5,
            t_rfc: 280.0,
            t_refi: 3904.0,
            t_refw: 32_000_000.0,
        }
    }

    /// Latency of refreshing two rows back-to-back with nominal commands:
    /// `tRAS + tRP + tRAS` (§3 footnote 2) = 78.25 ns at DDR4-2400.
    pub fn two_row_refresh_ns(&self) -> f64 {
        self.t_ras + self.t_rp + self.t_ras
    }
}

/// The paper's Expression (1): `tRFC = 110 × C_chip^0.6` ns, `C_chip` in Gb.
///
/// This is the state-of-the-art regression model \[124\] the paper uses to
/// project refresh latency for future high-capacity chips.
pub fn trfc_for_capacity(chip_gbit: f64) -> f64 {
    assert!(chip_gbit > 0.0, "chip capacity must be positive");
    110.0 * chip_gbit.powf(0.6)
}

/// HiRA's two custom timing parameters (§3, Fig. 2).
///
/// `t1` is the first-`ACT` → `PRE` gap, `t2` the `PRE` → second-`ACT` gap.
/// SoftMC on the Alveo U200 can place commands on a 1.5 ns grid (§4.1 fn. 5),
/// so the experimentally swept values are multiples of 1.5 ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HiraTimings {
    /// First ACT → PRE latency in ns.
    pub t1: f64,
    /// PRE → second ACT latency in ns.
    pub t2: f64,
}

impl HiraTimings {
    /// The best configuration found in §4.2: `t1 = t2 = 3 ns`.
    pub fn nominal() -> Self {
        HiraTimings { t1: 3.0, t2: 3.0 }
    }

    /// Total added latency before the second row's activation begins.
    pub fn lead_ns(&self) -> f64 {
        self.t1 + self.t2
    }

    /// Latency of refreshing two rows with HiRA: `t1 + t2 + tRAS`
    /// (= 38 ns at the nominal configuration, §4.2).
    pub fn two_row_refresh_ns(&self, timing: &TimingParams) -> f64 {
        self.lead_ns() + timing.t_ras
    }

    /// The grid of `t1`/`t2` values swept in Fig. 4.
    pub fn figure4_grid() -> Vec<HiraTimings> {
        let steps = [1.5, 3.0, 4.5, 6.0];
        let mut out = Vec::with_capacity(16);
        for &t1 in &steps {
            for &t2 in &steps {
                out.push(HiraTimings { t1, t2 });
            }
        }
        out
    }
}

impl Default for HiraTimings {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_is_internally_consistent() {
        let t = TimingParams::ddr4_2400();
        assert!(t.t_rc >= t.t_ras + t.t_rp);
        assert!((t.t_rc - 46.25).abs() < 1e-9);
        assert!((t.t_ras - 32.0).abs() < 1e-9);
    }

    #[test]
    fn two_row_nominal_latency_matches_paper() {
        let t = TimingParams::ddr4_2400();
        assert!((t.two_row_refresh_ns() - 78.25).abs() < 1e-9);
    }

    #[test]
    fn hira_two_row_latency_matches_paper() {
        let t = TimingParams::ddr4_2400();
        let h = HiraTimings::nominal();
        assert!((h.two_row_refresh_ns(&t) - 38.0).abs() < 1e-9);
        // Headline claim: 51.4% reduction (§1, §4.2).
        let reduction = 1.0 - h.two_row_refresh_ns(&t) / t.two_row_refresh_ns();
        assert!((reduction - 0.514).abs() < 0.002, "reduction {reduction}");
    }

    #[test]
    fn ddr4_3200_tightens_the_grid_but_not_the_core() {
        let slow = TimingParams::ddr4_2400();
        let fast = TimingParams::ddr4_3200();
        assert!(fast.t_ck < slow.t_ck);
        // The analog charge-restoration core is speed-bin independent.
        assert!((fast.t_ras - slow.t_ras).abs() < 1e-9);
        assert!(fast.t_rc >= fast.t_ras + fast.t_rp);
        assert!(fast.t_faw >= 4.0 * fast.t_rrd_s);
    }

    #[test]
    fn lpddr4_is_per_bank_refresh_shaped() {
        let t = TimingParams::lpddr4_3200();
        assert!(t.t_rc >= t.t_ras + t.t_rp);
        assert!(t.t_faw >= 4.0 * t.t_rrd_s);
        // 32 ms window: double DDR4's periodic-refresh rate.
        assert!((TimingParams::ddr4_2400().t_refw / t.t_refw - 2.0).abs() < 1e-9);
        assert!(t.t_rfc < t.t_refi);
    }

    #[test]
    fn trfc_scaling_matches_expression_1() {
        // 8 Gb: 110 * 8^0.6 = 382.9 ns; 128 Gb: ~2023 ns.
        assert!((trfc_for_capacity(8.0) - 110.0 * 8f64.powf(0.6)).abs() < 1e-9);
        let v = trfc_for_capacity(128.0);
        assert!(v > 2000.0 && v < 2050.0, "tRFC(128Gb) = {v}");
        // Monotone in capacity.
        assert!(trfc_for_capacity(16.0) > trfc_for_capacity(8.0));
    }

    #[test]
    fn figure4_grid_is_the_full_cartesian_product() {
        let grid = HiraTimings::figure4_grid();
        assert_eq!(grid.len(), 16);
        assert!(grid.iter().any(|h| h.t1 == 1.5 && h.t2 == 6.0));
        assert!(grid.iter().any(|h| h.t1 == 3.0 && h.t2 == 3.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn trfc_rejects_nonpositive_capacity() {
        trfc_for_capacity(0.0);
    }
}
