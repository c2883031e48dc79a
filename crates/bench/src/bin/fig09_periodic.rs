//! Fig. 9: periodic-refresh performance vs chip capacity (2-128 Gb):
//! (a) normalized to the ideal No-Refresh system, (b) normalized to the
//! Baseline (rank-level REF). One engine sweep over `scheme × capacity`
//! (see [`hira_bench::Figure::Periodic`]); `--no-refresh-access` turns
//! refresh-access pairing off on every HiRA point.

use hira_bench::Figure;

fn main() {
    let no_refresh_access = std::env::args().any(|a| a == "--no-refresh-access");
    Figure::Periodic { no_refresh_access }.main();
}
