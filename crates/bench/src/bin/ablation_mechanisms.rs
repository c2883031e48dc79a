//! Ablation study: which HiRA-MC mechanism buys what.
//!
//! Runs HiRA-4 on 64 Gb chips with refresh-access and refresh-refresh
//! pairing individually disabled, against the full configuration, the
//! Baseline and the ideal No-Refresh system — one engine sweep over the
//! `scheme` axis, every point a registered-or-custom policy handle (see
//! [`hira_bench::Figure::Ablation`]).

use hira_bench::Figure;

fn main() {
    Figure::Ablation.main();
}
