//! Fig. 12: PARA preventive-refresh performance vs RowHammer threshold:
//! (a) normalized to a baseline with no RowHammer defense, (b) HiRA's
//! improvement over plain PARA. The `p_th` of each scheme depends on the
//! `NRH` axis, so the scheme axis uses point-dependent expansion (see
//! [`hira_bench::Figure::Para`]).

use hira_bench::Figure;

fn main() {
    Figure::Para.main();
}
