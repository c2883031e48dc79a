//! Fig. 16: rank-count sweep for PARA with and without HiRA — one engine
//! sweep over `NRH × scheme × ranks` plus one no-defense baseline point
//! (the rank twin of Fig. 15; see [`hira_bench::presets::geometry_para`]).

use hira_bench::presets::geometry_para;
use hira_bench::Geometry;

fn main() {
    geometry_para(
        16,
        "fig16_ranks_para",
        Geometry::Ranks,
        "(paper: HiRA-2/4 improve over PARA by 30.5 %/42.9 % even at 8 ranks, NRH=64)",
    );
}
