//! Fig. 14: rank-count sweep (1-8, shared command bus) for periodic refresh
//! — one engine sweep over `capacity × scheme × ranks` (the rank twin of
//! Fig. 13; see [`hira_bench::presets::geometry_periodic`]).

use hira_bench::presets::geometry_periodic;
use hira_bench::Geometry;

fn main() {
    geometry_periodic(
        14,
        "fig14_ranks_periodic",
        Geometry::Ranks,
        "(paper: 1->2 ranks helps; beyond 2 the shared command bus erodes gains; HiRA stays ahead)",
    );
}
