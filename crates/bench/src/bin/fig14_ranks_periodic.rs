//! Fig. 14: rank-count sweep (1-8, shared command bus) for periodic refresh
//! — one engine sweep over `capacity × scheme × ranks` (the rank twin of
//! Fig. 13; see [`hira_bench::Figure::GeometryPeriodic`]).

use hira_bench::{Figure, Geometry};

fn main() {
    Figure::GeometryPeriodic(Geometry::Ranks).main();
}
