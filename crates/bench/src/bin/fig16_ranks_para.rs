//! Fig. 16: rank-count sweep for PARA with and without HiRA — one engine
//! sweep over `NRH × scheme × ranks` plus one no-defense baseline point
//! (the rank twin of Fig. 15; see [`hira_bench::Figure::GeometryPara`]).

use hira_bench::{Figure, Geometry};

fn main() {
    Figure::GeometryPara(Geometry::Ranks).main();
}
