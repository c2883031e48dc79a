//! Fig. 15: channel-count sweep for PARA with and without HiRA — one engine
//! sweep over `NRH × scheme × channels`, where each scheme's `p_th` depends
//! on the NRH axis (point-dependent expansion), plus one no-defense
//! baseline point (the channel twin of Fig. 16; see
//! [`hira_bench::Figure::GeometryPara`]).

use hira_bench::{Figure, Geometry};

fn main() {
    Figure::GeometryPara(Geometry::Channels).main();
}
