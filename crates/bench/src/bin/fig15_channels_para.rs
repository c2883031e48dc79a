//! Fig. 15: channel-count sweep for PARA with and without HiRA — one engine
//! sweep over `NRH × scheme × channels`, where each scheme's `p_th` depends
//! on the NRH axis (point-dependent expansion), plus one no-defense
//! baseline point (the channel twin of Fig. 16; see
//! [`hira_bench::presets::geometry_para`]).

use hira_bench::presets::geometry_para;
use hira_bench::Geometry;

fn main() {
    geometry_para(
        15,
        "fig15_channels_para",
        Geometry::Channels,
        "(paper: more channels help; HiRA beats PARA at every channel count and gap widens at low NRH)",
    );
}
