//! Fig. 13: channel-count sweep (1-8) for periodic refresh at 2/8/32 Gb —
//! one engine sweep over `capacity × scheme × channels` (the channel twin
//! of Fig. 14; see [`hira_bench::presets::geometry_periodic`]).

use hira_bench::presets::geometry_periodic;
use hira_bench::Geometry;

fn main() {
    geometry_periodic(
        13,
        "fig13_channels_periodic",
        Geometry::Channels,
        "(paper: performance rises with channels; HiRA > Baseline at every channel count)",
    );
}
