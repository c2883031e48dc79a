//! Fig. 13: channel-count sweep (1-8) for periodic refresh at 2/8/32 Gb —
//! one engine sweep over `capacity × scheme × channels` (the channel twin
//! of Fig. 14; see [`hira_bench::Figure::GeometryPeriodic`]).

use hira_bench::{Figure, Geometry};

fn main() {
    Figure::GeometryPeriodic(Geometry::Channels).main();
}
