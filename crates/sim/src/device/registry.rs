//! The device axis: the bridge between CLI/sweep axes
//! (`--device=lpddr4-3200`) and [`DeviceHandle`]s.

use super::{ddr4_2400, ddr4_2400_at, ddr4_3200, lpddr4_3200, samsung_ddr4_2400, DeviceHandle};
use hira_engine::registry::{named, numeral, Form, Registry};

/// The string-keyed device registry (see [`hira_engine::Registry`]).
pub type DeviceRegistry = Registry<DeviceHandle>;

// The device axis. Its standard handles are the Table 3 part (first),
// the two 3200 MT/s standards and the HiRA-inert comparison part.
hira_engine::axis!(
    DeviceHandle,
    "device",
    || vec![ddr4_2400(), ddr4_3200(), lpddr4_3200(), samsung_ddr4_2400()],
    &[Form {
        grammar: "ddr4-2400@<Gb>",
        summary: "the DDR4-2400 part pinned at <Gb> >= 1 (tRFC fixed)",
        example: "ddr4-2400@32",
        parse: |name| {
            numeral(name, "ddr4-2400@")
                .and_then(|gbit| u32::try_from(gbit).ok())
                .filter(|&gbit| gbit > 0)
                .map(ddr4_2400_at)
        },
    }],
    None,
);

/// Resolves `name` against the standard registry.
///
/// # Panics
///
/// Panics when `name` does not resolve — a typo'd `--device=` axis is a
/// usage error, not a recoverable state.
pub fn device(name: &str) -> DeviceHandle {
    named(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_ships_at_least_four_presets() {
        let r = DeviceRegistry::standard();
        assert!(r.len() >= 4, "need >= 4 presets, have {}", r.len());
        for name in ["ddr4-2400", "ddr4-3200", "lpddr4-3200", "samsung-ddr4-2400"] {
            assert!(r.lookup(name).is_some(), "{name} missing");
        }
        // Registration order is preserved (the Table 3 part leads).
        assert_eq!(r.names()[0], "ddr4-2400");
    }

    #[test]
    fn capacity_form_resolves_dynamically_and_canonically() {
        let r = DeviceRegistry::standard();
        assert_eq!(r.lookup("ddr4-2400@32").unwrap().name(), "ddr4-2400@32");
        assert_eq!(r.lookup("ddr4-2400@7").unwrap().name(), "ddr4-2400@7");
        assert!(
            r.lookup("ddr4-2400@032").is_none(),
            "non-canonical spelling"
        );
        assert!(r.lookup("ddr4-2400@0").is_none());
        assert!(r.lookup("ddr4-2400@x").is_none());
        assert!(r.lookup("nope").is_none());
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = DeviceRegistry::default();
        r.register(super::ddr4_2400());
        r.register(super::ddr4_2400());
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown device `definitely-not-a-device`")]
    fn unknown_device_panics_with_the_known_list() {
        let _ = device("definitely-not-a-device");
    }
}
