//! The refresh-policy axis: the bridge between CLI/sweep axes
//! (`--policy=hira4`) and [`PolicyHandle`]s.

use super::{baseline, hira, noref, raidr, refpb, PolicyHandle};
use hira_engine::registry::{named, numeral, Form, Registry};

/// The string-keyed policy registry (see [`hira_engine::Registry`]).
pub type PolicyRegistry = Registry<PolicyHandle>;

// The policy axis. Its standard handles are the paper's three
// arrangements plus the related-work policies the open API enables, with
// `noref` (the bound) first.
hira_engine::axis!(
    PolicyHandle,
    "policy",
    || {
        let mut handles = vec![noref(), baseline(), refpb(), raidr()];
        handles.extend([0, 2, 4, 8].map(hira));
        handles
    },
    &[Form {
        grammar: "hira<N>",
        summary: "per-row refresh through HiRA-MC at any slack point: tRefSlack = N*tRC",
        example: "hira3",
        parse: |name| {
            numeral(name, "hira")
                .and_then(|n| u32::try_from(n).ok())
                .map(hira)
        },
    }],
    None,
);

/// Resolves `name` against the standard registry.
///
/// # Panics
///
/// Panics when `name` does not resolve — a typo'd `--policy=` axis is a
/// usage error, not a recoverable state.
pub fn policy(name: &str) -> PolicyHandle {
    named(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_the_matrix_policies() {
        let r = PolicyRegistry::standard();
        for name in [
            "noref", "baseline", "refpb", "raidr", "hira0", "hira2", "hira4", "hira8",
        ] {
            assert!(r.lookup(name).is_some(), "{name} missing");
        }
        assert!(r.len() >= 5, "policy_matrix needs at least 5 policies");
        // Registration order is preserved (noref leads, as the bound).
        assert_eq!(r.names()[0], "noref");
    }

    #[test]
    fn hira_n_resolves_dynamically() {
        let r = PolicyRegistry::standard();
        assert_eq!(r.lookup("hira3").unwrap().name(), "hira3");
        assert!(r.lookup("hiraX").is_none());
        assert!(r.lookup("nope").is_none());
        // Only the canonical numeral names a slack point: `hira04` and
        // `hira+4` would label a second cell that runs `hira4`.
        for bad in ["hira04", "hira+4", "hira", "hira4294967296"] {
            assert!(r.lookup(bad).is_none(), "{bad} resolved");
        }
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = PolicyRegistry::default();
        r.register(PolicyHandle::new("x", |_| {
            Box::new(super::super::NoRefresh)
        }));
        r.register(PolicyHandle::new("x", |_| {
            Box::new(super::super::NoRefresh)
        }));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown policy `definitely-not-a-policy`")]
    fn unknown_policy_panics_with_the_known_list() {
        let _ = policy("definitely-not-a-policy");
    }
}
