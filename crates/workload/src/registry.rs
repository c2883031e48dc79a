//! The workload axis: the bridge between CLI/sweep axes
//! (`--workload=zipf80`) and [`WorkloadHandle`]s.

use crate::generators::{chase, hotspot, open_loop, random, rw, stream, zipf};
use crate::spec::{mix, spec_handle, BENCHMARKS};
use crate::trace::{demo_trace, trace_file};
use crate::WorkloadHandle;
use hira_engine::registry::{named, numeral, Form, Registry};

/// The string-keyed workload registry (see [`hira_engine::Registry`]).
pub type WorkloadRegistry = Registry<WorkloadHandle>;

// The workload axis. Its standard handles cover all three families: the
// first multiprogrammed mixes plus every roster benchmark (synthetic),
// the parametric generators at one setting each, and the embedded
// `demo-trace` replay. A `trace:<path>` name resolves to nothing when the
// file is missing or malformed; [`crate::trace_file`] gives the typed
// [`crate::ParseError`].
hira_engine::axis!(
    WorkloadHandle,
    "workload",
    || {
        let mut handles = vec![
            mix(0),
            mix(1),
            stream(),
            random(),
            chase(),
            hotspot(),
            zipf(80),
            rw(50),
            open_loop(25),
            demo_trace().into_handle("demo-trace"),
        ];
        handles.extend(BENCHMARKS.iter().map(spec_handle));
        handles
    },
    &[
        Form {
            grammar: "mix<N>",
            summary: "multiprogrammed roster mix N of the standard suite",
            example: "mix7",
            parse: |name| numeral(name, "mix").map(|n| mix(n as usize)),
        },
        Form {
            grammar: "zipf<N>",
            summary: "zipfian generator with theta = N/100",
            example: "zipf123",
            parse: |name| {
                numeral(name, "zipf")
                    .and_then(|n| u32::try_from(n).ok())
                    .map(zipf)
            },
        },
        Form {
            grammar: "rw<N>",
            summary: "uniform-random generator with N % stores, N <= 100",
            example: "rw99",
            parse: |name| {
                numeral(name, "rw")
                    .filter(|&n| n <= 100)
                    .map(|n| rw(n as u32))
            },
        },
        Form {
            grammar: "open<N>",
            summary: "open-loop generator at N accesses per kinst, N a divisor of 1000",
            example: "open4",
            parse: |name| {
                numeral(name, "open")
                    .filter(|&n| (1..=1000).contains(&n) && 1000 % n == 0)
                    .map(|n| open_loop(n as u32))
            },
        },
        Form {
            grammar: "trace:<path>",
            summary: "replay of the .trace file at <path>",
            example: "trace:crates/workload/data/demo.trace",
            parse: |name| trace_file(name.strip_prefix("trace:")?).ok(),
        },
    ],
    None,
);

/// Resolves `name` against the standard registry.
///
/// # Panics
///
/// Panics when `name` does not resolve — a typo'd `--workload=` axis is a
/// usage error, not a recoverable state. A `trace:` form that fails to
/// load panics with the typed parse error's message.
pub fn workload(name: &str) -> WorkloadHandle {
    if let Some(path) = name.strip_prefix("trace:") {
        return trace_file(path).unwrap_or_else(|e| panic!("--workload={name}: {e}"));
    }
    named(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Family;

    #[test]
    fn standard_registry_covers_all_three_families() {
        let r = WorkloadRegistry::standard();
        let family_of = |name: &str| r.lookup(name).map(|h| h.family());
        assert_eq!(family_of("mix0"), Some(Family::Synthetic));
        assert_eq!(family_of("mcf"), Some(Family::Synthetic));
        assert_eq!(family_of("stream"), Some(Family::Generator));
        assert_eq!(family_of("demo-trace"), Some(Family::Trace));
        // Every roster benchmark is individually addressable.
        for b in BENCHMARKS {
            assert!(r.lookup(b.name).is_some(), "{} missing", b.name);
        }
        assert!(r.len() >= 30);
        assert_eq!(r.names()[0], "mix0");
    }

    #[test]
    fn parameterized_names_resolve_dynamically() {
        let r = WorkloadRegistry::standard();
        assert_eq!(r.lookup("mix37").unwrap().name(), "mix37");
        assert_eq!(r.lookup("zipf123").unwrap().name(), "zipf123");
        assert_eq!(r.lookup("rw99").unwrap().name(), "rw99");
        assert_eq!(r.lookup("open4").unwrap().name(), "open4");
        // Out-of-domain parameters and unknown names do not resolve.
        assert!(r.lookup("rw101").is_none());
        assert!(r.lookup("open0").is_none());
        assert!(r.lookup("open600").is_none(), "600 does not divide 1000");
        assert!(r.lookup("mixX").is_none());
        // Non-canonical numerals must not resolve to a differently-named
        // handle (axis label vs identity mismatch).
        assert!(r.lookup("rw050").is_none());
        assert!(r.lookup("zipf+80").is_none());
        assert!(r.lookup("nope").is_none());
        assert!(r.lookup("trace:/no/such/file").is_none());
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = WorkloadRegistry::default();
        r.register(crate::generators::rw(50));
        r.register(crate::generators::rw(50));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn every_registered_workload_has_a_summary() {
        for h in WorkloadRegistry::standard().handles() {
            assert!(!h.summary().is_empty(), "{} lacks a summary", h.name());
        }
    }

    #[test]
    #[should_panic(expected = "unknown workload `definitely-not-a-workload`")]
    fn unknown_workload_panics_with_the_known_list() {
        let _ = workload("definitely-not-a-workload");
    }
}
