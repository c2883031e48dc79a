//! The controller-plugin axis behind `--plugin=`: the three shipped
//! defenses as dynamic parameterized forms, plus any handles a registry
//! of one's own registers (checked first, by exact name).

use super::{graphene, oracle, para, PluginHandle};
use hira_engine::registry::{named, Form, Registry};

/// The string-keyed plugin registry (see [`hira_engine::Registry`]).
pub type PluginRegistry = Registry<PluginHandle>;

// The plugin axis. Like the probe axis, its built-in roster is a grammar
// of dynamic forms rather than a fixed name list. Each form resolves to
// its handle under the *canonical* name (`oracle:01024` and `oracle:1024`
// key one cache entry), and `none` is the undefended point. The examples
// are the roster the registry-wide determinism and kernel-equivalence
// tests sweep ([`Registry::samples`]), with parameters low enough that
// short test runs exercise the injection paths.
hira_engine::axis!(
    PluginHandle,
    "plugin",
    Vec::new,
    &[
        Form {
            grammar: "oracle:<tRH>",
            summary: "exact per-row exposure counters, victim refresh at tRH \
                      (lower bound; needs VRR)",
            example: "oracle:64",
            parse: |spec| {
                let t_rh: u64 = spec.strip_prefix("oracle:")?.parse().ok()?;
                (t_rh > 0).then(|| oracle(t_rh))
            },
        },
        Form {
            grammar: "para:<p>",
            summary: "probabilistic adjacent-row refresh, trigger probability p per activation",
            example: "para:0.05",
            parse: |spec| {
                let p: f64 = spec.strip_prefix("para:")?.parse().ok()?;
                (0.0..=1.0).contains(&p).then(|| para(p))
            },
        },
        Form {
            grammar: "graphene:<tRH>:<k>",
            summary: "Misra-Gries aggressor tracking, k counters/bank, neighbor refresh \
                      at tRH (needs VRR)",
            example: "graphene:64:16",
            parse: |spec| {
                let (t_rh, k) = spec.strip_prefix("graphene:")?.split_once(':')?;
                let t_rh: u64 = t_rh.parse().ok().filter(|&t| t > 0)?;
                let k: usize = k.parse().ok().filter(|&k| k > 0)?;
                Some(graphene(t_rh, k))
            },
        },
    ],
    Some("no plugin attached (the undefended baseline)"),
);

/// Resolves a plugin spec against the standard registry (the typed-error
/// path is [`crate::builder::SystemBuilder::plugin_name`]).
///
/// # Panics
///
/// Panics when the spec does not resolve — a typo'd `--plugin=` axis is a
/// usage error, not a recoverable state.
pub fn plugin(spec: &str) -> PluginHandle {
    named(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::PluginEnv;

    fn env() -> PluginEnv {
        PluginEnv {
            channel: 0,
            rank: 0,
            banks: 16,
            rows_per_bank: 1024,
            seed: 1,
            ordinal: 0,
        }
    }

    #[test]
    fn lookup_parses_the_dynamic_forms() {
        let r = PluginRegistry::standard();
        assert_eq!(r.lookup("oracle:1024").unwrap().name(), "oracle:1024");
        assert_eq!(r.lookup("para:0.01").unwrap().name(), "para:0.01");
        assert_eq!(
            r.lookup("graphene:1024:64").unwrap().name(),
            "graphene:1024:64"
        );
        // Canonicalization: leading zeros normalize away.
        assert_eq!(r.lookup("oracle:01024").unwrap().name(), "oracle:1024");
        assert_eq!(r.lookup("para:.5").unwrap().name(), "para:0.5");
    }

    #[test]
    fn lookup_rejects_malformed_and_out_of_range_specs() {
        let r = PluginRegistry::standard();
        for bad in [
            "oracle",
            "oracle:",
            "oracle:0",
            "oracle:-3",
            "para:1.5",
            "para:-0.1",
            "para:x",
            "graphene:1024",
            "graphene:0:64",
            "graphene:1024:0",
            "blink:7",
            "none",
        ] {
            assert!(r.lookup(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn custom_handles_shadow_the_builtin_grammar() {
        let mut r = PluginRegistry::standard();
        r.register(
            PluginHandle::new("oracle:1024", |env: &PluginEnv| {
                Box::new(crate::plugin::OracleRh::new(9, env.rows_per_bank))
            })
            .with_summary("impostor"),
        );
        let h = r.lookup("oracle:1024").unwrap();
        assert_eq!(h.summary(), "impostor");
    }

    #[test]
    fn samples_build_and_carry_canonical_names() {
        let r = PluginRegistry::standard();
        let samples = r.samples();
        let names: Vec<&str> = samples.iter().map(|h| h.name()).collect();
        assert_eq!(names, ["oracle:64", "para:0.05", "graphene:64:16"]);
        for h in samples {
            assert_eq!(r.lookup(h.name()).unwrap(), h, "{} round-trips", h.name());
            let p = h.build(&env());
            assert_eq!(p.name(), h.name());
        }
    }
}
