//! Engine determinism over the controller-plugin axis: sweeping every
//! shipped defense must produce byte-identical canonical result sets at
//! any thread count, under both kernels. Plugins hold mutable per-bank
//! state and draw from per-instance seeded streams (PARA), so this is the
//! integration-level proof that plugin state never leaks across points —
//! each point rebuilds its plugins from the handle's factory.

use hira::engine::{Executor, Sweep};
use hira::prelude::*;
use hira_bench::{Scale, SweepRun};

fn scale() -> Scale {
    Scale {
        mixes: 2,
        insts: 2_000,
        warmup: 400,
        rows: 16,
    }
}

/// The registry samples plus low-threshold instances that force the
/// injection paths to fire within a short run.
fn roster() -> Vec<(String, PluginHandle)> {
    let mut handles = PluginRegistry::standard().samples();
    handles.extend([
        plugin::oracle(2),
        plugin::para(0.5),
        plugin::graphene(2, 64),
    ]);
    handles
        .into_iter()
        .map(|h| (h.name().to_owned(), h))
        .collect()
}

fn plugin_sweep(kernel: KernelMode) -> Sweep<SystemConfig> {
    Sweep::new("plugin_determinism")
        .axis("plugin", roster(), |_, h| h.clone())
        .axis(
            "policy",
            [("baseline", policy::baseline()), ("hira4", policy::hira(4))],
            move |h, p| {
                SystemConfig::table3(8.0, p.clone())
                    .with_plugin(h.clone())
                    .with_kernel(kernel)
            },
        )
}

#[test]
fn plugin_axis_is_thread_count_deterministic() {
    // 1 vs 8 engine threads over the full plugin roster × two policy
    // families: canonical result sets must be byte-identical.
    let canonical = |threads| {
        SweepRun::new(Executor::with_threads(threads), scale())
            .ws_over_mixes(plugin_sweep(KernelMode::Event))
            .run
            .canonical_json()
    };
    let single = canonical(1);
    assert!(!single.is_empty());
    assert_eq!(single, canonical(8), "8 threads diverged from 1");
}

#[test]
fn plugin_axis_is_kernel_invariant_through_the_engine() {
    // The same sweep through both kernels: weighted-speedup tables (and
    // every per-point record) must agree cell for cell. Complements the
    // single-system checks in kernel_equivalence.rs by going through the
    // engine's seeding and the bench runner's mix expansion.
    let run = SweepRun::new(Executor::with_threads(4), scale());
    let event = run.ws_over_mixes(plugin_sweep(KernelMode::Event));
    let dense = run.ws_over_mixes(plugin_sweep(KernelMode::Dense));
    for (ev, de) in event.run.records.iter().zip(&dense.run.records) {
        assert_eq!(ev.key, de.key, "record order diverged across kernels");
        assert_eq!(
            ev.value, de.value,
            "kernel divergence at {} ({})",
            ev.key, ev.metric
        );
    }
}

#[test]
fn plugin_instances_are_rebuilt_per_point() {
    // Two runs of the same configuration must be bit-identical: if a
    // handle's factory ever shared state between builds (e.g. one PARA
    // RNG advanced across runs), the second run would diverge.
    let mk = || {
        SystemBuilder::new()
            .policy(policy::baseline())
            .workload(mix(0))
            .plugin(plugin::para(0.5))
            .insts(2_000, 400)
            .build()
            .unwrap()
    };
    let first = System::new(mk()).run();
    let second = System::new(mk()).run();
    assert_eq!(first, second);
    assert!(
        first.plugin_totals().injected > 0,
        "para:0.5 never injected — the point is untested"
    );
}
