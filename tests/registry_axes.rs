//! The five named sweep axes are each declared once, as data, and every
//! consumer reads that declaration: lookup resolves every registered name
//! and every form's example and refuses each form's counter-example, every
//! `--list` names every handle and form of the axes it covers, and an
//! unknown name is one typed error through the builder, serve and the
//! command-line shortcuts.

use hira::engine::json;
use hira::engine::{Executor, Handle, Registry, UnknownName};
use hira::prelude::*;
use hira_bench::serve::Server;
use hira_bench::{axis_from_args, list, CacheSpec, Matrix, Scale, PERF_KERNEL_AXES};
use std::sync::Mutex;

/// One name per form, by grammar, that looks like the form but must not
/// resolve: a non-canonical numeral or an out-of-range parameter.
const COUNTER_EXAMPLES: [(&str, &str); 14] = [
    ("hira<N>", "hira04"),
    ("mix<N>", "mix+7"),
    ("zipf<N>", "zipf080"),
    ("rw<N>", "rw101"),
    ("open<N>", "open600"),
    ("trace:<path>", "trace:no/such/file.trace"),
    ("ddr4-2400@<Gb>", "ddr4-2400@0"),
    ("oracle:<tRH>", "oracle:0"),
    ("para:<p>", "para:1.5"),
    ("graphene:<tRH>:<k>", "graphene:64:0"),
    ("cmdtrace:<prefix>", "cmdtrace:"),
    ("epochs:<cycles>[:<path>]", "epochs:0"),
    ("latency:<path>", "latency:"),
    ("act-exposure:<path>", "act-exposure:"),
];

/// Checks one axis's declaration against its standard registry; returns
/// how many forms it checked.
fn check_axis<H: Handle>() -> usize {
    let registry = Registry::<H>::shared();
    let axis = registry.axis_name();
    for name in registry.names() {
        let h = registry
            .lookup(name)
            .unwrap_or_else(|| panic!("{axis} {name}"));
        assert_eq!(h.name(), name, "{axis}");
    }
    for form in registry.forms() {
        let example = form.example;
        let h = registry
            .lookup(example)
            .unwrap_or_else(|| panic!("{axis} example {example} does not resolve"));
        assert_eq!(h.name(), form.example, "{axis} {}", form.grammar);
        let (_, counter) = COUNTER_EXAMPLES
            .iter()
            .find(|(grammar, _)| *grammar == form.grammar)
            .unwrap_or_else(|| panic!("{} has no counter-example", form.grammar));
        assert!(registry.lookup(counter).is_none(), "{counter} resolved");
    }
    assert_eq!(
        registry.samples().len(),
        registry.len() + registry.forms().len()
    );
    registry.forms().len()
}

#[test]
fn every_axis_resolves_its_names_and_examples_and_refuses_its_counter_examples() {
    let forms = check_axis::<PolicyHandle>()
        + check_axis::<WorkloadHandle>()
        + check_axis::<DeviceHandle>()
        + check_axis::<PluginHandle>()
        + check_axis::<ProbeHandle>();
    assert_eq!(
        forms,
        COUNTER_EXAMPLES.len(),
        "a counter-example names no form"
    );
    // `none` is a value of the plugin axis alone.
    let plugins = PluginRegistry::shared()
        .axis(&["none", "oracle:064"])
        .unwrap();
    let labels: Vec<&str> = plugins.iter().map(|(label, _)| label.as_str()).collect();
    assert_eq!(labels, ["none", "oracle:64"]);
    assert!(plugins[0].1.is_none());
    assert!(PolicyRegistry::shared().axis(&["none"]).is_err());
}

/// Whether `list` names `name` at the start of one of its rows.
fn lists(list: &str, name: &str) -> bool {
    list.lines()
        .any(|l| l.split_whitespace().next() == Some(name))
}

/// The axes whose block `list` carries, each checked to name every
/// registered handle and every form of its axis.
fn listed_axes(list: &str) -> Vec<&'static str> {
    fn block<H: Handle>(list: &str, out: &mut Vec<&'static str>) {
        let registry = Registry::<H>::shared();
        let axis = registry.axis_name();
        if !list.contains(&format!("{axis} (--{axis}=")) {
            return;
        }
        let forms = registry.forms().iter().map(|f| f.grammar);
        for name in registry.names().into_iter().chain(forms) {
            assert!(lists(list, name), "{axis} {name} missing from\n{list}");
        }
        out.push(axis);
    }
    let mut out = Vec::new();
    block::<PolicyHandle>(list, &mut out);
    block::<WorkloadHandle>(list, &mut out);
    block::<DeviceHandle>(list, &mut out);
    block::<PluginHandle>(list, &mut out);
    block::<ProbeHandle>(list, &mut out);
    out
}

#[test]
fn every_list_names_every_handle_and_form_of_its_axes() {
    for (matrix, axes) in [
        (Matrix::Policy, vec!["policy", "plugin", "probe"]),
        (
            Matrix::Workload,
            vec!["policy", "workload", "plugin", "probe"],
        ),
        (
            Matrix::Device,
            vec!["policy", "workload", "device", "plugin", "probe"],
        ),
        (
            Matrix::Rh,
            vec!["policy", "workload", "device", "plugin", "probe"],
        ),
    ] {
        let list = matrix.list();
        assert_eq!(listed_axes(&list), axes, "{}", matrix.name());
        assert!(lists(&list, "none") && lists(&list, "dense"), "{list}");
    }
    let perf_kernel = list(PERF_KERNEL_AXES, false);
    assert_eq!(listed_axes(&perf_kernel), ["policy", "plugin"]);
}

/// The message of the panic `f` raises.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("a panic");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => (*payload.downcast::<&str>().expect("a string panic")).to_owned(),
    }
}

/// The events one request line answers with.
fn serve(line: &str) -> Vec<String> {
    let scale = Scale {
        mixes: 1,
        insts: 2_000,
        warmup: 400,
        rows: 16,
    };
    let mut server = Server::new(Executor::with_threads(1), scale, &CacheSpec::disabled());
    let events = Mutex::new(Vec::new());
    server.handle(line, &|e: &str| {
        events.lock().expect("unpoisoned").push(e.to_owned())
    });
    events.into_inner().expect("unpoisoned")
}

/// The `message` of the single `error` event `events` must be.
fn error_message(events: &[String]) -> String {
    assert_eq!(events.len(), 1, "{events:?}");
    let event = json::parse(&events[0]).expect("JSON event");
    assert_eq!(event.get("event").and_then(|e| e.as_str()), Some("error"));
    let message = event.get("message").and_then(|m| m.as_str());
    message.expect("a message").to_owned()
}

#[test]
fn an_unknown_name_is_one_typed_error_on_every_path() {
    let unknown = |axis: &'static str, name: &str| UnknownName {
        axis,
        name: name.to_owned(),
    };
    let builds = [
        ("policy", SystemBuilder::new().policy_name("nope").build()),
        (
            "workload",
            SystemBuilder::new().workload_name("nope").build(),
        ),
        ("device", SystemBuilder::new().device_name("nope").build()),
        ("plugin", SystemBuilder::new().plugin_name("nope").build()),
        ("probe", SystemBuilder::new().probe_name("nope").build()),
    ];
    for (axis, built) in builds {
        let e = unknown(axis, "nope");
        assert_eq!(built.unwrap_err(), BuildError::Unknown(e.clone()));
        assert_eq!(BuildError::Unknown(e.clone()).to_string(), e.to_string());
        let shortcut = match axis {
            "policy" => panic_message(|| drop(policy::policy("nope"))),
            "workload" => panic_message(|| drop(hira::workload::workload("nope"))),
            "device" => panic_message(|| drop(device::device("nope"))),
            "plugin" => panic_message(|| drop(plugin::plugin("nope"))),
            _ => panic_message(|| drop(probe::probe("nope"))),
        };
        assert_eq!(shortcut, e.to_string(), "{axis} shortcut");
    }
    for (field, axis) in [
        ("policies", "policy"),
        ("workloads", "workload"),
        ("devices", "device"),
        ("plugins", "plugin"),
    ] {
        let line = format!("{{\"op\":\"sweep\",\"id\":\"u\",\"{field}\":[\"nope\"]}}");
        assert_eq!(
            error_message(&serve(&line)),
            unknown(axis, "nope").to_string()
        );
    }
    let cli = panic_message(|| drop(axis_from_args::<PolicyHandle>(false, "nope")));
    assert_eq!(cli, unknown("policy", "nope").to_string());

    // `hira04` would label a second cell that runs `hira4`: refused
    // everywhere, before any cell runs.
    let hira04 = unknown("policy", "hira04");
    let built = SystemBuilder::new().policy_name("hira04").build();
    assert_eq!(built.unwrap_err(), BuildError::Unknown(hira04.clone()));
    let events = serve(r#"{"op":"sweep","id":"h","policies":["hira4","hira04"]}"#);
    assert_eq!(error_message(&events), hira04.to_string());
}
