//! The committed baselines regenerate. Each comparison matrix and each
//! paper figure, rerun through its preset at the scale its
//! `BENCH_<name>.json` was made at (matrices: `HIRA_INSTS=4000`, plus
//! `HIRA_MIXES=2` for the policy matrix; figures: `HIRA_MIXES=1
//! HIRA_INSTS=10000`), reproduces every `(key, metric, value)` of the
//! committed file in order — walls and telemetry aside. A change that
//! moves any simulated number fails on the first cell it moved, after
//! printing every cell it moved, missed or added.

use hira::engine::json::{self, Value};
use hira::engine::{Executor, RunSet};
use hira_bench::{Figure, Geometry, Matrix, MatrixArgs, Scale, SweepRun};
use std::collections::HashMap;

/// One record as `(key axes, metric, value)`.
type Cell = (Vec<(String, String)>, String, f64);

fn committed(path: &str) -> Vec<Cell> {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = json::parse(&body).unwrap_or_else(|e| panic!("{path}: {e}"));
    let records = doc
        .get("records")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{path}: no records array"));
    records
        .iter()
        .map(|r| {
            let key = r
                .get("key")
                .and_then(Value::as_obj)
                .expect("record key")
                .iter()
                .map(|(a, v)| (a.clone(), v.as_str().expect("key label").to_owned()))
                .collect();
            let metric = r.get("metric").and_then(Value::as_str).expect("metric");
            let value = r.get("value").and_then(Value::as_f64).expect("value");
            (key, metric.to_owned(), value)
        })
        .collect()
}

/// One line per `(key, metric)` whose value differs between the committed
/// cells `want` and the regenerated `got`, with both values and their
/// ratio, in committed order; then one per cell only one side has.
fn moved_cells(want: &[Cell], got: &[Cell]) -> Vec<String> {
    let index = |cells: &[Cell]| -> HashMap<(Vec<(String, String)>, String), f64> {
        let cells = cells.iter();
        cells
            .map(|(key, metric, v)| ((key.clone(), metric.clone()), *v))
            .collect()
    };
    let (committed, regenerated) = (index(want), index(got));
    let cell = |key: &[(String, String)], metric: &str| {
        let axes: Vec<String> = key.iter().map(|(a, v)| format!("{a}={v}")).collect();
        format!("{} {metric}", axes.join(" "))
    };
    let mut report = Vec::new();
    for (key, metric, old) in want {
        match regenerated.get(&(key.clone(), metric.clone())) {
            Some(new) if new != old => report.push(format!(
                "  {}: committed {old}, regenerated {new} (x{:.4})",
                cell(key, metric),
                new / old
            )),
            Some(_) => {}
            None => report.push(format!("  missing {}", cell(key, metric))),
        }
    }
    for (key, metric, _) in got {
        if !committed.contains_key(&(key.clone(), metric.clone())) {
            report.push(format!("  extra {}", cell(key, metric)));
        }
    }
    report
}

/// Asserts that `fresh` reproduces the committed `BENCH_<name>.json`.
fn matches_committed(name: &str, fresh: RunSet) {
    let fresh: Vec<Cell> = fresh
        .records
        .into_iter()
        .map(|r| {
            let key = r.key.axes().map(|(a, v)| (a.into(), v.into())).collect();
            (key, r.metric, r.value)
        })
        .collect();
    let path = format!("{}/BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let want = committed(&path);
    let report = moved_cells(&want, &fresh);
    if !report.is_empty() {
        eprintln!(
            "{path}: {} of {} committed records moved or missing, {} regenerated\n{}",
            report.iter().filter(|l| !l.starts_with("  extra ")).count(),
            want.len(),
            fresh.len(),
            report.join("\n")
        );
    }
    for (i, (w, g)) in want.iter().zip(&fresh).enumerate() {
        assert!(
            w == g,
            "{path}: record {i} differs\n  committed:   {w:?}\n  regenerated: {g:?}"
        );
    }
    assert_eq!(want.len(), fresh.len(), "{path}: record count");
}

fn regenerates(matrix: Matrix, mixes: usize) {
    let scale = Scale {
        mixes,
        insts: 4_000,
        warmup: 800,
        rows: 48,
    };
    let fresh = MatrixArgs::defaults(matrix, scale).run().run;
    matches_committed(matrix.name(), fresh);
}

/// Regenerates `figure` at `HIRA_MIXES=1 HIRA_INSTS=10000`. On `mix0` at
/// 8 Gb and NRH = 1024, Baseline plus PARA issues three REFs there
/// (against one or two at 4,000 instructions), so the periodic engine and
/// the PARA queue interleave.
fn figure_regenerates(figure: Figure) {
    let scale = Scale {
        mixes: 1,
        insts: 10_000,
        warmup: 2_000,
        rows: 48,
    };
    let fresh = figure.run(&SweepRun::new(Executor::from_env(), scale)).run;
    matches_committed(figure.name(), fresh);
}

#[test]
fn policy_matrix_baseline_regenerates() {
    regenerates(Matrix::Policy, 2);
}

#[test]
fn workload_matrix_baseline_regenerates() {
    regenerates(Matrix::Workload, 1);
}

#[test]
fn device_matrix_baseline_regenerates() {
    regenerates(Matrix::Device, 1);
}

#[test]
fn rh_matrix_baseline_regenerates() {
    regenerates(Matrix::Rh, 1);
}

#[test]
fn fig09_baseline_regenerates() {
    figure_regenerates(Figure::Periodic {
        no_refresh_access: false,
    });
}

#[test]
fn fig12_baseline_regenerates() {
    figure_regenerates(Figure::Para);
}

#[test]
fn fig13_baseline_regenerates() {
    figure_regenerates(Figure::GeometryPeriodic(Geometry::Channels));
}

#[test]
fn fig14_baseline_regenerates() {
    figure_regenerates(Figure::GeometryPeriodic(Geometry::Ranks));
}

#[test]
fn fig15_baseline_regenerates() {
    figure_regenerates(Figure::GeometryPara(Geometry::Channels));
}

#[test]
fn fig16_baseline_regenerates() {
    figure_regenerates(Figure::GeometryPara(Geometry::Ranks));
}

#[test]
fn ablation_baseline_regenerates() {
    figure_regenerates(Figure::Ablation);
}
