//! The committed matrix baselines regenerate. Each comparison matrix,
//! rerun through its preset at the scale its `BENCH_<name>.json` was made
//! at (`HIRA_INSTS=4000`, plus `HIRA_MIXES=2` for the policy matrix),
//! reproduces every `(key, metric, value)` of the committed file in order
//! — walls and telemetry aside — so a change that moves any simulated
//! number names the first cell it moved.

use hira::engine::json::{self, Value};
use hira_bench::{Matrix, MatrixArgs, Scale};

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

fn regenerates(matrix: Matrix, mixes: usize) {
    let scale = Scale {
        mixes,
        insts: 4_000,
        warmup: 800,
        rows: 48,
    };
    let fresh: Vec<Cell> = MatrixArgs::defaults(matrix, scale)
        .run()
        .run
        .records
        .into_iter()
        .map(|r| {
            let key = r.key.axes().map(|(a, v)| (a.into(), v.into())).collect();
            (key, r.metric, r.value)
        })
        .collect();
    let path = format!(
        "{}/BENCH_{}.json",
        env!("CARGO_MANIFEST_DIR"),
        matrix.name()
    );
    let want = committed(&path);
    for (i, (w, g)) in want.iter().zip(&fresh).enumerate() {
        assert!(
            w == g,
            "{path}: record {i} differs\n  committed:   {w:?}\n  regenerated: {g:?}"
        );
    }
    assert_eq!(want.len(), fresh.len(), "{path}: record count");
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
