//! The structured result store: metrics, run records and run sets.
//!
//! Executor tasks return [`Metric`]s; the executor stamps them with their
//! scenario key and wall time into [`RunRecord`]s and bundles a sweep's
//! records into a [`RunSet`]. The run set offers:
//!
//! * keyed lookup ([`RunSet::get`] / [`RunSet::value`]) and axis aggregation
//!   ([`RunSet::mean_over`]) for the figure binaries,
//! * a canonical JSON form ([`RunSet::canonical_json`]) that excludes
//!   timing/thread metadata and is byte-identical across thread counts —
//!   the determinism fingerprint,
//! * a `BENCH_<sweep>.json` emitter ([`RunSet::write_bench_json`]) carrying
//!   wall-clock data for the perf trajectory, plus the env-gated
//!   [`RunSet::emit_if_requested`] convenience,
//! * a tabular pretty-printer ([`RunSet::table`]).

use crate::json;
use crate::scenario::ScenarioKey;
use std::io;
use std::path::{Path, PathBuf};

/// One named measurement produced by a task.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (e.g. `"ws"`, `"coverage_mean"`).
    pub name: String,
    /// Measured value.
    pub value: f64,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64) -> Metric {
    Metric {
        name: name.into(),
        value,
    }
}

/// Per-point run telemetry a task may report alongside its metrics: how
/// much work the simulation kernel did, not what it measured. Like
/// `wall_ms`, telemetry is excluded from the canonical serialization — it
/// describes the execution, not the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointTelemetry {
    /// Kernel iterations processed (dense: cycles; event: wake events).
    pub events: u64,
    /// Peak combined read+write queue depth across channels.
    pub peak_queue: u64,
}

/// One measurement of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The scenario the measurement belongs to.
    pub key: ScenarioKey,
    /// Metric name.
    pub metric: String,
    /// Metric value.
    pub value: f64,
    /// Wall time of the scenario's task in milliseconds. Excluded from the
    /// canonical serialization — it varies run to run by nature.
    pub wall_ms: f64,
    /// Run telemetry of the scenario's task, when the task reported any.
    /// Excluded from the canonical serialization alongside `wall_ms`.
    pub telemetry: Option<PointTelemetry>,
}

impl RunRecord {
    /// Kernel events per wall-clock second, when telemetry is present and
    /// the wall time is non-zero.
    pub fn events_per_sec(&self) -> Option<f64> {
        let t = self.telemetry?;
        if self.wall_ms > 0.0 {
            Some(t.events as f64 / (self.wall_ms / 1e3))
        } else {
            None
        }
    }
}

/// All records of one executed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSet {
    /// The sweep's name.
    pub sweep: String,
    /// Worker threads the executor used (metadata, not part of the results).
    pub threads: usize,
    /// Summed per-point wall time of the sweep in milliseconds: the work
    /// the sweep took, independent of the thread count and (for replayed
    /// points) of the cache. A caller that wants elapsed time times the
    /// run itself.
    pub wall_ms: f64,
    /// Records in point order, metrics in task-emission order.
    pub records: Vec<RunRecord>,
}

impl RunSet {
    /// The first record matching every filter and the metric name.
    pub fn get(&self, filters: &[(&str, &str)], metric: &str) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.metric == metric && r.key.matches(filters))
            .map(|r| r.value)
    }

    /// [`RunSet::get`] that panics with a descriptive message on a miss —
    /// for figure binaries where an absent point is a programming error.
    ///
    /// # Panics
    ///
    /// Panics if no record matches.
    pub fn value(&self, filters: &[(&str, &str)], metric: &str) -> f64 {
        self.get(filters, metric).unwrap_or_else(|| {
            panic!(
                "sweep `{}` has no record for {filters:?} metric `{metric}`",
                self.sweep
            )
        })
    }

    /// Collapses `axes` by arithmetic mean: records of `metric` whose keys
    /// differ only in those axes are grouped (first-seen order) and
    /// averaged. An axis no key carries collapses nothing.
    pub fn mean_over(&self, axes: &[&str], metric: &str) -> Vec<(ScenarioKey, f64)> {
        let mut groups: Vec<(ScenarioKey, f64, usize)> = Vec::new();
        for r in self.records.iter().filter(|r| r.metric == metric) {
            let k = axes.iter().fold(r.key.clone(), |k, a| k.without(a));
            match groups.iter_mut().find(|(g, _, _)| *g == k) {
                Some((_, sum, n)) => {
                    *sum += r.value;
                    *n += 1;
                }
                None => groups.push((k, r.value, 1)),
            }
        }
        groups
            .into_iter()
            .map(|(k, sum, n)| (k, sum / n as f64))
            .collect()
    }

    fn key_json(key: &ScenarioKey) -> String {
        let mut out = String::new();
        json::write_object(
            &mut out,
            key.axes().map(|(a, v)| {
                let mut s = String::new();
                json::write_str(&mut s, v);
                (a, s)
            }),
        );
        out
    }

    fn record_json(r: &RunRecord, with_wall: bool) -> String {
        let mut value = String::new();
        json::write_f64(&mut value, r.value);
        let mut m = String::new();
        json::write_str(&mut m, &r.metric);
        let mut entries = vec![
            ("key", Self::key_json(&r.key)),
            ("metric", m),
            ("value", value),
        ];
        if with_wall {
            let mut w = String::new();
            json::write_f64(&mut w, r.wall_ms);
            entries.push(("wall_ms", w));
            if let Some(t) = r.telemetry {
                entries.push(("events", t.events.to_string()));
                let mut eps = String::new();
                json::write_f64(&mut eps, r.events_per_sec().unwrap_or(0.0));
                entries.push(("events_per_sec", eps));
                entries.push(("peak_queue", t.peak_queue.to_string()));
            }
        }
        let mut out = String::new();
        json::write_object(&mut out, entries);
        out
    }

    fn json(&self, with_wall: bool) -> String {
        let mut name = String::new();
        json::write_str(&mut name, &self.sweep);
        let mut records = String::from("[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                records.push(',');
            }
            records.push_str(&Self::record_json(r, with_wall));
        }
        records.push(']');
        let mut entries = vec![("sweep", name)];
        if with_wall {
            entries.push(("threads", self.threads.to_string()));
            let mut w = String::new();
            json::write_f64(&mut w, self.wall_ms);
            entries.push(("wall_ms", w));
        }
        entries.push(("records", records));
        let mut out = String::new();
        json::write_object(&mut out, entries);
        out.push('\n');
        out
    }

    /// The canonical serialization: sweep name + records without any timing
    /// or thread metadata. Byte-identical across thread counts and runs.
    pub fn canonical_json(&self) -> String {
        self.json(false)
    }

    /// The full serialization with per-record and total wall times plus the
    /// thread count — the `BENCH_*.json` payload.
    pub fn bench_json(&self) -> String {
        self.json(true)
    }

    /// Writes `BENCH_<sweep>.json` into `dir` and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_bench_json(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.sweep));
        std::fs::write(&path, self.bench_json())?;
        Ok(path)
    }

    /// Writes the `BENCH_*.json` into `$HIRA_BENCH_DIR` when that variable
    /// is set; returns the path written, if any. Figure binaries call this
    /// unconditionally so any sweep can join the perf trajectory on demand.
    pub fn emit_if_requested(&self) -> Option<PathBuf> {
        let dir = std::env::var_os("HIRA_BENCH_DIR")?;
        match self.write_bench_json(Path::new(&dir)) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("warning: could not write BENCH_{}.json: {e}", self.sweep);
                None
            }
        }
    }

    /// Renders the records as an aligned text table (axes, metric, value,
    /// wall time).
    pub fn table(&self) -> String {
        let mut axes: Vec<&str> = Vec::new();
        for r in &self.records {
            for (a, _) in r.key.axes() {
                if !axes.contains(&a) {
                    axes.push(a);
                }
            }
        }
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.records.len() + 1);
        let mut header: Vec<String> = axes.iter().map(|a| (*a).to_string()).collect();
        header.extend(["metric".to_string(), "value".to_string(), "ms".to_string()]);
        rows.push(header);
        for r in &self.records {
            let mut row: Vec<String> = axes
                .iter()
                .map(|a| r.key.get(a).unwrap_or("-").to_string())
                .collect();
            row.push(r.metric.clone());
            row.push(format!("{:.6}", r.value));
            row.push(format!("{:.1}", r.wall_ms));
            rows.push(row);
        }
        let cols = rows[0].len();
        let widths: Vec<usize> = (0..cols)
            .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>width$}", width = widths[c]));
            }
            out.push('\n');
            if i == 0 {
                let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        out
    }

    /// Renders one row of run telemetry per sweep point (first-seen key
    /// order): wall time, kernel events, events/sec, peak queue depth.
    /// A footer aggregates the table — total events, total wall,
    /// wall-weighted events/sec, max peak queue — so the table stays
    /// readable on 100+-point sweeps. Points whose tasks reported no
    /// telemetry are skipped; the empty string means no point reported any.
    pub fn telemetry_table(&self) -> String {
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut seen: Vec<&ScenarioKey> = Vec::new();
        let mut total_events: u64 = 0;
        let mut total_wall_ms: f64 = 0.0;
        let mut max_peak: u64 = 0;
        for r in &self.records {
            let Some(t) = r.telemetry else { continue };
            if seen.contains(&&r.key) {
                continue;
            }
            seen.push(&r.key);
            total_events += t.events;
            total_wall_ms += r.wall_ms;
            max_peak = max_peak.max(t.peak_queue);
            rows.push(vec![
                r.key.to_string(),
                format!("{:.1}", r.wall_ms),
                t.events.to_string(),
                match r.events_per_sec() {
                    Some(eps) => format!("{:.0}", eps),
                    None => "-".to_string(),
                },
                t.peak_queue.to_string(),
            ]);
        }
        if rows.is_empty() {
            return String::new();
        }
        let header: Vec<String> = ["point", "ms", "events", "events/s", "peak_q"]
            .iter()
            .map(|h| (*h).to_string())
            .collect();
        rows.insert(0, header);
        // Aggregate footer: the wall-weighted rate (total events over total
        // wall), not a mean of per-point rates, so long points dominate the
        // way they dominate the run.
        rows.push(vec![
            "total".to_string(),
            format!("{total_wall_ms:.1}"),
            total_events.to_string(),
            if total_wall_ms > 0.0 {
                format!("{:.0}", total_events as f64 / (total_wall_ms / 1e3))
            } else {
                "-".to_string()
            },
            max_peak.to_string(),
        ]);
        let cols = rows[0].len();
        let widths: Vec<usize> = (0..cols)
            .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>width$}", width = widths[c]));
            }
            out.push('\n');
            if i == 0 || i + 2 == rows.len() {
                let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        out
    }
}

/// Formats an axis label for a float value: integral values render without
/// a fractional part (`8` not `8.0`), so labels match `to_string()` lookups.
pub fn flabel(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSet {
        let k = |m: &str| ScenarioKey::root().with("scheme", "B").with("mix", m);
        RunSet {
            sweep: "demo".into(),
            threads: 2,
            wall_ms: 12.5,
            records: vec![
                RunRecord {
                    key: k("0"),
                    metric: "ws".into(),
                    value: 2.0,
                    wall_ms: 3.0,
                    telemetry: None,
                },
                RunRecord {
                    key: k("1"),
                    metric: "ws".into(),
                    value: 4.0,
                    wall_ms: 4.0,
                    telemetry: None,
                },
                RunRecord {
                    key: k("0"),
                    metric: "ipc".into(),
                    value: 1.0,
                    wall_ms: 3.0,
                    telemetry: None,
                },
            ],
        }
    }

    #[test]
    fn lookup_by_filters_and_metric() {
        let rs = sample();
        assert_eq!(rs.get(&[("mix", "1")], "ws"), Some(4.0));
        assert_eq!(rs.get(&[("mix", "2")], "ws"), None);
        assert_eq!(rs.value(&[("scheme", "B"), ("mix", "0")], "ipc"), 1.0);
    }

    #[test]
    #[should_panic(expected = "no record")]
    fn value_panics_on_miss() {
        sample().value(&[("mix", "9")], "ws");
    }

    #[test]
    fn mean_over_collapses_one_axis() {
        let rs = sample();
        let means = rs.mean_over(&["mix"], "ws");
        assert_eq!(means.len(), 1);
        assert_eq!(means[0].0.to_string(), "scheme=B");
        assert_eq!(means[0].1, 3.0);
        // Several axes collapse at once; an absent axis collapses nothing.
        let all = rs.mean_over(&["scheme", "mix", "absent"], "ws");
        assert_eq!(all, vec![(ScenarioKey::root(), 3.0)]);
    }

    #[test]
    fn canonical_json_is_wall_free_and_ordered() {
        let rs = sample();
        let json = rs.canonical_json();
        assert!(json.starts_with("{\"sweep\":\"demo\",\"records\":["));
        assert!(json
            .contains("{\"key\":{\"scheme\":\"B\",\"mix\":\"0\"},\"metric\":\"ws\",\"value\":2}"));
        assert!(!json.contains("wall"));
        assert!(!json.contains("threads"));
        // Identical results at different thread counts serialize identically.
        let mut other = rs.clone();
        other.threads = 8;
        other.wall_ms = 99.0;
        other.records[0].wall_ms = 1.0;
        assert_eq!(json, other.canonical_json());
        assert_ne!(rs.bench_json(), other.bench_json());
    }

    #[test]
    fn bench_json_carries_timing_metadata() {
        let json = sample().bench_json();
        assert!(json.contains("\"threads\":2"));
        assert!(json.contains("\"wall_ms\""));
    }

    #[test]
    fn bench_json_roundtrips_to_disk() {
        let dir = std::env::temp_dir().join("hira-engine-test-emit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = sample().write_bench_json(&dir).unwrap();
        assert!(path.ends_with("BENCH_demo.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, sample().bench_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_lists_axes_and_values() {
        let table = sample().table();
        assert!(table.contains("scheme"));
        assert!(table.contains("mix"));
        assert!(table.contains("ws"));
        assert!(table.contains("4.000000"));
    }

    #[test]
    fn telemetry_stays_out_of_canonical_json_but_lands_in_bench_json() {
        let mut rs = sample();
        let t = PointTelemetry {
            events: 5000,
            peak_queue: 12,
        };
        for r in &mut rs.records {
            r.telemetry = Some(t);
        }
        let canonical = rs.canonical_json();
        assert!(!canonical.contains("events"));
        assert!(!canonical.contains("peak_queue"));
        assert_eq!(canonical, sample().canonical_json());
        let bench = rs.bench_json();
        assert!(bench.contains("\"events\":5000"));
        assert!(bench.contains("\"peak_queue\":12"));
        assert!(bench.contains("\"events_per_sec\""));
        // 5000 events over 3 ms.
        let eps = rs.records[0].events_per_sec().unwrap();
        assert!((eps - 5000.0 / 3e-3).abs() < 1e-6);
    }

    #[test]
    fn events_per_sec_guards_zero_wall_time() {
        let mut rs = sample();
        rs.records[0].telemetry = Some(PointTelemetry {
            events: 10,
            peak_queue: 1,
        });
        rs.records[0].wall_ms = 0.0;
        assert_eq!(rs.records[0].events_per_sec(), None);
        // No telemetry at all ⇒ also None.
        assert_eq!(rs.records[1].events_per_sec(), None);
        // Zero-wall records still serialize (events_per_sec falls to 0).
        assert!(rs.bench_json().contains("\"events_per_sec\":0"));
    }

    #[test]
    fn telemetry_table_lists_one_row_per_point() {
        let mut rs = sample();
        assert_eq!(rs.telemetry_table(), "");
        for (i, r) in rs.records.iter_mut().enumerate() {
            r.telemetry = Some(PointTelemetry {
                events: 100 * (i as u64 + 1),
                peak_queue: i as u64,
            });
        }
        let table = rs.telemetry_table();
        // Two distinct keys (mix=0, mix=1) even though mix=0 has 2 records,
        // plus the aggregate footer under its own rule.
        assert_eq!(
            table.lines().count(),
            2 + 2 + 2,
            "header + rule + 2 rows + rule + footer"
        );
        assert!(table.contains("events/s"));
        assert!(table.contains("mix=0"));
        assert!(table.contains("mix=1"));
        // Footer: total events 100+200 over total wall 3+4 ms, max peak_q 1.
        let footer = table.lines().last().unwrap();
        assert!(footer.starts_with("total") || footer.trim_start().starts_with("total"));
        assert!(footer.contains("7.0"), "{footer}");
        assert!(footer.contains("300"), "{footer}");
        assert!(footer.contains("42857"), "{footer}");
        assert!(footer.trim_end().ends_with('1'), "{footer}");
    }

    #[test]
    fn float_labels_drop_trailing_zero() {
        assert_eq!(flabel(8.0), "8");
        assert_eq!(flabel(0.5), "0.5");
        assert_eq!(flabel(-2.0), "-2");
    }
}
