//! The append-only on-disk result store.
//!
//! A [`SweepStore`] is a directory of JSONL shards, one per sweep name
//! (`<dir>/<sanitized sweep>.jsonl`), plus an in-memory index over every
//! point in every shard. Each line is one completed sweep point:
//!
//! ```json
//! {"v":1,"hash":"<64 hex>","sweep":"policy_matrix",
//!  "key":{"policy":"hira4","cap":"8"},"wall_ms":12.5,
//!  "telemetry":{"events":8123,"peak_queue":4},
//!  "metrics":[{"metric":"ws","value":6.25}]}
//! ```
//!
//! * `hash` — the content-addressed identity ([`crate::point_key`]): the
//!   canonical scenario config, the point's deterministic seed, and the
//!   code-version salt. Lookups go through the hash alone; the `key` /
//!   `sweep` fields are provenance for humans and tooling.
//! * `wall_ms` / `telemetry` — the *original computation's* cost, replayed
//!   verbatim on cache hits so a warm sweep emits a byte-identical
//!   `BENCH_*.json` (the executor-facing layer sums per-point walls).
//! * `metrics` — the task's measurements, in emission order; values
//!   round-trip bit-exactly through the shortest-decimal JSON writer.
//!
//! The store is strictly append-only: writers only ever `O_APPEND` whole
//! lines, so a crash can at worst leave one truncated line at the tail of
//! one shard. [`SweepStore::open`] detects that case, drops the partial
//! line, and truncates the shard back to its last intact line (reported
//! through [`SweepStore::recovered_lines`]); corruption anywhere *before*
//! the tail is not a crash signature and fails the open loudly.

use crate::hash;
use hira_engine::json;
use hira_engine::{sanitize_component, Metric, PointTelemetry, ScenarioKey};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One completed sweep point, as persisted in (and recalled from) a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPoint {
    /// Content hash ([`crate::point_key`]), 64 lowercase hex chars.
    pub hash: String,
    /// The sweep the point was first computed under (shard selector).
    pub sweep: String,
    /// The point's scenario coordinates at computation time (provenance;
    /// lookups key on `hash`, and replayed records carry the *querying*
    /// sweep's key).
    pub key: ScenarioKey,
    /// Wall time of the original computation in milliseconds.
    pub wall_ms: f64,
    /// Run telemetry of the original computation, when reported.
    pub telemetry: Option<PointTelemetry>,
    /// The task's metrics, in emission order.
    pub metrics: Vec<Metric>,
}

impl StoredPoint {
    /// Serializes the point as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut key_json = String::new();
        json::write_object(
            &mut key_json,
            self.key.axes().map(|(a, v)| {
                let mut s = String::new();
                json::write_str(&mut s, v);
                (a, s)
            }),
        );
        let mut sweep = String::new();
        json::write_str(&mut sweep, &self.sweep);
        let mut hash_json = String::new();
        json::write_str(&mut hash_json, &self.hash);
        let mut wall = String::new();
        json::write_f64(&mut wall, self.wall_ms);
        let mut metrics = String::from("[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let mut name = String::new();
            json::write_str(&mut name, &m.name);
            let mut value = String::new();
            json::write_f64(&mut value, m.value);
            let mut obj = String::new();
            json::write_object(&mut obj, [("metric", name), ("value", value)]);
            metrics.push_str(&obj);
        }
        metrics.push(']');
        let mut entries = vec![
            ("v", crate::CACHE_SCHEMA_VERSION.to_string()),
            ("hash", hash_json),
            ("sweep", sweep),
            ("key", key_json),
            ("wall_ms", wall),
        ];
        if let Some(t) = self.telemetry {
            let mut tel = String::new();
            json::write_object(
                &mut tel,
                [
                    ("events", t.events.to_string()),
                    ("peak_queue", t.peak_queue.to_string()),
                ],
            );
            entries.push(("telemetry", tel));
        }
        entries.push(("metrics", metrics));
        let mut out = String::new();
        json::write_object(&mut out, entries);
        out
    }

    /// Parses one JSONL line back into a point. `None` when the line is not
    /// a structurally complete stored point (the corrupt-tail signature).
    pub fn from_json_line(line: &str) -> Option<Self> {
        let v = json::parse(line).ok()?;
        let hash = v.get("hash")?.as_str()?.to_string();
        let sweep = v.get("sweep")?.as_str()?.to_string();
        let mut key = ScenarioKey::root();
        for (axis, value) in v.get("key")?.as_obj()? {
            key = key.with(axis, value.as_str()?);
        }
        let wall_entry = v.get("wall_ms")?;
        // The writer renders non-finite floats as null; recall them as NaN.
        let wall_ms = if wall_entry.is_null() {
            f64::NAN
        } else {
            wall_entry.as_f64()?
        };
        let telemetry = match v.get("telemetry") {
            None => None,
            Some(t) => Some(PointTelemetry {
                events: t.get("events")?.as_u64()?,
                peak_queue: t.get("peak_queue")?.as_u64()?,
            }),
        };
        let mut metrics = Vec::new();
        for m in v.get("metrics")?.as_arr()? {
            let value_entry = m.get("value")?;
            metrics.push(Metric {
                name: m.get("metric")?.as_str()?.to_string(),
                value: if value_entry.is_null() {
                    f64::NAN
                } else {
                    value_entry.as_f64()?
                },
            });
        }
        Some(StoredPoint {
            hash,
            sweep,
            key,
            wall_ms,
            telemetry,
            metrics,
        })
    }
}

/// The open store: shard directory + in-memory index over every point.
/// Indexed points are shared: a [`crate::SweepPlan`] holds its hits by
/// reference count, and a replay reads them where the index keeps them.
#[derive(Debug)]
pub struct SweepStore {
    dir: PathBuf,
    index: HashMap<String, Arc<StoredPoint>>,
    recovered: usize,
}

impl SweepStore {
    /// Opens (creating if necessary) the store at `dir`, loading every
    /// `*.jsonl` shard into the index. A truncated final line in a shard —
    /// the only state an interrupted append can leave behind — is dropped
    /// and the shard is truncated back to its last intact line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, and fails with `InvalidData` when a
    /// shard is corrupt *before* its final line (that is damage, not an
    /// interrupted append — refusing beats silently dropping results).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut shards: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        // Deterministic load order (ties between duplicate hashes resolve
        // the same way in every process).
        shards.sort();
        let mut store = SweepStore {
            dir,
            index: HashMap::new(),
            recovered: 0,
        };
        for shard in shards {
            store.load_shard(&shard)?;
        }
        Ok(store)
    }

    fn load_shard(&mut self, path: &Path) -> io::Result<()> {
        let mut body = String::new();
        File::open(path)?.read_to_string(&mut body)?;
        let mut good_bytes = 0usize;
        let mut pending: Option<(usize, usize)> = None; // (line_no, byte_end) of first bad line
        for (line_no, line) in body.split_inclusive('\n').enumerate() {
            let end = good_bytes + pending.map_or(0, |_| 0) + line.len();
            let text = line.trim_end_matches('\n');
            if text.is_empty() {
                // A bare trailing newline (or blank line) is harmless.
                if pending.is_none() {
                    good_bytes = end;
                }
                continue;
            }
            match StoredPoint::from_json_line(text) {
                Some(point) if pending.is_none() => {
                    self.index
                        .entry(point.hash.clone())
                        .or_insert_with(|| Arc::new(point));
                    good_bytes = end;
                }
                // A parseable line after a bad one: mid-file corruption.
                Some(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "store shard {} is corrupt before its tail (line {}): \
                             refusing to open — delete or repair the shard",
                            path.display(),
                            pending.expect("pending set").0 + 1,
                        ),
                    ));
                }
                None => {
                    if pending.is_none() {
                        pending = Some((line_no, end));
                    }
                }
            }
        }
        if pending.is_some() {
            // Exactly one unparseable run at the tail: an interrupted
            // append. Drop it and truncate the shard to the intact prefix.
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(good_bytes as u64)?;
            self.recovered += 1;
        }
        Ok(())
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of shards whose truncated tail was dropped at open time.
    pub fn recovered_lines(&self) -> usize {
        self.recovered
    }

    /// Looks a point up by content hash.
    pub fn get(&self, hash: &str) -> Option<&StoredPoint> {
        self.index.get(hash).map(|point| &**point)
    }

    /// [`SweepStore::get`], sharing the indexed point instead of
    /// borrowing it from the store.
    pub(crate) fn shared(&self, hash: &str) -> Option<Arc<StoredPoint>> {
        self.index.get(hash).cloned()
    }

    /// The shard path a sweep name maps to.
    pub fn shard_path(&self, sweep: &str) -> PathBuf {
        let name = sanitize_component(sweep);
        let name = if name.is_empty() {
            "unnamed".to_string()
        } else {
            name
        };
        self.dir.join(format!("{name}.jsonl"))
    }

    /// Appends `points` (grouped by sweep into their shards), skipping
    /// hashes already present in the store or earlier in `points`, and
    /// indexes them. Returns how many distinct points were actually
    /// written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. Writes are whole buffered lines to an
    /// append-mode file, so an interrupted append leaves at most one
    /// truncated tail line — exactly the case [`SweepStore::open`] recovers.
    pub fn append(&mut self, points: Vec<StoredPoint>) -> io::Result<usize> {
        let mut by_shard: Vec<(PathBuf, String, Vec<StoredPoint>)> = Vec::new();
        let mut appended = 0;
        let mut batched = HashSet::new();
        for p in points {
            if self.index.contains_key(&p.hash) || !batched.insert(p.hash.clone()) {
                continue;
            }
            let path = self.shard_path(&p.sweep);
            match by_shard.iter_mut().find(|(s, _, _)| *s == path) {
                Some((_, buf, batch)) => {
                    buf.push_str(&p.to_json_line());
                    buf.push('\n');
                    batch.push(p);
                }
                None => {
                    let mut buf = p.to_json_line();
                    buf.push('\n');
                    by_shard.push((path, buf, vec![p]));
                }
            }
        }
        for (path, buf, batch) in by_shard {
            let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
            file.write_all(buf.as_bytes())?;
            file.flush()?;
            for p in batch {
                self.index.insert(p.hash.clone(), Arc::new(p));
                appended += 1;
            }
        }
        Ok(appended)
    }
}

/// Re-exported for key construction convenience.
pub use hash::point_key;

#[cfg(test)]
mod tests {
    use super::*;
    use hira_engine::metric;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hira-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(hash: &str, sweep: &str) -> StoredPoint {
        StoredPoint {
            hash: hash.to_string(),
            sweep: sweep.to_string(),
            key: ScenarioKey::root().with("policy", "hira4").with("mix", "0"),
            wall_ms: 12.5,
            telemetry: Some(PointTelemetry {
                events: 8123,
                peak_queue: 4,
            }),
            metrics: vec![metric("ws", 6.25), metric("ipc", 0.1 + 0.2)],
        }
    }

    #[test]
    fn points_round_trip_through_their_json_line() {
        let p = sample("ab12", "policy_matrix");
        let line = p.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(StoredPoint::from_json_line(&line), Some(p));
        // Telemetry-free points omit the field and still round-trip.
        let mut bare = sample("cd34", "policy_matrix");
        bare.telemetry = None;
        assert_eq!(
            StoredPoint::from_json_line(&bare.to_json_line()),
            Some(bare)
        );
        // Structurally incomplete lines are rejected, not half-parsed.
        assert_eq!(StoredPoint::from_json_line("{\"v\":1}"), None);
        assert_eq!(StoredPoint::from_json_line("{\"hash\""), None);
    }

    #[test]
    fn append_reopen_round_trips_and_dedups() {
        let dir = tmp_dir("roundtrip");
        let mut store = SweepStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let a = sample("aa", "policy_matrix");
        let b = sample("bb", "workload_matrix");
        assert_eq!(store.append(vec![a.clone(), b.clone()]).unwrap(), 2);
        // Re-appending known hashes writes nothing.
        assert_eq!(store.append(vec![a.clone()]).unwrap(), 0);
        assert_eq!(store.len(), 2);
        drop(store);
        let store = SweepStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("aa"), Some(&a));
        assert_eq!(store.get("bb"), Some(&b));
        assert_eq!(store.recovered_lines(), 0);
        assert!(store.shard_path("policy_matrix").exists());
        assert!(store.shard_path("workload_matrix").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_hash_repeated_within_one_batch_is_written_once() {
        let dir = tmp_dir("batchdup");
        let mut store = SweepStore::open(&dir).unwrap();
        let a = sample("aa", "s");
        let b = sample("bb", "s");
        let batch = vec![a.clone(), b.clone(), a.clone(), sample("aa", "t")];
        assert_eq!(store.append(batch).unwrap(), 2, "distinct points only");
        assert_eq!(store.len(), 2);
        let body = std::fs::read_to_string(store.shard_path("s")).unwrap();
        assert_eq!(body.lines().count(), 2, "{body}");
        assert!(!store.shard_path("t").exists());
        drop(store);
        let store = SweepStore::open(&dir).unwrap();
        assert_eq!((store.len(), store.recovered_lines()), (2, 0));
        assert_eq!(store.get("aa"), Some(&a));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_tail_is_dropped_and_the_shard_repaired() {
        let dir = tmp_dir("tail");
        let mut store = SweepStore::open(&dir).unwrap();
        store
            .append(vec![sample("aa", "s"), sample("bb", "s")])
            .unwrap();
        drop(store);
        // Simulate an interrupted append: half a line at the tail.
        let shard = dir.join("s.jsonl");
        let mut file = OpenOptions::new().append(true).open(&shard).unwrap();
        file.write_all(b"{\"v\":1,\"hash\":\"cc\",\"swe").unwrap();
        drop(file);
        let store = SweepStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2, "intact points survive");
        assert_eq!(store.recovered_lines(), 1);
        assert!(store.get("cc").is_none());
        // The shard was physically repaired: a fresh open sees no damage…
        let store2 = SweepStore::open(&dir).unwrap();
        assert_eq!(store2.recovered_lines(), 0);
        // …and appending after recovery yields a fully valid shard.
        let mut store2 = store2;
        store2.append(vec![sample("dd", "s")]).unwrap();
        let store3 = SweepStore::open(&dir).unwrap();
        assert_eq!(store3.len(), 3);
        assert_eq!(store3.recovered_lines(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_corruption_fails_the_open_loudly() {
        let dir = tmp_dir("midfile");
        let mut store = SweepStore::open(&dir).unwrap();
        store
            .append(vec![sample("aa", "s"), sample("bb", "s")])
            .unwrap();
        drop(store);
        let shard = dir.join("s.jsonl");
        let body = std::fs::read_to_string(&shard).unwrap();
        let mut lines: Vec<&str> = body.lines().collect();
        lines[0] = "{\"v\":1,\"hash\":\"aa\",garbage";
        std::fs::write(&shard, format!("{}\n", lines.join("\n"))).unwrap();
        let err = SweepStore::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt before its tail"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_paths_are_sanitized_per_sweep() {
        let dir = tmp_dir("shards");
        let store = SweepStore::open(&dir).unwrap();
        assert!(store
            .shard_path("policy_matrix")
            .ends_with("policy_matrix.jsonl"));
        assert!(store
            .shard_path("serve: weird/sweep")
            .ends_with("serve--weird-sweep.jsonl"));
        assert!(store.shard_path("").ends_with("unnamed.jsonl"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
