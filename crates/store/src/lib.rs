//! # hira-store — content-addressed sweep-result cache
//!
//! Re-running a figure binary recomputes every sweep point from scratch,
//! even though the points are deterministic functions of (configuration,
//! seed, code version). This crate makes completed points durable and
//! addressable:
//!
//! * [`point_key`] — the content address: SHA-256 over a canonical
//!   configuration string, the point's deterministic seed, and a
//!   code-version salt ([`code_version_salt`]) derived from
//!   [`CACHE_SCHEMA_VERSION`] plus the caller's code fingerprints. A
//!   fingerprint change (`hira-bench` passes a digest of the simulator's
//!   source) moves the salt and conservatively invalidates the whole
//!   store.
//! * [`SweepStore`] — an append-only on-disk store (one JSONL shard per
//!   sweep, in-memory index over all shards) with truncated-tail crash
//!   recovery.
//! * [`SweepPlan`] / [`CacheExecutorExt::run_cached`] — the cache-aware
//!   executor path: plan a sweep (classify hits/misses, running nothing),
//!   then execute — hits replay from the store in microseconds, only
//!   misses enter the work queue, and the assembled
//!   [`RunSet`](hira_engine::RunSet) is
//!   **bit-identical** to an uncached run for any thread count and any
//!   hit/miss interleaving (see `run` module docs for why).
//!
//! ## Example
//!
//! ```rust
//! use hira_engine::{metric, Executor, Sweep};
//! use hira_store::{code_version_salt, CacheExecutorExt, SweepPlan, SweepStore};
//!
//! let dir = std::env::temp_dir().join(format!("hira-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut store = SweepStore::open(&dir)?;
//!
//! // The salt folds in the schema version and a fingerprint of the code
//! // the results depend on; the same code in another process → the same
//! // salt.
//! let salt = code_version_salt([("source", vec!["0123456789abcdef".to_string()])]);
//!
//! let sweep = Sweep::new("doc_demo").axis("n", [("1", 1u32), ("2", 2)], |_, &n| n);
//! // `canon` must capture everything the result depends on besides seed
//! // and code version — including a task tag when several tasks measure
//! // different things for the same configuration.
//! let canon = |sc: hira_engine::Scenario<'_, u32>| format!("task=doc;n={}", sc.params);
//! let task = |sc: hira_engine::Scenario<'_, u32>| {
//!     (vec![metric("value", f64::from(*sc.params) * 10.0)], None)
//! };
//!
//! let ex = Executor::with_threads(2);
//! let plan = SweepPlan::compute(&store, &sweep, salt, canon);
//! assert_eq!(plan.misses(), 2); // cold cache
//! let (cold, _) = ex.run_cached(Some(&mut store), &sweep, &plan, task, None)?;
//!
//! let plan = SweepPlan::compute(&store, &sweep, salt, canon);
//! assert!(plan.is_warm()); // every point is now a hit…
//! let (warm, stats) = ex.run_cached(Some(&mut store), &sweep, &plan, task, None)?;
//! assert_eq!((stats.hits, stats.misses), (2, 0)); // …so nothing is computed
//! assert_eq!(warm.bench_json(), cold.bench_json()); // byte-identical replay
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod hash;
pub mod run;
pub mod store;

/// The cache schema version. Bump whenever the meaning of a stored result
/// changes — the canonical configuration grammar, the metric semantics, the
/// JSONL schema — and every existing store invalidates itself.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

pub use hash::{code_version_salt, point_key, salt_with_version, sha256_hex, Sha256};
pub use run::{CacheExecutorExt, CacheStats, OnPoint, PointOutcome, SweepPlan};
pub use store::{StoredPoint, SweepStore};
