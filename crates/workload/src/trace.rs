//! Line-oriented trace frontend: parse, write and replay ramulator2-style
//! `.trace` files.
//!
//! ## Format
//!
//! One record per line, `#`-comments and blank lines ignored:
//!
//! ```text
//! # <bubble_count> <addr> [R|W]
//! 27 0x1a3f40
//! 0 68719476736 W
//! ```
//!
//! * `bubble_count` — non-memory instructions preceding the access
//!   (decimal; values beyond `u32::MAX` saturate),
//! * `addr` — byte address, decimal or `0x`-prefixed hex,
//! * optional third token `W`/`w` marks a write; `R`/`r` (or nothing) is a
//!   read.
//!
//! Parsing returns a typed [`ParseError`] naming the line and token — a
//! malformed trace is never a panic. The writer emits exactly this format,
//! and [`Trace::capture`] dumps any [`Workload`] into it, so every
//! generator can be serialized and replayed **bit-identically**: a frontend
//! emits at most one [`Op::Compute`] gap between memory events (the trait
//! contract), which is precisely one record.

use crate::{Family, Op, Workload, WorkloadHandle, WorkloadProfile, CORE_WINDOW_BYTES};
use hira_dram::rng::hash_words;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// One trace record: a compute bubble followed by one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Non-memory instructions before the access.
    pub bubbles: u32,
    /// Byte address of the access.
    pub addr: u64,
    /// True for stores.
    pub is_write: bool,
}

/// A typed trace-parsing failure. Lines are 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The file could not be read.
    Io {
        /// Path that failed.
        path: String,
        /// Underlying error rendered (io::Error is not Clone/PartialEq).
        msg: String,
    },
    /// A record line had fewer than 2 or more than 3 tokens.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Tokens found.
        got: usize,
    },
    /// The bubble-count token did not parse as an unsigned integer.
    BadBubble {
        /// 1-based line number.
        line: usize,
        /// Offending token.
        token: String,
    },
    /// The address token did not parse as decimal or `0x`-hex.
    BadAddr {
        /// 1-based line number.
        line: usize,
        /// Offending token.
        token: String,
    },
    /// The third token was neither `R`/`r` nor `W`/`w`.
    BadOpFlag {
        /// 1-based line number.
        line: usize,
        /// Offending token.
        token: String,
    },
    /// The trace holds no records (only comments/blank lines).
    Empty,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Io { path, msg } => write!(f, "cannot read trace `{path}`: {msg}"),
            ParseError::FieldCount { line, got } => write!(
                f,
                "trace line {line}: expected `<bubbles> <addr> [R|W]`, found {got} fields"
            ),
            ParseError::BadBubble { line, token } => {
                write!(
                    f,
                    "trace line {line}: bubble count `{token}` is not an integer"
                )
            }
            ParseError::BadAddr { line, token } => write!(
                f,
                "trace line {line}: address `{token}` is not decimal or 0x-hex"
            ),
            ParseError::BadOpFlag { line, token } => {
                write!(f, "trace line {line}: op flag `{token}` is neither R nor W")
            }
            ParseError::Empty => write!(f, "trace holds no records"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed trace: shared, immutable records plus summary statistics.
#[derive(Debug, Clone)]
pub struct Trace {
    records: Arc<Vec<TraceRecord>>,
}

impl Trace {
    /// Builds a trace from records.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Empty`] when `records` is empty — a frontend
    /// must always have an event to emit.
    pub fn new(records: Vec<TraceRecord>) -> Result<Self, ParseError> {
        if records.is_empty() {
            return Err(ParseError::Empty);
        }
        Ok(Trace {
            records: Arc::new(records),
        })
    }

    /// Parses trace text (see the module docs for the format).
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseError`] encountered; never panics on
    /// malformed input.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut records = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            if let Some(rec) = parse_line(line, raw)? {
                records.push(rec);
            }
        }
        Trace::new(records)
    }

    /// Loads and parses a trace file.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] when the file cannot be read, or any
    /// parse error from its content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ParseError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| ParseError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        Trace::parse(&text)
    }

    /// The records, in file order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// A 64-bit digest of the records in order: every bubble count,
    /// address and store flag. Two traces replay the same access stream
    /// iff their records are equal, so a changed record moves the digest
    /// (up to hash collisions); comments, blank lines and number spelling
    /// do not.
    pub fn digest(&self) -> u64 {
        self.records
            .iter()
            .fold(self.records.len() as u64, |acc, r| {
                hash_words(&[acc, u64::from(r.bubbles), r.addr, u64::from(r.is_write)])
            })
    }

    /// Serializes the trace in the parseable format (header comment,
    /// hex addresses, `W` flags on stores).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        writeln!(w, "# hira-workload trace v1")?;
        writeln!(w, "# <bubble_count> <addr> [R|W]")?;
        for r in self.records.iter() {
            if r.is_write {
                writeln!(w, "{} 0x{:x} W", r.bubbles, r.addr)?;
            } else {
                writeln!(w, "{} 0x{:x}", r.bubbles, r.addr)?;
            }
        }
        Ok(())
    }

    /// [`Trace::write_to`] into a string.
    pub fn to_text(&self) -> String {
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .expect("Vec<u8> writes are infallible");
        String::from_utf8(buf).expect("trace text is ASCII")
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path.as_ref(), self.to_text())
    }

    /// Captures the next `n_records` memory accesses of a running frontend
    /// (compute gaps fold into the following record's bubble count). A
    /// capture at core 0 replays bit-identically through
    /// [`Trace::into_handle`].
    ///
    /// # Panics
    ///
    /// Panics when `n_records` is zero — a trace must hold at least one
    /// record (the invariant [`Trace::new`] enforces).
    pub fn capture(wl: &mut dyn Workload, n_records: usize) -> Self {
        assert!(n_records > 0, "a capture needs at least one record");
        let mut records = Vec::with_capacity(n_records);
        let mut bubbles = 0u64;
        while records.len() < n_records {
            let op = wl.next_access();
            let (addr, is_write) = match op {
                Op::Compute(n) => {
                    bubbles += u64::from(n);
                    continue;
                }
                Op::Load(a) => (a, false),
                Op::Store(a) => (a, true),
            };
            records.push(TraceRecord {
                bubbles: u32::try_from(bubbles).unwrap_or(u32::MAX),
                addr,
                is_write,
            });
            bubbles = 0;
        }
        Trace {
            records: Arc::new(records),
        }
    }

    /// Wraps the trace into a registrable handle under `name`. Every core
    /// replays the full record sequence (wrapping around when exhausted),
    /// with addresses folded into its own 1 GiB window. Replay is a pure
    /// event stream — no phase state, no ROI resets — so a captured
    /// generator replays **bit-identically** through an entire simulation,
    /// warmup included.
    pub fn into_handle(self, name: impl Into<String>) -> WorkloadHandle {
        let name = name.into();
        let stats = self.stats();
        let records = self.records;
        WorkloadHandle::new(
            name.clone(),
            Family::Trace,
            format!(
                "trace replay: {} records, {:.1} mem/kinst, {:.0}% writes",
                stats.records,
                stats.mem_per_kinst(),
                stats.write_frac() * 100.0
            ),
            move |env| {
                Box::new(TraceReplay {
                    name: name.clone(),
                    records: records.clone(),
                    stats,
                    base: env.base_addr(),
                    idx: 0,
                    gap_emitted: false,
                })
            },
        )
    }

    /// Summary statistics over the records.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats {
            records: self.records.len() as u64,
            ..TraceStats::default()
        };
        let mut min_line = u64::MAX;
        let mut max_line = 0;
        for r in self.records.iter() {
            s.bubbles += u64::from(r.bubbles);
            s.writes += u64::from(r.is_write);
            min_line = min_line.min(r.addr / 64);
            max_line = max_line.max(r.addr / 64);
        }
        // Guard the (Trace::new-enforced, but not type-enforced) non-empty
        // invariant rather than underflowing on a hand-rolled empty Trace.
        s.line_span = if s.records == 0 {
            0
        } else {
            max_line - min_line + 1
        };
        s
    }
}

/// Summary statistics of a [`Trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of records.
    pub records: u64,
    /// Total bubble instructions.
    pub bubbles: u64,
    /// Number of write records.
    pub writes: u64,
    /// Span between the lowest and highest touched line.
    pub line_span: u64,
}

impl TraceStats {
    /// Memory operations per kilo-instruction implied by the bubbles.
    pub fn mem_per_kinst(&self) -> f64 {
        self.records as f64 * 1000.0 / (self.records + self.bubbles).max(1) as f64
    }

    /// Fraction of records that are writes.
    pub fn write_frac(&self) -> f64 {
        self.writes as f64 / self.records.max(1) as f64
    }
}

fn parse_line(line: usize, raw: &str) -> Result<Option<TraceRecord>, ParseError> {
    let body = raw.trim();
    if body.is_empty() || body.starts_with('#') {
        return Ok(None);
    }
    let tokens: Vec<&str> = body.split_whitespace().collect();
    if tokens.len() < 2 || tokens.len() > 3 {
        return Err(ParseError::FieldCount {
            line,
            got: tokens.len(),
        });
    }
    let bubbles: u64 = tokens[0].parse().map_err(|_| ParseError::BadBubble {
        line,
        token: tokens[0].to_owned(),
    })?;
    let addr = parse_addr(tokens[1]).ok_or_else(|| ParseError::BadAddr {
        line,
        token: tokens[1].to_owned(),
    })?;
    let is_write = match tokens.get(2) {
        None => false,
        Some(&"W") | Some(&"w") => true,
        Some(&"R") | Some(&"r") => false,
        Some(t) => {
            return Err(ParseError::BadOpFlag {
                line,
                token: (*t).to_owned(),
            })
        }
    };
    Ok(Some(TraceRecord {
        bubbles: u32::try_from(bubbles).unwrap_or(u32::MAX),
        addr,
        is_write,
    }))
}

fn parse_addr(token: &str) -> Option<u64> {
    if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token.parse().ok()
    }
}

/// Loads `path` and wraps it into a handle named `trace:<path>` — the
/// dynamic `trace:` form [`crate::WorkloadRegistry::lookup`] resolves.
/// The name says where the records came from, not what they are, so the
/// handle also carries the loaded records' [`Trace::digest`] as its
/// [`WorkloadHandle::content_digest`].
///
/// # Errors
///
/// Returns any [`ParseError`] from loading the file.
pub fn trace_file(path: &str) -> Result<WorkloadHandle, ParseError> {
    let trace = Trace::load(path)?;
    let digest = trace.digest();
    let mut handle = trace.into_handle(format!("trace:{path}"));
    handle.content_digest = Some(digest);
    Ok(handle)
}

/// A per-core trace replayer.
#[derive(Debug)]
struct TraceReplay {
    name: String,
    records: Arc<Vec<TraceRecord>>,
    stats: TraceStats,
    base: u64,
    idx: usize,
    /// True once the current record's bubble gap has been emitted.
    gap_emitted: bool,
}

impl Workload for TraceReplay {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_access(&mut self) -> Op {
        let rec = self.records[self.idx];
        if !self.gap_emitted && rec.bubbles > 0 {
            self.gap_emitted = true;
            return Op::Compute(rec.bubbles);
        }
        self.gap_emitted = false;
        self.idx = (self.idx + 1) % self.records.len();
        let addr = self.base + rec.addr % CORE_WINDOW_BYTES;
        if rec.is_write {
            Op::Store(addr)
        } else {
            Op::Load(addr)
        }
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            family: Family::Trace,
            summary: format!("replay of {} trace records", self.stats.records),
            mem_per_kinst: self.stats.mem_per_kinst(),
            store_frac: self.stats.write_frac(),
            footprint_lines: self.stats.line_span,
        }
    }
}

/// The embedded demonstration trace the standard registry registers as
/// `demo-trace` — generated once by [`Trace::capture`] over the `random`
/// generator and committed, so the trace family is exercised without any
/// on-disk file.
pub fn demo_trace() -> Trace {
    Trace::parse(include_str!("../data/demo.trace"))
        .expect("the embedded demo trace is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random;
    use crate::WorkloadEnv;

    #[test]
    fn parses_comments_decimal_hex_and_flags() {
        let t =
            Trace::parse("# header\n\n12 0x40\n0 128 W\n3 0X80 r\n   # indented comment\n7 64 w\n")
                .unwrap();
        assert_eq!(
            t.records(),
            &[
                TraceRecord {
                    bubbles: 12,
                    addr: 0x40,
                    is_write: false
                },
                TraceRecord {
                    bubbles: 0,
                    addr: 128,
                    is_write: true
                },
                TraceRecord {
                    bubbles: 3,
                    addr: 0x80,
                    is_write: false
                },
                TraceRecord {
                    bubbles: 7,
                    addr: 64,
                    is_write: true
                },
            ]
        );
    }

    #[test]
    fn malformed_lines_yield_typed_errors_never_panics() {
        // The fuzz-ish corpus: every malformed shape maps to its typed
        // error, with the right 1-based line number.
        let cases: &[(&str, ParseError)] = &[
            (
                "1 0x40\nnonsense\n",
                ParseError::FieldCount { line: 2, got: 1 },
            ),
            ("1 2 3 4\n", ParseError::FieldCount { line: 1, got: 4 }),
            (
                "x 0x40\n",
                ParseError::BadBubble {
                    line: 1,
                    token: "x".into(),
                },
            ),
            (
                "-3 0x40\n",
                ParseError::BadBubble {
                    line: 1,
                    token: "-3".into(),
                },
            ),
            (
                "1 0xZZ\n",
                ParseError::BadAddr {
                    line: 1,
                    token: "0xZZ".into(),
                },
            ),
            (
                "1 addr\n",
                ParseError::BadAddr {
                    line: 1,
                    token: "addr".into(),
                },
            ),
            (
                "# only\n1 0x40 X\n",
                ParseError::BadOpFlag {
                    line: 2,
                    token: "X".into(),
                },
            ),
            ("# only comments\n\n", ParseError::Empty),
            ("", ParseError::Empty),
        ];
        for (text, want) in cases {
            assert_eq!(&Trace::parse(text).unwrap_err(), want, "input {text:?}");
        }
        // Errors render with their coordinates.
        let msg = Trace::parse("1 2 3 4\n").unwrap_err().to_string();
        assert!(msg.contains("line 1") && msg.contains("4 fields"), "{msg}");
    }

    #[test]
    fn bubbles_saturate_instead_of_overflowing() {
        let t = Trace::parse("99999999999999999999 0x40\n");
        // 20 nines overflows u64 → BadBubble; u32-overflow saturates.
        assert!(matches!(t, Err(ParseError::BadBubble { .. })));
        let t = Trace::parse("5000000000 0x40\n").unwrap();
        assert_eq!(t.records()[0].bubbles, u32::MAX);
    }

    #[test]
    fn write_parse_roundtrip_is_lossless() {
        let mut wl = random().build(&WorkloadEnv {
            core: 0,
            cores: 1,
            seed: 11,
        });
        let t = Trace::capture(wl.as_mut(), 300);
        let back = Trace::parse(&t.to_text()).unwrap();
        assert_eq!(t.records(), back.records());
    }

    #[test]
    fn capture_then_replay_is_bit_identical() {
        let env = WorkloadEnv {
            core: 0,
            cores: 1,
            seed: 23,
        };
        let mut gen = random().build(&env);
        let trace = Trace::capture(gen.as_mut(), 400);
        // Replay must reproduce the generator's event stream exactly, for
        // every event the capture covers (one per record, plus one gap per
        // record with a non-zero bubble count — after that the replay
        // wraps while the generator continues fresh).
        let events =
            trace.records().len() + trace.records().iter().filter(|r| r.bubbles > 0).count();
        assert!(events > 600, "capture too small to be meaningful");
        let mut fresh = random().build(&env);
        let mut replay = trace.into_handle("t").build(&env);
        for i in 0..events {
            assert_eq!(fresh.next_access(), replay.next_access(), "event {i}");
        }
    }

    #[test]
    fn capture_preserves_store_flags() {
        let mut wl = random().build(&WorkloadEnv {
            core: 0,
            cores: 1,
            seed: 5,
        });
        let t = Trace::capture(wl.as_mut(), 400);
        let writes = t.records().iter().filter(|r| r.is_write).count();
        // random() stores 25% of the time.
        assert!(writes > 50 && writes < 150, "writes {writes}");
    }

    #[test]
    fn replay_wraps_and_respects_core_windows() {
        let t = Trace::new(vec![
            TraceRecord {
                bubbles: 0,
                addr: 64,
                is_write: false,
            },
            TraceRecord {
                bubbles: 2,
                addr: 128,
                is_write: true,
            },
        ])
        .unwrap();
        let mut wl = t.into_handle("t").build(&WorkloadEnv {
            core: 2,
            cores: 4,
            seed: 0,
        });
        let base = 2u64 << 30;
        assert_eq!(wl.next_access(), Op::Load(base + 64));
        assert_eq!(wl.next_access(), Op::Compute(2));
        assert_eq!(wl.next_access(), Op::Store(base + 128));
        // Wrap-around: the sequence repeats.
        assert_eq!(wl.next_access(), Op::Load(base + 64));
    }

    #[test]
    fn the_digest_follows_the_records_not_their_spelling() {
        let a = Trace::parse("# x\n27 0x1a3f40\n0 68719476736 W\n").unwrap();
        let same = Trace::parse("27 1720128\n\n0 0x1000000000 w\n").unwrap();
        assert_eq!(a.digest(), same.digest());
        for other in [
            "28 0x1a3f40\n0 68719476736 W\n",
            "27 0x1a3f80\n0 68719476736 W\n",
            "27 0x1a3f40\n0 68719476736\n",
            "0 68719476736 W\n27 0x1a3f40\n",
            "27 0x1a3f40\n0 68719476736 W\n0 68719476736 W\n",
        ] {
            let b = Trace::parse(other).unwrap();
            assert_ne!(a.digest(), b.digest(), "{other:?}");
        }
    }

    #[test]
    fn io_errors_are_typed() {
        let err = Trace::load("/definitely/not/a/path.trace").unwrap_err();
        assert!(matches!(err, ParseError::Io { .. }));
        assert!(trace_file("/definitely/not/a/path.trace").is_err());
    }

    #[test]
    fn demo_trace_is_wellformed_and_nontrivial() {
        let t = demo_trace();
        assert!(t.records().len() >= 64);
        let s = t.stats();
        assert!(s.writes > 0, "demo trace should exercise the W flag");
        assert!(s.bubbles > 0, "demo trace should carry compute bubbles");
    }
}
