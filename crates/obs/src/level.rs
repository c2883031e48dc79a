//! Log-level filtering: one shared verbosity knob for every sink.
//!
//! The level order is `Error < Warn < Info < Debug < Trace`: a sink
//! configured at level `L` records everything at or below `L`'s verbosity
//! (an `Info` sink records `error`/`warn`/`info`, drops `debug`/`trace`).
//! The process-wide default comes from the `HIRA_LOG` environment variable
//! ([`Level::from_env`]); binaries layer an explicit `--log-level=` value
//! on top ([`Level::resolve`]).

use std::fmt;
use std::str::FromStr;

/// Event severity / verbosity, least verbose first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    /// A failure the run could not honor.
    Error,
    /// Something off, but the run continues.
    Warn,
    /// Run milestones: sweeps, points, phases (the default).
    #[default]
    Info,
    /// Per-operation detail.
    Debug,
    /// Everything.
    Trace,
}

impl Level {
    /// Every level, least verbose first.
    pub const ALL: [Level; 5] = [
        Level::Error,
        Level::Warn,
        Level::Info,
        Level::Debug,
        Level::Trace,
    ];

    /// The wire/CLI rendering (`"error"`, `"warn"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// The process default from `HIRA_LOG`, falling back to [`Level::Info`]
    /// when unset or unparsable (a misspelled environment variable must not
    /// abort a run that never asked for tracing).
    pub fn from_env() -> Level {
        std::env::var("HIRA_LOG")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(Level::Info)
    }

    /// The effective level of a binary: the explicit `--log-level=` value
    /// when one was passed, else the `HIRA_LOG` default.
    ///
    /// # Panics
    ///
    /// Panics when the explicit value does not name a level — an explicitly
    /// requested verbosity that cannot work is an error, not a fallback.
    pub fn resolve(explicit: Option<&str>) -> Level {
        match explicit {
            None => Level::from_env(),
            Some(v) => v.parse().unwrap_or_else(|e: String| panic!("{e}")),
        }
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Level, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level `{other}` (expected error|warn|info|debug|trace)"
            )),
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_by_verbosity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
        // An Info sink keeps warn, drops debug.
        assert!(Level::Warn <= Level::Info);
        assert!(Level::Debug > Level::Info);
    }

    #[test]
    fn parsing_round_trips_and_rejects_garbage() {
        for l in Level::ALL {
            assert_eq!(l.as_str().parse::<Level>().unwrap(), l);
            assert_eq!(l.to_string(), l.as_str());
        }
        assert_eq!(" WARN ".parse::<Level>().unwrap(), Level::Warn);
        assert_eq!("warning".parse::<Level>().unwrap(), Level::Warn);
        assert!("loud".parse::<Level>().is_err());
    }

    #[test]
    fn resolve_prefers_the_explicit_value() {
        assert_eq!(Level::resolve(Some("debug")), Level::Debug);
    }

    #[test]
    #[should_panic(expected = "unknown log level")]
    fn resolve_rejects_bad_explicit_values() {
        Level::resolve(Some("loud"));
    }
}
