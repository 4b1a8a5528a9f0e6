//! Structured single-line logging for daemon lifecycle events.
//!
//! The daemon's startup/shutdown/recovery messages used to be bare
//! `println!` prose; operators (and the cross-process test battery) need
//! machine-splittable records instead.  [`log`] emits one line per event:
//!
//! ```text
//! level=info off_us=1234 event=serve.listening addr=http://127.0.0.1:8080
//! ```
//!
//! * `level` — `info`/`warn`/`error`,
//! * `off_us` — monotonic offset since the process anchor (no wall
//!   clock: the workspace `clippy.toml` bans `SystemTime::now` here),
//! * `event` — a static dotted name,
//! * then caller fields in order, `key=value`, values containing
//!   whitespace or `"` rendered as a quoted string.
//!
//! Writes go through `writeln!` with the result discarded, so a closed
//! stdout pipe (daemon parent exited) never panics the process.  When
//! tracing is enabled the event name is mirrored into the journal.

use crate::{clock, trace};
use std::io::Write;

/// Log severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Routine lifecycle events.
    Info,
    /// Degraded-but-running conditions.
    Warn,
    /// Failures.
    Error,
}

impl Level {
    /// The `level=` value.
    pub fn name(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// Formats one record without writing it (exposed for tests).
pub fn format_record(level: Level, off_us: u64, event: &str, fields: &[(&str, String)]) -> String {
    let mut line = format!("level={} off_us={off_us} event={event}", level.name());
    for (key, value) in fields {
        let needs_quotes =
            value.is_empty() || value.contains(|c: char| c.is_whitespace() || c == '"');
        if needs_quotes {
            line.push_str(&format!(" {key}=\"{}\"", value.replace('"', "'")));
        } else {
            line.push_str(&format!(" {key}={value}"));
        }
    }
    line
}

/// Emits one structured log line to stdout, tolerating a closed pipe.
pub fn log(level: Level, event: &'static str, fields: &[(&str, String)]) {
    let line = format_record(level, clock::offset_us(), event, fields);
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
    trace::event(event, &[]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_single_line_key_value() {
        let line = format_record(
            Level::Info,
            42,
            "serve.listening",
            &[
                ("addr", "http://127.0.0.1:8080".to_string()),
                ("workers", "4".to_string()),
            ],
        );
        assert_eq!(
            line,
            "level=info off_us=42 event=serve.listening addr=http://127.0.0.1:8080 workers=4"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn awkward_values_are_quoted() {
        let line = format_record(
            Level::Error,
            7,
            "serve.recovery",
            &[("detail", "torn \"tail\" record".to_string())],
        );
        assert_eq!(
            line,
            "level=error off_us=7 event=serve.recovery detail=\"torn 'tail' record\""
        );
    }
}
