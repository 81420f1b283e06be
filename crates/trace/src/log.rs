//! Leveled structured logging with text and JSON formats.
//!
//! One global logger, initialized once at server boot ([`init`]) and
//! filtered by a relaxed atomic level check — a disabled-level call is
//! a load and an early return. Every record carries a target (the
//! subsystem, e.g. `"replication"`), a message, and `key=value` fields;
//! when the calling thread is inside an active trace span the record is
//! stamped with that trace id, so log lines join up with span trees.
//!
//! ```
//! use shbf_trace::log::{self, Level};
//! log::warn("replication", "link failed; retrying", &[("primary", &"10.0.0.1:7000")]);
//! assert!(!log::level_enabled(Level::Debug)); // Info is the default
//! ```
//!
//! | format | example |
//! |---|---|
//! | `text` | `2026-08-08T12:00:00Z WARN replication link failed; retrying primary=10.0.0.1:7000 trace=1a2b` |
//! | `json` | `{"ts":"2026-08-08T12:00:00Z","level":"warn","target":"replication","msg":"link failed; retrying","primary":"10.0.0.1:7000","trace_id":"1a2b"}` |

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The subsystem failed; data or availability is at risk.
    Error = 0,
    /// Something degraded but the system keeps serving.
    Warn = 1,
    /// Lifecycle events worth a line in production.
    Info = 2,
    /// Verbose diagnostics for development and incident debugging.
    Debug = 3,
}

impl Level {
    /// Parses `error|warn|info|debug` (case-insensitive).
    pub fn parse(s: &str) -> Result<Level, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!(
                "log level: want error|warn|info|debug, got `{other}`"
            )),
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Output encoding for log records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// One human-readable line: `ts LEVEL target msg k=v…`.
    #[default]
    Text,
    /// One JSON object per line.
    Json,
}

impl Format {
    /// Parses `text|json` (case-insensitive).
    pub fn parse(s: &str) -> Result<Format, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            other => Err(format!("log format: want text|json, got `{other}`")),
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static FORMAT: AtomicU8 = AtomicU8::new(0); // 0 = text, 1 = json

/// Sets the global level filter and output format (the server calls
/// this once at boot from `--log-level` / `--log-format`).
pub fn init(level: Level, format: Format) {
    LEVEL.store(level as u8, Ordering::Relaxed);
    FORMAT.store(matches!(format, Format::Json) as u8, Ordering::Relaxed);
}

/// `true` iff records at `level` pass the filter. Single relaxed load.
#[inline]
pub fn level_enabled(level: Level) -> bool {
    level as u8 <= LEVEL.load(Ordering::Relaxed)
}

/// A record's `key=value` fields: display-able values borrowed from the
/// call site, formatted only when the record passes the filter.
pub type Fields<'a> = &'a [(&'a str, &'a dyn fmt::Display)];

/// Renders one record without emitting it (the pure core `emit` uses;
/// exposed for tests). `trace_id` is stamped when `Some`.
pub fn render(
    format: Format,
    ts: &str,
    level: Level,
    target: &str,
    msg: &str,
    fields: Fields<'_>,
    trace_id: Option<u64>,
) -> String {
    match format {
        Format::Text => {
            let mut line = format!(
                "{ts} {level:5} {target} {msg}",
                level = level.as_str().to_ascii_uppercase()
            );
            for (k, v) in fields {
                line.push_str(&format!(" {k}={v}"));
            }
            if let Some(id) = trace_id {
                line.push_str(&format!(" trace={id:x}"));
            }
            line
        }
        Format::Json => {
            let mut line = format!(
                "{{\"ts\":\"{}\",\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
                crate::json_escape(ts),
                level.as_str(),
                crate::json_escape(target),
                crate::json_escape(msg),
            );
            for (k, v) in fields {
                line.push_str(&format!(
                    ",\"{}\":\"{}\"",
                    crate::json_escape(k),
                    crate::json_escape(&v.to_string())
                ));
            }
            if let Some(id) = trace_id {
                line.push_str(&format!(",\"trace_id\":\"{id:x}\""));
            }
            line.push('}');
            line
        }
    }
}

/// Emits one record at `level` if it passes the filter.
pub fn emit(level: Level, target: &str, msg: &str, fields: Fields<'_>) {
    if !level_enabled(level) {
        return;
    }
    let format = if FORMAT.load(Ordering::Relaxed) == 1 {
        Format::Json
    } else {
        Format::Text
    };
    let line = render(
        format,
        &iso8601_utc_now(),
        level,
        target,
        msg,
        fields,
        crate::current_trace_id(),
    );
    // Best-effort: a closed stderr must not take the server down.
    let stderr = std::io::stderr();
    let _ = writeln!(stderr.lock(), "{line}");
}

/// Emits an error-level record.
pub fn error(target: &str, msg: &str, fields: Fields<'_>) {
    emit(Level::Error, target, msg, fields);
}

/// Emits a warn-level record.
pub fn warn(target: &str, msg: &str, fields: Fields<'_>) {
    emit(Level::Warn, target, msg, fields);
}

/// Emits an info-level record.
pub fn info(target: &str, msg: &str, fields: Fields<'_>) {
    emit(Level::Info, target, msg, fields);
}

/// Emits a debug-level record.
pub fn debug(target: &str, msg: &str, fields: Fields<'_>) {
    emit(Level::Debug, target, msg, fields);
}

/// Current wall-clock time as `YYYY-MM-DDTHH:MM:SSZ` (UTC, std-only).
pub fn iso8601_utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    let tod = secs % 86_400;
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        tod / 3600,
        (tod / 60) % 60,
        tod % 60
    )
}

/// Proleptic-Gregorian date for a day count since 1970-01-01
/// (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("WARN"), Ok(Level::Warn));
        assert_eq!(Level::parse("debug"), Ok(Level::Debug));
        assert!(Level::parse("loud").is_err());
        assert!(Level::Error < Level::Debug);
        assert_eq!(Format::parse("JSON"), Ok(Format::Json));
        assert!(Format::parse("xml").is_err());
    }

    #[test]
    fn text_render_is_one_line_with_fields() {
        let line = render(
            Format::Text,
            "2026-08-08T00:00:00Z",
            Level::Warn,
            "replication",
            "link failed; retrying",
            &[("primary", &"10.0.0.1:7000"), ("attempt", &3)],
            Some(0x1a2b),
        );
        assert_eq!(
            line,
            "2026-08-08T00:00:00Z WARN  replication link failed; retrying \
             primary=10.0.0.1:7000 attempt=3 trace=1a2b"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn json_render_escapes_and_stamps_trace() {
        let line = render(
            Format::Json,
            "2026-08-08T00:00:00Z",
            Level::Error,
            "wal",
            "append failed: \"disk full\"",
            &[("path", &"/var/wal\\seg")],
            None,
        );
        assert_eq!(
            line,
            "{\"ts\":\"2026-08-08T00:00:00Z\",\"level\":\"error\",\"target\":\"wal\",\
             \"msg\":\"append failed: \\\"disk full\\\"\",\"path\":\"/var/wal\\\\seg\"}"
        );
        let stamped = render(Format::Json, "t", Level::Info, "a", "b", &[], Some(0xff));
        assert!(stamped.ends_with(",\"trace_id\":\"ff\"}"));
    }

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_300), (2025, 7, 31));
        assert_eq!(civil_from_days(20_301), (2025, 8, 1));
    }

    #[test]
    fn timestamp_is_iso8601() {
        let ts = iso8601_utc_now();
        assert_eq!(ts.len(), 20, "{ts}");
        assert!(ts.ends_with('Z'));
        assert_eq!(&ts[4..5], "-");
        assert_eq!(&ts[10..11], "T");
    }
}
