//! Reading JSONL traces back into [`Event`]s.

use std::fmt;
use std::fs;
use std::path::Path;

use crate::Event;

/// A malformed trace: the offending 1-based line and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number within the trace (0 when the failure is not
    /// tied to a line, e.g. the file could not be read).
    pub line: usize,
    /// Human-readable description of the failure.
    pub msg: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace error: {}", self.msg)
        } else {
            write!(f, "trace error at line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for TraceError {}

/// Parses a JSONL trace: one event object per line, blank lines
/// ignored.
///
/// # Errors
///
/// Returns a [`TraceError`] carrying the 1-based line number of the
/// first line that is not valid JSON or not a well-formed event object.
pub fn parse_events(text: &str) -> Result<Vec<Event>, TraceError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = icm_json::from_str::<Event>(line).map_err(|e| TraceError {
            line: idx + 1,
            msg: e.to_string(),
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Reads and parses a JSONL trace file.
///
/// # Errors
///
/// Returns a [`TraceError`] if the file cannot be read (line 0) or any
/// line fails to parse.
pub fn read_jsonl_file(path: &Path) -> Result<Vec<Event>, TraceError> {
    let text = fs::read_to_string(path).map_err(|e| TraceError {
        line: 0,
        msg: format!("cannot read {}: {e}", path.display()),
    })?;
    parse_events(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonlSink, SharedBuf, Tracer, Value};

    #[test]
    fn round_trips_a_written_trace() {
        let buf = SharedBuf::new();
        let tracer = Tracer::with_sink(JsonlSink::new(buf.clone()));
        tracer.advance_sim(2.5);
        tracer.event("probe", &[("slowdown", Value::F64(1.4))]);
        tracer.event("done", &[("ok", Value::Bool(true))]);
        tracer.flush();

        let events = parse_events(&buf.text()).expect("valid trace");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "probe");
        assert_eq!(events[0].sim_s, 2.5);
        assert_eq!(events[1].num("ok"), None);
        assert_eq!(events[1].field("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "\n  \n{\"step\":1,\"sim_s\":0,\"name\":\"a\",\"fields\":{}}\n\n";
        let events = parse_events(text).expect("valid trace");
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn rejects_invalid_json_with_line_number() {
        let text = "{\"step\":1,\"sim_s\":0,\"name\":\"a\",\"fields\":{}}\nnot json\n";
        let err = parse_events(text).expect_err("second line is garbage");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_well_formed_json_that_is_not_an_event() {
        let err = parse_events("{\"foo\":1}\n").expect_err("missing event keys");
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn rejects_event_with_extra_keys() {
        let text = "{\"step\":1,\"sim_s\":0,\"name\":\"a\",\"fields\":{},\"extra\":0}\n";
        assert!(parse_events(text).is_err());
    }

    #[test]
    fn missing_file_reports_line_zero() {
        let err = read_jsonl_file(Path::new("/nonexistent/trace.jsonl")).expect_err("no file");
        assert_eq!(err.line, 0);
        assert!(err.to_string().starts_with("trace error:"), "{err}");
    }
}
