//! Reading JSONL traces back into [`Event`]s, and replaying their
//! spans.
//!
//! Spans arrive in a trace as flat `<name>.begin` / `<name>.end` event
//! pairs carrying a `span` id. [`SpanMatcher`] is the one place that
//! pairs them: the trace summary, the flamegraph and the telemetry
//! accumulator all feed it event by event.

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

/// Spans a [`SpanMatcher`] holds open at once. Past this depth the
/// oldest open span is dropped and counted as dangling, so a producer
/// that loses its `.end` events cannot grow the matcher without bound.
pub const MAX_OPEN_SPANS: usize = 256;

/// A span the matcher opened: its id, its base name (`run` for
/// `run.begin`) and the `.begin` event itself.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenSpan {
    /// The `span` id the `.begin` carried.
    pub id: u64,
    /// The event name without its `.begin` suffix.
    pub name: String,
    /// The `.begin` event, for its clock stamps and fields.
    pub begin: Event,
}

/// What one event is to the span replay.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanEdge {
    /// Not a span edge: a point event.
    Point,
    /// A `.begin`; it opened a span if it carried a `span` id.
    Begin,
    /// A `.end`, with the span it closed, or `None` when it matched no
    /// open span (counted as dangling).
    End(Option<OpenSpan>),
}

/// Streaming `.begin`/`.end` pairing with one dangling policy.
///
/// * A `.end` closes the nearest open span with its id; spans opened
///   after that one never got their `.end`, so they are dropped and
///   count as dangling.
/// * A `.end` that matches no open span (or carries no id) is dangling.
/// * A span still open at the end of the trace is dangling.
/// * At most [`MAX_OPEN_SPANS`] spans stay open; a deeper `.begin`
///   drops the oldest open span as dangling.
///
/// A well-nested trace has no dangling spans, and then every `.end`
/// closes the innermost open span.
#[derive(Debug, Clone, Default)]
pub struct SpanMatcher {
    open: Vec<OpenSpan>,
    dangling: u64,
}

impl SpanMatcher {
    /// A matcher with no open spans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the next event of the trace.
    pub fn push(&mut self, event: &Event) -> SpanEdge {
        if let Some(name) = event.name.strip_suffix(".begin") {
            if let Some(id) = event.num("span") {
                if self.open.len() == MAX_OPEN_SPANS {
                    self.open.remove(0);
                    self.dangling += 1;
                }
                self.open.push(OpenSpan {
                    id: id as u64,
                    name: name.to_owned(),
                    begin: event.clone(),
                });
            }
            return SpanEdge::Begin;
        }
        if !event.name.ends_with(".end") {
            return SpanEdge::Point;
        }
        let found = event.num("span").and_then(|id| {
            let id = id as u64;
            self.open.iter().rposition(|span| span.id == id)
        });
        let Some(pos) = found else {
            self.dangling += 1;
            return SpanEdge::End(None);
        };
        self.dangling += (self.open.len() - pos - 1) as u64;
        self.open.truncate(pos + 1);
        SpanEdge::End(self.open.pop())
    }

    /// The spans open now, outermost first. Right after a `.end`, this
    /// is the path that encloses the span it closed.
    pub fn open(&self) -> &[OpenSpan] {
        &self.open
    }

    /// Dangling span events so far, counting the spans still open as
    /// if the trace ended here.
    pub fn dangling(&self) -> u64 {
        self.dangling + self.open.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonlSink, SharedBuf, Tracer, Value};

    #[test]
    fn the_open_stack_is_bounded() {
        let (tracer, recorder) = Tracer::recording(1024);
        let deep: Vec<_> = (0..MAX_OPEN_SPANS + 2)
            .map(|_| tracer.span("deep", &[]))
            .collect();
        let mut spans = SpanMatcher::new();
        for event in recorder.events() {
            spans.push(&event);
        }
        assert_eq!(spans.open().len(), MAX_OPEN_SPANS);
        assert_eq!(
            spans.open()[0].id,
            deep[2].id(),
            "the oldest two are dropped"
        );
        assert_eq!(spans.dangling(), MAX_OPEN_SPANS as u64 + 2);
        drop(deep);
    }

    #[test]
    fn a_well_nested_trace_closes_innermost_first() {
        let (tracer, recorder) = Tracer::recording(64);
        let outer = tracer.span("deploy", &[]);
        let inner = tracer.span("run", &[("kind", Value::from("solo"))]);
        tracer.advance_sim(2.0);
        inner.end();
        outer.end();
        let mut spans = SpanMatcher::new();
        let edges: Vec<SpanEdge> = recorder.events().iter().map(|e| spans.push(e)).collect();
        assert_eq!(edges[0], SpanEdge::Begin);
        let SpanEdge::End(Some(run)) = &edges[2] else {
            panic!("run closes: {edges:?}");
        };
        assert_eq!(run.name, "run");
        assert_eq!(run.begin.str("kind"), Some("solo"));
        assert!(matches!(&edges[3], SpanEdge::End(Some(s)) if s.name == "deploy"));
        assert_eq!(spans.dangling(), 0);
    }

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
