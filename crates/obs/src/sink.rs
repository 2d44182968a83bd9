//! Pluggable event sinks: no-op, in-memory ring buffer, JSONL writer.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

use crate::Event;

/// Destination for trace events.
///
/// Sinks receive every event emitted through an enabled
/// [`Tracer`](crate::Tracer); they must not reorder or drop events other
/// than as documented (the ring buffer drops the *oldest* on overflow).
pub trait Sink {
    /// Records one event.
    fn record(&mut self, event: &Event);

    /// Flushes buffered output; a no-op for unbuffered sinks.
    fn flush(&mut self) {}
}

/// Discards every event.
///
/// Useful as an explicit stand-in where a `Sink` value is required; the
/// cheaper way to disable tracing entirely is
/// [`Tracer::disabled`](crate::Tracer::disabled), which skips event
/// construction altogether.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _event: &Event) {}
}

#[derive(Debug)]
struct Ring {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

/// In-memory ring-buffer sink keeping the newest `capacity` events.
///
/// The handle is cheaply cloneable; the clone given to the tracer and
/// the clone kept by the caller share one buffer, so events can be read
/// back after (or during) the traced computation.
#[derive(Debug, Clone)]
pub struct Recorder {
    shared: Rc<RefCell<Ring>>,
}

impl Recorder {
    /// A recorder holding at most `capacity` events (min 1). On
    /// overflow the oldest event is dropped and counted.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            shared: Rc::new(RefCell::new(Ring {
                capacity,
                events: VecDeque::with_capacity(capacity),
                dropped: 0,
            })),
        }
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.shared.borrow().events.iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.shared.borrow().events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped to overflow so far.
    pub fn dropped(&self) -> u64 {
        self.shared.borrow().dropped
    }

    /// Clears the buffer (the drop counter is kept).
    pub fn clear(&self) {
        self.shared.borrow_mut().events.clear();
    }
}

impl Sink for Recorder {
    fn record(&mut self, event: &Event) {
        let mut ring = self.shared.borrow_mut();
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event.clone());
    }
}

/// Writes one compact `icm-json` object per event, newline-terminated
/// (JSONL). Output is byte-identical for identical event streams.
///
/// I/O errors are counted, not propagated — tracing must never abort
/// the computation it observes; check [`io_errors`](Self::io_errors)
/// after flushing if delivery matters.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    io_errors: u64,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }

    /// Opens (creating if absent) a JSONL trace file for appending —
    /// the resume path, where earlier events must be preserved.
    ///
    /// # Errors
    ///
    /// Propagates file-open failures.
    pub fn append(path: &Path) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::new(BufWriter::new(file)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> Self {
        Self { out, io_errors: 0 }
    }

    /// Number of write/flush failures so far.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        let mut line = icm_json::to_string(event);
        line.push('\n');
        if self.out.write_all(line.as_bytes()).is_err() {
            self.io_errors += 1;
        }
    }

    fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.io_errors += 1;
        }
    }
}

/// A cloneable in-memory byte buffer implementing [`Write`] — lets
/// tests (and the byte-identical determinism suite) capture a
/// [`JsonlSink`]'s exact output without touching the filesystem.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf {
    bytes: Rc<RefCell<Vec<u8>>>,
}

impl SharedBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.bytes.borrow().clone()
    }

    /// The contents as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.bytes.borrow()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tracer, Value};

    fn event(step: u64, name: &str) -> Event {
        Event {
            step,
            sim_s: 0.0,
            name: name.to_owned(),
            causes: Vec::new(),
            fields: Vec::new(),
        }
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut sink = NullSink;
        sink.record(&event(1, "x"));
        sink.flush();
    }

    #[test]
    fn ring_buffer_overflow_keeps_newest() {
        let mut recorder = Recorder::with_capacity(3);
        for i in 1..=5 {
            recorder.record(&event(i, &format!("e{i}")));
        }
        let names: Vec<String> = recorder.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["e3", "e4", "e5"], "oldest two dropped");
        assert_eq!(recorder.dropped(), 2);
        assert_eq!(recorder.len(), 3);
    }

    #[test]
    fn ring_capacity_is_at_least_one() {
        let mut recorder = Recorder::with_capacity(0);
        recorder.record(&event(1, "a"));
        recorder.record(&event(2, "b"));
        assert_eq!(recorder.len(), 1);
        assert_eq!(recorder.events()[0].name, "b");
    }

    #[test]
    fn ring_wraparound_preserves_emission_order_across_many_wraps() {
        let mut recorder = Recorder::with_capacity(4);
        for i in 1..=11 {
            recorder.record(&event(i, &format!("e{i}")));
        }
        // Two full wraps plus three: the window is the newest four, in
        // exactly the order they were recorded.
        let steps: Vec<u64> = recorder.events().into_iter().map(|e| e.step).collect();
        assert_eq!(steps, [8, 9, 10, 11]);
        assert!(steps.windows(2).all(|w| w[0] < w[1]), "order preserved");
        assert_eq!(recorder.dropped(), 7);
    }

    #[test]
    fn ring_refills_in_order_after_clear() {
        let mut recorder = Recorder::with_capacity(3);
        for i in 1..=5 {
            recorder.record(&event(i, "x"));
        }
        recorder.clear();
        for i in 6..=10 {
            recorder.record(&event(i, "y"));
        }
        let steps: Vec<u64> = recorder.events().into_iter().map(|e| e.step).collect();
        assert_eq!(steps, [8, 9, 10], "wraparound restarts cleanly after clear");
        assert_eq!(recorder.dropped(), 2 + 2);
    }

    #[test]
    fn recorder_clear_keeps_drop_counter() {
        let mut recorder = Recorder::with_capacity(1);
        recorder.record(&event(1, "a"));
        recorder.record(&event(2, "b"));
        recorder.clear();
        assert!(recorder.is_empty());
        assert_eq!(recorder.dropped(), 1);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf = SharedBuf::new();
        let tracer = Tracer::with_sink(JsonlSink::new(buf.clone()));
        tracer.event("a", &[("k", Value::U64(1))]);
        tracer.event("b", &[]);
        tracer.flush();
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"step":1,"sim_s":0,"name":"a","fields":{"k":1}}"#
        );
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn jsonl_sink_counts_io_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("nope"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("nope"))
            }
        }
        let mut sink = JsonlSink::new(Broken);
        sink.record(&event(1, "x"));
        sink.flush();
        assert_eq!(sink.io_errors(), 2);
    }
}
