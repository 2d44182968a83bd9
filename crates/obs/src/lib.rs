//! Deterministic structured tracing and metrics for the ICM workspace.
//!
//! The paper's central claims are *cost/trajectory* claims — profiling
//! takes O(N) testbed runs instead of O(N²) pairings (Table 3), and the
//! placement search converges to near-optimal mappings (Figs. 10/11).
//! This crate makes those trajectories observable: instrumented code
//! emits typed [`Event`]s and [`Span`]s through a cloneable [`Tracer`]
//! handle into a pluggable [`Sink`] — a no-op sink whose disabled-path
//! cost is a single pointer check, an in-memory ring-buffer
//! [`Recorder`], or a [`JsonlSink`] writing one `icm-json` object per
//! line.
//!
//! # Determinism
//!
//! Events are **never** stamped with wall-clock time. The [`Clock`]
//! carries two deterministic coordinates:
//!
//! * `step` — a monotonic counter incremented once per emitted event,
//! * `sim_s` — cumulative *simulated* seconds, advanced explicitly by
//!   the simulator (`SimTestbed` adds each run's simulated duration).
//!
//! Both derive purely from the computation, so a traced run at a fixed
//! seed produces a byte-identical JSONL file every time — traces can be
//! diffed, cached and replayed. See `DESIGN.md` §8.
//!
//! Wall-clock timings still exist — as a strictly separate side channel:
//! [`Tracer::enable_wall_profiling`] makes spans and
//! [`Tracer::wall_scope`] guards record wall durations into a
//! [`WallProfile`] (dumped as `profile.json`) without ever touching the
//! event stream, so profiling a run cannot perturb its trace.
//!
//! # Example
//!
//! ```
//! use icm_obs::{Tracer, Value};
//!
//! let (tracer, recorder) = Tracer::recording(1024);
//! tracer.advance_sim(12.5);
//! tracer.event("probe", &[("pressure", Value::from(3u64)), ("slowdown", 1.4.into())]);
//!
//! let events = recorder.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].name, "probe");
//! assert_eq!(events[0].sim_s, 12.5);
//! let line = icm_json::to_string(&events[0]);
//! assert_eq!(
//!     line,
//!     r#"{"step":1,"sim_s":12.5,"name":"probe","fields":{"pressure":3,"slowdown":1.4}}"#
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use icm_json::{FieldSlot, FromJson, JsonError, Reader, ToJson, Token, MAX_EXACT_INT};

pub mod bucket;
pub mod manager;
pub mod provenance;
mod reader;
mod sink;
mod sketch;
mod telemetry;
mod wall;

pub use provenance::{
    DetectionInput, ObservationRef, OutcomeRef, PlacementRef, ProvenanceRecord, QOS_VIOLATION,
};
pub use reader::{
    parse_events, read_jsonl_file, OpenSpan, SpanEdge, SpanMatcher, TraceError, MAX_OPEN_SPANS,
};
pub use sink::{JsonlSink, NullSink, Recorder, SharedBuf, Sink};
pub use sketch::{QuantileSketch, DEFAULT_MAX_BUCKETS};
pub use telemetry::{
    HealthSnapshot, Telemetry, TelemetryConfig, TelemetrySink, TELEMETRY_BYTE_BUDGET,
};
pub use wall::WallProfile;

/// A typed field value attached to an [`Event`].
///
/// Integers are written as their exact decimal text, which up to 2⁵³ is
/// also the text of the same value as an `f64`. On the read side a JSON
/// number deserializes as [`Value::F64`] (JSON does not distinguish
/// integer kinds), unless it is integer text an `f64` cannot hold —
/// 2⁵³ or more in magnitude, such as a derived search seed — which
/// reads back exactly as [`Value::U64`] or [`Value::I64`]. Either way
/// serialize → parse → serialize is byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned counter.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Measurement.
    F64(f64),
    /// Label.
    Str(String),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    /// Numeric payload, unifying the three number variants.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

impl ToJson for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Bool(b) => b.write_json(out),
            Value::U64(v) => v.write_json(out),
            Value::I64(v) => v.write_json(out),
            Value::F64(v) => v.write_json(out),
            Value::Str(s) => s.write_json(out),
        }
    }
}

impl FromJson for Value {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        match r.peek()? {
            Token::Bool => r.bool().map(Value::Bool),
            Token::Number => {
                let (n, text) = r.number_text()?;
                if n.abs() >= MAX_EXACT_INT as f64 {
                    if let Ok(v) = text.parse() {
                        return Ok(Value::U64(v));
                    }
                    if let Ok(v) = text.parse() {
                        return Ok(Value::I64(v));
                    }
                }
                Ok(Value::F64(n))
            }
            Token::String => r.string().map(|s| Value::Str(s.into_owned())),
            other => Err(JsonError::msg(format!(
                "field value must be bool, number or string, found {}",
                other.name()
            ))),
        }
    }
}

/// One structured trace event.
///
/// Serializes as a single compact JSON object —
/// `{"step":…,"sim_s":…,"name":…,"fields":{…}}` — one per line in a
/// JSONL trace. Field order is insertion order, so a deterministic
/// emitter produces byte-identical lines.
///
/// The `step` counter doubles as the event's **id**: it is assigned
/// monotonically per sink and never from wall time, so the same
/// computation assigns the same ids every run. Events may carry a
/// `causes` list of earlier event ids — the causal edges
/// `icm-trace explain` walks. An empty `causes` list is elided from the
/// JSON so pre-provenance traces and cause-free events serialize
/// byte-identically to before.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic event counter (1-based; assigned by the [`Tracer`]).
    /// Doubles as the deterministic event id `causes` entries refer to.
    pub step: u64,
    /// Cumulative simulated seconds when the event was emitted.
    pub sim_s: f64,
    /// Event name, e.g. `"probe"` or `"run.begin"`.
    pub name: String,
    /// Ids (`step` values) of earlier events that caused this one.
    /// Empty for root events; elided from the JSON when empty.
    pub causes: Vec<u64>,
    /// Typed key–value payload, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Numeric field shortcut.
    pub fn num(&self, name: &str) -> Option<f64> {
        self.field(name).and_then(Value::as_f64)
    }

    /// String field shortcut.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.field(name).and_then(Value::as_str)
    }
}

impl ToJson for Event {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"step\":");
        self.step.write_json(out);
        out.push_str(",\"sim_s\":");
        self.sim_s.write_json(out);
        out.push_str(",\"name\":");
        self.name.write_json(out);
        if !self.causes.is_empty() {
            out.push_str(",\"causes\":");
            self.causes.write_json(out);
        }
        out.push_str(",\"fields\":");
        icm_json::write_object(out, self.fields.iter().map(|(k, v)| (k.as_str(), v)));
        out.push('}');
    }
}

impl FromJson for Event {
    /// Exactly the keys `step`, `sim_s`, `name`, `fields` and optionally
    /// `causes`, in any order; any other key is refused.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let found = r.peek()?;
        if found != Token::Object {
            return Err(JsonError::msg(format!(
                "Event: expected object, found {}",
                found.name()
            )));
        }
        let (mut step, mut sim_s, mut name, mut causes) = (None, None, None, None);
        let mut fields: Option<Vec<(String, Value)>> = None;
        r.object(|r, key| match &*key {
            "step" => step.read(r, "Event", "step"),
            "sim_s" => sim_s.read(r, "Event", "sim_s"),
            "name" => name.read(r, "Event", "name"),
            "causes" => causes.read(r, "Event", "causes"),
            "fields" if fields.is_none() => {
                let pairs = fields.insert(Vec::new());
                r.object(|r, k| {
                    if pairs.iter().any(|(seen, _)| *seen == k) {
                        return Err(r.duplicate_key(&k));
                    }
                    let value = Value::read_json(r).map_err(|e| e.in_field("Event", &k))?;
                    pairs.push((k.into_owned(), value));
                    Ok(())
                })
            }
            "fields" => Err(r.duplicate_key("fields")),
            other => Err(JsonError::msg(format!(
                "Event: unexpected key `{other}` (expected exactly step/sim_s/name/[causes/]fields)"
            ))),
        })?;
        let missing = |field| icm_json::missing_field("Event", field);
        Ok(Event {
            step: step.ok_or_else(|| missing("step"))?,
            sim_s: sim_s.ok_or_else(|| missing("sim_s"))?,
            name: name.ok_or_else(|| missing("name"))?,
            causes: causes.unwrap_or_default(),
            fields: fields.ok_or_else(|| missing("fields"))?,
        })
    }
}

/// A deterministic timestamp: event counter plus simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamp {
    /// Monotonic event counter.
    pub step: u64,
    /// Cumulative simulated seconds.
    pub sim_s: f64,
}

/// The deterministic clock every event is stamped from.
///
/// Wall-clock time never enters a trace: `step` counts emitted events
/// and `sim_s` is advanced explicitly with the simulation. Identical
/// computations therefore stamp identical timestamps, which is what
/// makes same-seed traces byte-identical (and traces resumable — a
/// replay re-derives the exact same clock).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Clock {
    step: u64,
    sim_s: f64,
}

impl Clock {
    /// A clock at step 0, zero simulated seconds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the event counter and returns the new stamp.
    pub fn tick(&mut self) -> Stamp {
        self.step += 1;
        Stamp {
            step: self.step,
            sim_s: self.sim_s,
        }
    }

    /// Adds simulated seconds. A negative, NaN or infinite delta is a
    /// caller bug: debug builds panic on it; release builds saturate to
    /// a no-op so a buggy caller can never rewind or poison the clock.
    pub fn advance_sim(&mut self, seconds: f64) {
        debug_assert!(
            seconds.is_finite() && seconds >= 0.0,
            "Clock::advance_sim: invalid delta {seconds} (release builds ignore it)"
        );
        if seconds.is_finite() && seconds > 0.0 {
            self.sim_s += seconds;
        }
    }

    /// Current stamp without advancing.
    pub fn now(&self) -> Stamp {
        Stamp {
            step: self.step,
            sim_s: self.sim_s,
        }
    }

    /// A clock positioned at an arbitrary point, for resuming a trace
    /// from a savestate. A non-finite or negative `sim_s` is clamped to
    /// zero (mirroring [`Clock::advance_sim`]'s refusal to poison the
    /// clock).
    pub fn at(step: u64, sim_s: f64) -> Self {
        Self {
            step,
            sim_s: if sim_s.is_finite() && sim_s > 0.0 {
                sim_s
            } else {
                0.0
            },
        }
    }
}

/// Portable position of a [`Tracer`]: everything needed to make a
/// resumed run stamp events exactly where an uninterrupted run would
/// have. Captured with [`Tracer::state`], reapplied with
/// [`Tracer::restore_state`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TracerState {
    /// Monotonic event counter (the `step` of the last emitted event).
    pub step: u64,
    /// Cumulative simulated seconds.
    pub sim_s: f64,
    /// Next span id to assign.
    pub next_span: u64,
}

icm_json::impl_json!(struct TracerState { step, sim_s, next_span });

struct Inner {
    clock: Clock,
    sink: Box<dyn Sink>,
    next_span: u64,
    /// Wall-time side channel (`None` until enabled). Lives next to the
    /// sink but never writes through it, so enabling it cannot change
    /// the deterministic event stream.
    wall: Option<WallProfile>,
    /// Telemetry aggregation handle (`None` unless constructed via
    /// [`Tracer::with_telemetry`]). Direct observations through it
    /// never touch the event stream — see `telemetry.rs`.
    telemetry: Option<Telemetry>,
}

/// Cloneable handle instrumented code emits through.
///
/// A disabled tracer (the default) costs one `Option` check per call —
/// hot paths additionally guard field construction behind
/// [`enabled`](Tracer::enabled). All clones of a tracer share one sink
/// and one [`Clock`].
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<Inner>>>,
}

// `Tracer` holds a `dyn Sink`, so `Debug` prints only liveness + clock.
impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(inner) => {
                let stamp = inner.borrow().clock.now();
                write!(f, "Tracer(step {}, sim_s {})", stamp.step, stamp.sim_s)
            }
        }
    }
}

impl Tracer {
    /// A tracer that drops everything (the near-zero-cost default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Wraps an arbitrary sink.
    pub fn with_sink<S: Sink + 'static>(sink: S) -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(Inner {
                clock: Clock::new(),
                sink: Box::new(sink),
                next_span: 0,
                wall: None,
                telemetry: None,
            }))),
        }
    }

    /// Wraps a [`TelemetrySink`] and keeps a handle onto its shared
    /// [`Telemetry`] accumulator, enabling the direct
    /// [`telemetry_count`](Self::telemetry_count) /
    /// [`telemetry_observe`](Self::telemetry_observe) /
    /// [`telemetry_merge_sketch`](Self::telemetry_merge_sketch) paths
    /// in addition to event-stream aggregation.
    pub fn with_telemetry(sink: TelemetrySink) -> Self {
        let handle = sink.handle();
        let tracer = Self::with_sink(sink);
        if let Some(inner) = &tracer.inner {
            inner.borrow_mut().telemetry = Some(handle);
        }
        tracer
    }

    /// A tracer recording into an in-memory ring buffer of `capacity`
    /// events; the returned [`Recorder`] handle reads them back.
    pub fn recording(capacity: usize) -> (Self, Recorder) {
        let recorder = Recorder::with_capacity(capacity);
        (Self::with_sink(recorder.clone()), recorder)
    }

    /// A tracer that discards every event but has wall-time profiling
    /// enabled — the cheapest way to profile a computation without
    /// collecting a trace.
    pub fn wall_only() -> Self {
        let tracer = Self::with_sink(NullSink);
        tracer.enable_wall_profiling();
        tracer
    }

    /// A tracer appending JSONL to a freshly created file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn jsonl_file(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::with_sink(JsonlSink::create(path)?))
    }

    /// Captures the tracer's position (clock + span counter) for a
    /// savestate. A disabled tracer reports the zero state.
    pub fn state(&self) -> TracerState {
        match &self.inner {
            None => TracerState::default(),
            Some(inner) => {
                let borrow = inner.borrow();
                let stamp = borrow.clock.now();
                TracerState {
                    step: stamp.step,
                    sim_s: stamp.sim_s,
                    next_span: borrow.next_span,
                }
            }
        }
    }

    /// Repositions the clock and span counter from a captured
    /// [`TracerState`], so events emitted next continue the saved
    /// run's stamp sequence exactly. A no-op on a disabled tracer.
    pub fn restore_state(&self, state: &TracerState) {
        if let Some(inner) = &self.inner {
            let mut borrow = inner.borrow_mut();
            borrow.clock = Clock::at(state.step, state.sim_s);
            borrow.next_span = state.next_span;
        }
    }

    /// Whether events are being recorded. Instrumentation with
    /// expensive field construction should check this first.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits one event with the given fields and returns its id (the
    /// assigned `step`; 0 on a disabled tracer, which never appears as
    /// a real id — steps are 1-based).
    pub fn event(&self, name: &str, fields: &[(&str, Value)]) -> u64 {
        self.emit(name, &[], fields)
    }

    /// Emits one event carrying causal links to earlier events and
    /// returns its id. Ids of 0 (from a disabled tracer) are filtered
    /// out so disabled-path callers can pass captured ids verbatim.
    pub fn event_caused(&self, name: &str, causes: &[u64], fields: &[(&str, Value)]) -> u64 {
        self.emit(name, causes, fields)
    }

    fn emit(&self, name: &str, causes: &[u64], fields: &[(&str, Value)]) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let mut inner = inner.borrow_mut();
        let stamp = inner.clock.tick();
        let event = Event {
            step: stamp.step,
            sim_s: stamp.sim_s,
            name: name.to_owned(),
            causes: causes.iter().copied().filter(|&id| id != 0).collect(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        };
        inner.sink.record(&event);
        stamp.step
    }

    /// Opens a span: emits `"<name>.begin"` carrying a fresh `span` id
    /// plus `fields`, and returns a guard whose [`Span::end`] (or drop)
    /// emits the matching `"<name>.end"`.
    pub fn span(&self, name: &str, fields: &[(&str, Value)]) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                tracer: Tracer::disabled(),
                name: String::new(),
                id: 0,
                ended: true,
                wall_start: None,
            };
        };
        let (id, wall) = {
            let mut borrow = inner.borrow_mut();
            borrow.next_span += 1;
            (borrow.next_span, borrow.wall.is_some())
        };
        let mut all = Vec::with_capacity(fields.len() + 1);
        all.push(("span", Value::U64(id)));
        all.extend_from_slice(fields);
        self.event(&format!("{name}.begin"), &all);
        Span {
            tracer: self.clone(),
            name: name.to_owned(),
            id,
            ended: false,
            wall_start: wall.then(std::time::Instant::now),
        }
    }

    /// Adds simulated seconds to the shared clock.
    pub fn advance_sim(&self, seconds: f64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().clock.advance_sim(seconds);
        }
    }

    /// Turns on the wall-time side channel (see [`WallProfile`]): from
    /// now on every completed [`Span`] and [`wall_scope`](Self::wall_scope)
    /// records its wall duration, keyed by name, strictly outside the
    /// event stream. Returns `false` on a disabled tracer (nothing to
    /// attach the profile to).
    pub fn enable_wall_profiling(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let mut inner = inner.borrow_mut();
        if inner.wall.is_none() {
            inner.wall = Some(WallProfile::new());
        }
        true
    }

    /// Whether the wall-time side channel is collecting.
    pub fn wall_profiling_enabled(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.borrow().wall.is_some(),
            None => false,
        }
    }

    /// Records one wall duration under `name` (no-op unless
    /// [`enable_wall_profiling`](Self::enable_wall_profiling) was called):
    /// the form for work timed off this thread, which holds no tracer.
    pub fn record_wall(&self, name: &str, elapsed: std::time::Duration) {
        if let Some(inner) = &self.inner {
            if let Some(wall) = inner.borrow_mut().wall.as_mut() {
                wall.record(name, elapsed);
            }
        }
    }

    /// Times a scope on the wall clock *without emitting any event*:
    /// the returned guard records its elapsed wall time under `name`
    /// when dropped. When profiling is off (the default) the guard does
    /// nothing and the wall clock is never read — safe to leave in hot
    /// paths.
    pub fn wall_scope(&self, name: &'static str) -> WallScope {
        WallScope {
            target: self
                .wall_profiling_enabled()
                .then(|| (self.clone(), std::time::Instant::now())),
            name,
        }
    }

    /// Snapshot of the wall-time profile (`None` when profiling is off).
    pub fn wall_profile(&self) -> Option<WallProfile> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.borrow().wall.clone())
    }

    /// Current deterministic timestamp (zero when disabled).
    pub fn now(&self) -> Stamp {
        match &self.inner {
            Some(inner) => inner.borrow().clock.now(),
            None => Stamp {
                step: 0,
                sim_s: 0.0,
            },
        }
    }

    /// Flushes the sink (e.g. a buffered JSONL writer).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().sink.flush();
        }
    }

    /// The attached telemetry accumulator, if this tracer was built
    /// with [`with_telemetry`](Self::with_telemetry). Hot paths with
    /// expensive aggregation (e.g. per-iteration sketches) should check
    /// this first, mirroring [`enabled`](Self::enabled).
    pub fn telemetry(&self) -> Option<Telemetry> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.borrow().telemetry.clone())
    }

    /// Adds `n` to a telemetry health counter. Emits **no** event — the
    /// raw trace of a telemetry-on run stays byte-identical to a
    /// telemetry-off run. No-op without attached telemetry.
    pub fn telemetry_count(&self, name: &str, n: u64) {
        if let Some(telemetry) = self.telemetry() {
            telemetry.count(name, n);
        }
    }

    /// Observes one value into a telemetry series at the current
    /// simulated time. Emits **no** event. No-op without telemetry.
    pub fn telemetry_observe(&self, name: &str, value: f64) {
        if let Some(telemetry) = self.telemetry() {
            telemetry.observe(name, self.now().sim_s, value);
        }
    }

    /// Merges a pre-built sketch into a telemetry series — the exact-merge
    /// path the annealer uses to add its candidate costs once per search.
    /// Emits **no** event. No-op without telemetry.
    pub fn telemetry_merge_sketch(&self, name: &str, sketch: &QuantileSketch) {
        if let Some(telemetry) = self.telemetry() {
            telemetry.merge_series_sketch(name, self.now().sim_s, sketch);
        }
    }
}

/// Guard for an open span; see [`Tracer::span`].
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    name: String,
    id: u64,
    ended: bool,
    /// Set only while wall profiling is on; read back at span end. Wall
    /// time flows exclusively into the side channel, never into events.
    wall_start: Option<std::time::Instant>,
}

impl Span {
    /// The span id carried by the begin/end events (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ends the span with extra result fields.
    pub fn end_with(mut self, fields: &[(&str, Value)]) {
        self.emit_end(fields);
    }

    /// Ends the span without extra fields.
    pub fn end(mut self) {
        self.emit_end(&[]);
    }

    fn emit_end(&mut self, fields: &[(&str, Value)]) {
        if self.ended {
            return;
        }
        self.ended = true;
        let mut all = Vec::with_capacity(fields.len() + 1);
        all.push(("span", Value::U64(self.id)));
        all.extend_from_slice(fields);
        self.tracer.event(&format!("{}.end", self.name), &all);
        if let Some(start) = self.wall_start.take() {
            self.tracer.record_wall(&self.name, start.elapsed());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit_end(&[]);
    }
}

/// Guard returned by [`Tracer::wall_scope`]: records its elapsed wall
/// time (under the scope name) into the wall-time side channel on drop,
/// emitting **no** event. Inert when profiling is off.
#[derive(Debug)]
pub struct WallScope {
    target: Option<(Tracer, std::time::Instant)>,
    name: &'static str,
}

impl Drop for WallScope {
    fn drop(&mut self) {
        if let Some((tracer, start)) = self.target.take() {
            tracer.record_wall(self.name, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.event("x", &[("a", 1.0.into())]);
        tracer.advance_sim(5.0);
        assert_eq!(
            tracer.now(),
            Stamp {
                step: 0,
                sim_s: 0.0
            }
        );
        let span = tracer.span("s", &[]);
        assert_eq!(span.id(), 0);
        span.end();
    }

    #[test]
    fn events_are_stamped_monotonically() {
        let (tracer, recorder) = Tracer::recording(16);
        tracer.event("a", &[]);
        tracer.advance_sim(2.5);
        tracer.event("b", &[]);
        let events = recorder.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].step, 1);
        assert_eq!(events[0].sim_s, 0.0);
        assert_eq!(events[1].step, 2);
        assert_eq!(events[1].sim_s, 2.5);
    }

    #[test]
    fn clock_accepts_zero_and_positive_deltas() {
        let mut clock = Clock::new();
        clock.advance_sim(0.0);
        assert_eq!(clock.now().sim_s, 0.0);
        clock.advance_sim(3.0);
        assert_eq!(clock.now().sim_s, 3.0);
    }

    #[test]
    fn restored_tracer_continues_the_stamp_sequence() {
        // Run A: uninterrupted.
        let (full, full_rec) = Tracer::recording(16);
        full.event("a", &[]);
        full.advance_sim(1.5);
        let _span = full.span("work", &[]); // consumes a span id
        full.event("b", &[]);

        // Run B: same prefix, then save/restore into a fresh tracer.
        let (prefix, _prefix_rec) = Tracer::recording(16);
        prefix.event("a", &[]);
        prefix.advance_sim(1.5);
        let _span2 = prefix.span("work", &[]);
        let saved = prefix.state();
        let restored: TracerState =
            icm_json::from_str(&icm_json::to_string(&saved)).expect("state round-trips");
        assert_eq!(saved, restored);

        let (resumed, resumed_rec) = Tracer::recording(16);
        resumed.restore_state(&restored);
        resumed.event("b", &[]);

        let full_events = full_rec.events();
        let tail = resumed_rec.events();
        assert_eq!(tail.len(), 1);
        assert_eq!(full_events.last().unwrap(), &tail[0]);
        assert_eq!(resumed.now().step, full.now().step);
    }

    #[test]
    fn disabled_tracer_state_is_zero_and_restore_is_a_noop() {
        let tracer = Tracer::disabled();
        assert_eq!(tracer.state(), TracerState::default());
        tracer.restore_state(&TracerState {
            step: 9,
            sim_s: 1.0,
            next_span: 2,
        });
        assert_eq!(tracer.now().step, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "advance_sim")]
    fn clock_panics_on_negative_delta_in_debug() {
        Clock::new().advance_sim(-1.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "advance_sim")]
    fn clock_panics_on_nan_delta_in_debug() {
        Clock::new().advance_sim(f64::NAN);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn clock_saturates_bad_deltas_in_release() {
        let mut clock = Clock::new();
        clock.advance_sim(-1.0);
        clock.advance_sim(f64::NAN);
        clock.advance_sim(f64::INFINITY);
        assert_eq!(clock.now().sim_s, 0.0, "bad deltas must be no-ops");
        clock.advance_sim(3.0);
        assert_eq!(clock.now().sim_s, 3.0);
    }

    #[test]
    fn telemetry_is_absent_unless_attached() {
        let (tracer, recorder) = Tracer::recording(4);
        assert!(tracer.telemetry().is_none());
        // The direct paths are inert — no telemetry and no events.
        tracer.telemetry_count("x", 1);
        tracer.telemetry_observe("y", 1.0);
        tracer.telemetry_merge_sketch("z", &QuantileSketch::new());
        assert!(recorder.events().is_empty());
        assert!(Tracer::disabled().telemetry().is_none());
    }

    #[test]
    fn spans_emit_begin_and_end_with_matching_id() {
        let (tracer, recorder) = Tracer::recording(16);
        let span = tracer.span("run", &[("app", "milc".into())]);
        tracer.event("inside", &[]);
        span.end_with(&[("seconds", 10.0.into())]);
        let events = recorder.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["run.begin", "inside", "run.end"]);
        assert_eq!(events[0].num("span"), events[2].num("span"));
        assert_eq!(events[0].str("app"), Some("milc"));
        assert_eq!(events[2].num("seconds"), Some(10.0));
    }

    #[test]
    fn dropped_span_still_ends() {
        let (tracer, recorder) = Tracer::recording(16);
        {
            let _span = tracer.span("scope", &[]);
        }
        let names: Vec<String> = recorder.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["scope.begin", "scope.end"]);
    }

    #[test]
    fn event_json_round_trips_exactly() {
        let event = Event {
            step: 7,
            sim_s: 123.25,
            name: "probe".into(),
            causes: Vec::new(),
            fields: vec![
                ("pressure".into(), Value::U64(3)),
                ("ok".into(), Value::Bool(true)),
                ("slowdown".into(), Value::F64(1.75)),
                ("app".into(), Value::Str("M.milc".into())),
                ("limit".into(), Value::U64(1 << 53)),
                ("seed".into(), Value::U64(u64::MAX)),
                ("odd".into(), Value::U64((1 << 53) + 1)),
                ("low".into(), Value::I64(i64::MIN)),
            ],
        };
        let text = icm_json::to_string(&event);
        assert!(text.contains(r#""limit":9007199254740992,"seed":18446744073709551615,"#));
        assert!(text.contains(r#""odd":9007199254740993,"low":-9223372036854775808}"#));
        let back: Event = icm_json::from_str(&text).expect("parses");
        // Numbers come back as F64 unless an f64 cannot hold them —
        // re-serialization is byte-identical either way.
        assert_eq!(icm_json::to_string(&back), text);
        assert_eq!(back.num("pressure"), Some(3.0));
        assert_eq!(back.field("seed"), Some(&Value::U64(u64::MAX)));
        assert_eq!(back.field("odd"), Some(&Value::U64((1 << 53) + 1)));
        assert_eq!(back.field("low"), Some(&Value::I64(i64::MIN)));
        assert_eq!(back.str("app"), Some("M.milc"));
        assert_eq!(back.field("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn event_json_rejects_wrong_shapes() {
        for bad in [
            r#"{"step":1,"sim_s":0,"name":"x"}"#,
            r#"{"step":1,"sim_s":0,"name":"x","fields":{},"extra":1}"#,
            r#"{"step":-1,"sim_s":0,"name":"x","fields":{}}"#,
            r#"{"step":1,"sim_s":0,"name":"x","fields":{"a":[1]}}"#,
            r#"{"step":1,"sim_s":0,"name":7,"fields":{}}"#,
            r#"{"step":1,"sim_s":0,"name":"x","causes":{},"fields":{}}"#,
            r#"{"step":1,"sim_s":0,"name":"x","causes":[1],"fields":{},"extra":1}"#,
            r#"[1,2,3]"#,
        ] {
            assert!(icm_json::from_str::<Event>(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn causes_serialize_between_name_and_fields_and_round_trip() {
        let event = Event {
            step: 9,
            sim_s: 4.5,
            name: "manager_detection".into(),
            causes: vec![3, 7],
            fields: vec![("kind".into(), Value::Str("drift".into()))],
        };
        let text = icm_json::to_string(&event);
        assert_eq!(
            text,
            r#"{"step":9,"sim_s":4.5,"name":"manager_detection","causes":[3,7],"fields":{"kind":"drift"}}"#
        );
        let back: Event = icm_json::from_str(&text).expect("parses");
        assert_eq!(back.causes, vec![3, 7]);
        assert_eq!(icm_json::to_string(&back), text);
    }

    #[test]
    fn empty_causes_are_elided_from_the_json() {
        let (tracer, recorder) = Tracer::recording(4);
        let id = tracer.event("probe", &[("x", Value::U64(1))]);
        assert_eq!(id, 1);
        let line = icm_json::to_string(&recorder.events()[0]);
        assert!(
            !line.contains("causes"),
            "cause-free event grew a key: {line}"
        );
    }

    #[test]
    fn event_caused_links_events_and_filters_disabled_ids() {
        let (tracer, recorder) = Tracer::recording(8);
        let a = tracer.event("a", &[]);
        let b = tracer.event_caused("b", &[a, 0], &[]);
        assert_eq!((a, b), (1, 2));
        let events = recorder.events();
        assert_eq!(events[1].causes, vec![1], "0 ids (disabled tracer) dropped");
        // A disabled tracer returns id 0 and records nothing.
        assert_eq!(Tracer::disabled().event_caused("c", &[a], &[]), 0);
    }

    #[test]
    fn clones_share_one_clock_and_sink() {
        let (tracer, recorder) = Tracer::recording(16);
        let clone = tracer.clone();
        clone.event("from-clone", &[]);
        tracer.event("from-original", &[]);
        let events = recorder.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].step, 2);
    }

    #[test]
    fn debug_formats_both_states() {
        assert_eq!(format!("{:?}", Tracer::disabled()), "Tracer(disabled)");
        let (tracer, _recorder) = Tracer::recording(4);
        assert!(format!("{tracer:?}").contains("step 0"));
    }

    #[test]
    fn wall_profiling_is_off_by_default_and_inert_when_disabled() {
        let (tracer, _recorder) = Tracer::recording(4);
        assert!(!tracer.wall_profiling_enabled());
        assert_eq!(tracer.wall_profile(), None);
        // Scopes and spans are inert without the side channel.
        drop(tracer.wall_scope("x"));
        tracer.span("s", &[]).end();
        assert_eq!(tracer.wall_profile(), None);
        // A fully disabled tracer cannot enable it at all.
        assert!(!Tracer::disabled().enable_wall_profiling());
        assert!(!Tracer::disabled().wall_profiling_enabled());
        drop(Tracer::disabled().wall_scope("x"));
    }

    #[test]
    fn spans_and_scopes_record_wall_durations() {
        let (tracer, recorder) = Tracer::recording(16);
        assert!(tracer.enable_wall_profiling());
        tracer.span("run", &[]).end();
        {
            let _scope = tracer.wall_scope("hot_loop");
        }
        tracer.record_wall("manual", std::time::Duration::from_micros(3));
        let profile = tracer.wall_profile().expect("profiling on");
        assert_eq!(profile.get("run").expect("span recorded").count(), 1);
        assert_eq!(profile.get("hot_loop").expect("scope recorded").count(), 1);
        assert_eq!(profile.get("manual").expect("manual recorded").count(), 1);
        // The side channel added nothing to the event stream: only the
        // span's begin/end pair is there, and wall scopes emitted nothing.
        let names: Vec<String> = recorder.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["run.begin", "run.end"]);
    }

    #[test]
    fn wall_only_tracer_profiles_without_keeping_events() {
        let tracer = Tracer::wall_only();
        assert!(tracer.wall_profiling_enabled());
        tracer.span("work", &[]).end();
        let profile = tracer.wall_profile().expect("profiling on");
        assert_eq!(profile.get("work").expect("recorded").count(), 1);
    }

    #[test]
    fn enabling_wall_profiling_twice_keeps_the_profile() {
        let (tracer, _recorder) = Tracer::recording(4);
        tracer.enable_wall_profiling();
        tracer.record_wall("x", std::time::Duration::from_nanos(10));
        tracer.enable_wall_profiling();
        let profile = tracer.wall_profile().expect("still on");
        assert_eq!(profile.get("x").expect("kept").count(), 1);
    }
}
