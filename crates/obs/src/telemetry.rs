//! Constant-memory streaming telemetry: windowed rollups, health
//! counters and periodic snapshots derived from the event stream.
//!
//! The raw JSONL trace grows linearly with ticks × hosts — unusable for
//! long-lived or cluster-scale runs. [`TelemetrySink`] is the
//! constant-memory alternative: it consumes the *same* deterministic
//! event stream (replacing the JSONL sink, or teeing into it) and folds
//! every event into bounded aggregates:
//!
//! * **Series** — per-signal windowed rollups keyed on the simulated
//!   seconds clock: count/sum/min/max plus a [`QuantileSketch`] per
//!   window, ring-bounded at `max_windows` windows, plus one all-time
//!   sketch. At most `max_series` series exist; later signals are
//!   counted as dropped, never allocated.
//! * **Counters / sums** — health bookkeeping (manager actions by
//!   kind, faults by kind, probe/checkpoint/resume counts,
//!   violation-seconds, …), capped at `max_keys`.
//! * **Snapshots** — a [`HealthSnapshot`] of the accumulator is pushed
//!   every `snapshot_every_s` simulated seconds into a ring of
//!   `max_snapshots`.
//!
//! Everything is integer/BTreeMap bookkeeping over deterministic
//! inputs, so same-seed runs serialize byte-identical telemetry
//! artifacts, and the artifact's size is bounded by
//! [`TELEMETRY_BYTE_BUDGET`] no matter how long the run was (both
//! enforced in `tests/telemetry.rs` and `scripts/verify.sh`).
//!
//! Producers that emit no events on purpose (the manager's quiet ticks
//! are contractually silent) can still feed telemetry through
//! [`Tracer::telemetry_count`](crate::Tracer::telemetry_count) /
//! [`telemetry_observe`](crate::Tracer::telemetry_observe) — direct
//! aggregate updates that never touch the event stream, keeping raw
//! traces byte-identical to telemetry-off runs.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use icm_json::ToJson;

use crate::reader::{SpanEdge, SpanMatcher};
use crate::sink::Sink;
use crate::sketch::QuantileSketch;
use crate::Event;

/// Upper bound, in bytes, on a serialized telemetry artifact
/// ([`Telemetry::to_text`]). The ring bounds and caps in
/// [`TelemetryConfig::default`] keep any run — however long — under
/// this budget; `tests/telemetry.rs` enforces it on a 10× stretched
/// managed run.
pub const TELEMETRY_BYTE_BUDGET: usize = 256 * 1024;

/// Sizing knobs for the telemetry accumulator. Every cap is a hard
/// bound — overflow is counted, never allocated.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Rollup window width in simulated seconds.
    pub window_s: f64,
    /// Windows retained per series (ring; oldest dropped).
    pub max_windows: usize,
    /// Distinct series allocated before overflow counting kicks in.
    pub max_series: usize,
    /// Distinct counter/sum keys allocated before overflow counting.
    pub max_keys: usize,
    /// Simulated seconds between health snapshots.
    pub snapshot_every_s: f64,
    /// Snapshots retained (ring; oldest dropped).
    pub max_snapshots: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            window_s: 600.0,
            max_windows: 16,
            max_series: 48,
            max_keys: 128,
            snapshot_every_s: 3_000.0,
            max_snapshots: 8,
        }
    }
}

/// One rollup window: simulated-time bucket `index` (i.e. the window
/// covers `[index·window_s, (index+1)·window_s)`).
#[derive(Debug, Clone, PartialEq)]
struct Window {
    index: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    sketch: QuantileSketch,
}

impl Window {
    fn new(index: u64) -> Self {
        Self {
            index,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sketch: QuantileSketch::with_max_buckets(32),
        }
    }

    fn observe(&mut self, value: f64) {
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.sketch.observe(value);
    }
}

impl ToJson for Window {
    fn write_json(&self, out: &mut String) {
        let finite_or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
        icm_json::write_object(
            out,
            [
                ("w", &self.index as &dyn ToJson),
                ("count", &self.count),
                ("sum", &self.sum),
                ("min", &finite_or_zero(self.min)),
                ("max", &finite_or_zero(self.max)),
                ("p50", &self.sketch.quantile(0.5).unwrap_or(0.0)),
                ("p99", &self.sketch.quantile(0.99).unwrap_or(0.0)),
            ],
        );
    }
}

/// One named signal: ring of windows plus an all-time sketch.
#[derive(Debug, Clone, PartialEq, Default)]
struct Series {
    total: QuantileSketch,
    windows: VecDeque<Window>,
    dropped_windows: u64,
}

impl Series {
    fn observe(&mut self, window_index: u64, value: f64, max_windows: usize) {
        self.total.observe(value);
        match self.windows.back_mut() {
            // The clock is monotone, so a stale index only appears when
            // several signals interleave inside one window; fold into
            // the newest window rather than reordering the ring.
            Some(last) if last.index >= window_index => last.observe(value),
            _ => {
                let mut w = Window::new(window_index);
                w.observe(value);
                self.windows.push_back(w);
                while self.windows.len() > max_windows {
                    self.windows.pop_front();
                    self.dropped_windows += 1;
                }
            }
        }
    }

    fn merge_sketch(&mut self, window_index: u64, sketch: &QuantileSketch, max_windows: usize) {
        self.total.merge(sketch);
        match self.windows.back_mut() {
            Some(last) if last.index >= window_index => last.merge_from(sketch),
            _ => {
                let mut w = Window::new(window_index);
                w.merge_from(sketch);
                self.windows.push_back(w);
                while self.windows.len() > max_windows {
                    self.windows.pop_front();
                    self.dropped_windows += 1;
                }
            }
        }
    }
}

impl ToJson for Series {
    fn write_json(&self, out: &mut String) {
        icm_json::write_object(
            out,
            [
                ("count", &self.total.count() as &dyn ToJson),
                ("sum", &self.total.sum()),
                ("min", &self.total.min().unwrap_or(0.0)),
                ("max", &self.total.max().unwrap_or(0.0)),
                ("p50", &self.total.quantile(0.5).unwrap_or(0.0)),
                ("p99", &self.total.quantile(0.99).unwrap_or(0.0)),
                ("dropped_windows", &self.dropped_windows),
                ("sketch", &self.total),
                ("windows", &self.windows),
            ],
        );
    }
}

impl Window {
    fn merge_from(&mut self, sketch: &QuantileSketch) {
        self.count += sketch.count();
        if sketch.finite_count() > 0 {
            self.sum += sketch.sum();
            self.min = self.min.min(sketch.min().unwrap_or(f64::INFINITY));
            self.max = self.max.max(sketch.max().unwrap_or(f64::NEG_INFINITY));
        }
        self.sketch.merge(sketch);
    }
}

/// A point-in-time copy of the health accumulator: every counter and
/// sum plus the recovery-latency quantiles, stamped with the
/// deterministic clock. Serialized via `icm-json`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Event-counter stamp at snapshot time.
    pub step: u64,
    /// Simulated seconds at snapshot time.
    pub sim_s: f64,
    /// Events folded into telemetry so far.
    pub events: u64,
    /// Monotone health counters (manager ticks/actions, faults, …).
    pub counters: BTreeMap<String, u64>,
    /// Accumulated seconds-valued health sums (violation time, action
    /// cost, wasted fault time, …).
    pub sums: BTreeMap<String, f64>,
    /// Recovery-latency sketch at snapshot time.
    pub recovery_latency: QuantileSketch,
}

impl ToJson for HealthSnapshot {
    fn write_json(&self, out: &mut String) {
        icm_json::write_object(
            out,
            [
                ("step", &self.step as &dyn ToJson),
                ("sim_s", &self.sim_s),
                ("events", &self.events),
                ("counters", &self.counters),
                ("sums", &self.sums),
                ("recovery_latency", &self.recovery_latency),
            ],
        );
    }
}

#[derive(Debug)]
struct TelemetryInner {
    config: TelemetryConfig,
    events: u64,
    series: BTreeMap<String, Series>,
    counters: BTreeMap<String, u64>,
    sums: BTreeMap<String, f64>,
    recovery_latency: QuantileSketch,
    spans: SpanMatcher,
    snapshots: VecDeque<HealthSnapshot>,
    next_snapshot_s: f64,
    last_step: u64,
    last_sim_s: f64,
    dropped_series: u64,
    dropped_keys: u64,
    dropped_snapshots: u64,
}

/// Cloneable handle onto one telemetry accumulator. All clones — the
/// one inside a [`TelemetrySink`], the one a caller keeps for
/// serialization, the one the [`Tracer`](crate::Tracer) holds for
/// direct observations — share state.
#[derive(Debug, Clone)]
pub struct Telemetry {
    shared: Rc<RefCell<TelemetryInner>>,
}

/// Event fields that are identifiers, not measurements — excluded from
/// the generic per-field rollup.
const FIELD_DENY: [&str; 4] = ["span", "seed", "tick", "id"];

impl Telemetry {
    /// A fresh accumulator.
    pub fn new(config: TelemetryConfig) -> Self {
        let next_snapshot_s = config.snapshot_every_s;
        Self {
            shared: Rc::new(RefCell::new(TelemetryInner {
                config,
                events: 0,
                series: BTreeMap::new(),
                counters: BTreeMap::new(),
                sums: BTreeMap::new(),
                recovery_latency: QuantileSketch::new(),
                spans: SpanMatcher::new(),
                snapshots: VecDeque::new(),
                next_snapshot_s,
                last_step: 0,
                last_sim_s: 0.0,
                dropped_series: 0,
                dropped_keys: 0,
                dropped_snapshots: 0,
            })),
        }
    }

    /// Folds one trace event into the aggregates.
    pub fn record_event(&self, event: &Event) {
        let mut inner = self.shared.borrow_mut();
        inner.events += 1;
        inner.last_step = event.step;
        inner.fold(event);
        inner.maybe_snapshot(event.step, event.sim_s);
        inner.last_sim_s = event.sim_s;
    }

    /// Adds `n` to a health counter (direct path — no event involved).
    pub fn count(&self, name: &str, n: u64) {
        let mut inner = self.shared.borrow_mut();
        inner.bump(name, n);
    }

    /// Observes one value into the named series at simulated time
    /// `sim_s` (direct path — no event involved).
    pub fn observe(&self, name: &str, sim_s: f64, value: f64) {
        let mut inner = self.shared.borrow_mut();
        inner.observe_series(name, sim_s, value);
        let (step, last) = (inner.last_step, inner.last_sim_s.max(sim_s));
        inner.maybe_snapshot(step, last);
        inner.last_sim_s = last;
    }

    /// Merges a pre-built sketch (e.g. one anneal search's candidate
    /// costs, merged exactly) into the named series at simulated time
    /// `sim_s`.
    pub fn merge_series_sketch(&self, name: &str, sim_s: f64, sketch: &QuantileSketch) {
        if sketch.is_empty() {
            return;
        }
        let mut inner = self.shared.borrow_mut();
        let Some(key) = inner.series_key(name) else {
            return;
        };
        let (window, cap) = (inner.window_index(sim_s), inner.config.max_windows);
        inner
            .series
            .entry(key)
            .or_default()
            .merge_sketch(window, sketch, cap);
    }

    /// Takes a health snapshot right now, regardless of cadence.
    pub fn snapshot_now(&self, step: u64, sim_s: f64) {
        let mut inner = self.shared.borrow_mut();
        inner.push_snapshot(step, sim_s);
    }

    /// Events folded so far.
    pub fn events(&self) -> u64 {
        self.shared.borrow().events
    }

    /// Current value of a health counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.shared
            .borrow()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Current value of a health sum.
    pub fn sum(&self, name: &str) -> f64 {
        self.shared.borrow().sums.get(name).copied().unwrap_or(0.0)
    }

    /// Names of the allocated series, sorted.
    pub fn series_names(&self) -> Vec<String> {
        self.shared.borrow().series.keys().cloned().collect()
    }

    /// Number of retained health snapshots.
    pub fn snapshot_count(&self) -> usize {
        self.shared.borrow().snapshots.len()
    }

    /// The current health accumulator as a snapshot (not pushed into
    /// the ring).
    pub fn health(&self) -> HealthSnapshot {
        let inner = self.shared.borrow();
        inner.health(inner.last_step, inner.last_sim_s)
    }

    /// The artifact as compact JSON text plus trailing newline — what
    /// `icm-experiments --telemetry FILE` writes.
    pub fn to_text(&self) -> String {
        let mut text = icm_json::to_string(self);
        text.push('\n');
        text
    }
}

/// What the artifact's bounds dropped.
struct Dropped {
    series: u64,
    keys: u64,
    snapshots: u64,
}
icm_json::impl_json!(struct Dropped { series, keys, snapshots });

/// The full telemetry artifact. Bounded: its serialized size stays
/// under [`TELEMETRY_BYTE_BUDGET`] regardless of run length.
impl ToJson for Telemetry {
    fn write_json(&self, out: &mut String) {
        let inner = self.shared.borrow();
        let dropped = Dropped {
            series: inner.dropped_series,
            keys: inner.dropped_keys,
            snapshots: inner.dropped_snapshots,
        };
        icm_json::write_object(
            out,
            [
                (
                    "budget_bytes",
                    &(TELEMETRY_BYTE_BUDGET as u64) as &dyn ToJson,
                ),
                ("window_s", &inner.config.window_s),
                ("snapshot_every_s", &inner.config.snapshot_every_s),
                ("events", &inner.events),
                ("dropped", &dropped),
                ("health", &inner.health(inner.last_step, inner.last_sim_s)),
                ("series", &inner.series),
                ("snapshots", &inner.snapshots),
            ],
        );
    }
}

impl TelemetryInner {
    fn window_index(&self, sim_s: f64) -> u64 {
        if sim_s.is_finite() && sim_s > 0.0 {
            (sim_s / self.config.window_s).floor() as u64
        } else {
            0
        }
    }

    fn series_key(&mut self, name: &str) -> Option<String> {
        if self.series.contains_key(name) {
            return Some(name.to_owned());
        }
        if self.series.len() >= self.config.max_series {
            self.dropped_series += 1;
            return None;
        }
        Some(name.to_owned())
    }

    fn observe_series(&mut self, name: &str, sim_s: f64, value: f64) {
        let Some(key) = self.series_key(name) else {
            return;
        };
        let (window, cap) = (self.window_index(sim_s), self.config.max_windows);
        self.series
            .entry(key)
            .or_default()
            .observe(window, value, cap);
    }

    fn bump(&mut self, name: &str, n: u64) {
        if !self.counters.contains_key(name) && self.counters.len() >= self.config.max_keys {
            self.dropped_keys += 1;
            return;
        }
        *self.counters.entry(name.to_owned()).or_insert(0) += n;
    }

    fn add_sum(&mut self, name: &str, delta: f64) {
        if !self.sums.contains_key(name) && self.sums.len() >= self.config.max_keys {
            self.dropped_keys += 1;
            return;
        }
        *self.sums.entry(name.to_owned()).or_insert(0.0) += delta;
    }

    fn fold(&mut self, event: &Event) {
        let name = event.name.as_str();
        match name {
            crate::manager::MANAGER_TICK => self.bump("manager.eventful_ticks", 1),
            crate::manager::MANAGER_DETECTION => {
                let kind = event.str("kind").unwrap_or("unknown").to_owned();
                self.bump(&format!("manager.detections.{kind}"), 1);
            }
            crate::manager::MANAGER_ACTION => {
                let kind = event.str("kind").unwrap_or("unknown").to_owned();
                self.bump(&format!("manager.actions.{kind}"), 1);
                if let Some(cost) = event.num("cost_s") {
                    self.add_sum("manager.action_cost_s", cost);
                }
            }
            crate::manager::MANAGER_RECOVERY => {
                self.bump("manager.recoveries", 1);
                if let Some(latency) = event.num("latency_s") {
                    self.recovery_latency.observe(latency);
                    self.observe_series("manager.recovery_latency_s", event.sim_s, latency);
                }
            }
            crate::manager::MANAGER_OUTCOME => {
                let side = match event.field("managed").and_then(crate::Value::as_bool) {
                    Some(true) => "managed",
                    Some(false) => "unmanaged",
                    None => "unknown",
                };
                self.bump(&format!("manager.outcomes.{side}"), 1);
                if let Some(v) = event.num("violation_s") {
                    self.add_sum(&format!("manager.violation_s.{side}"), v);
                }
            }
            "probe" => {
                self.bump("testbed.probes", 1);
            }
            "fault" => {
                let kind = event.str("kind").unwrap_or("unknown").to_owned();
                self.bump(&format!("testbed.faults.{kind}"), 1);
                if let Some(w) = event.num("wasted_s") {
                    self.add_sum("testbed.fault_wasted_s", w);
                }
            }
            "checkpoint" => self.bump("testbed.checkpoints", 1),
            "resume" => {
                self.bump("testbed.resumes", 1);
                if let Some(cost) = event.num("cost_s") {
                    self.add_sum("testbed.resume_cost_s", cost);
                }
            }
            _ => {}
        }

        match self.spans.push(event) {
            SpanEdge::Point => {}
            SpanEdge::Begin | SpanEdge::End(None) => return,
            SpanEdge::End(Some(open)) => {
                self.observe_series(
                    &format!("span.{}.sim_s", open.name),
                    event.sim_s,
                    event.sim_s - open.begin.sim_s,
                );
                if open.name == "anneal" {
                    let rule = open.begin.str("rule").unwrap_or("unknown").to_owned();
                    self.bump(&format!("anneal.{rule}.searches"), 1);
                    if let Some(a) = event.num("accepted") {
                        self.bump(&format!("anneal.{rule}.accepted"), a as u64);
                    }
                    if let Some(e) = event.num("evaluations") {
                        self.bump(&format!("anneal.{rule}.evaluations"), e as u64);
                    }
                    if let Some(cost) = event.num("cost") {
                        self.observe_series(&format!("anneal.{rule}.cost"), event.sim_s, cost);
                    }
                }
                return;
            }
        }

        // Generic rollup: every numeric measurement on a point event
        // becomes a windowed series named `{event}.{field}`.
        for (key, value) in &event.fields {
            if FIELD_DENY.contains(&key.as_str()) {
                continue;
            }
            if let Some(v) = value.as_f64() {
                self.observe_series(&format!("{name}.{key}"), event.sim_s, v);
            }
        }
    }

    fn maybe_snapshot(&mut self, step: u64, sim_s: f64) {
        while sim_s >= self.next_snapshot_s {
            let at = self.next_snapshot_s;
            self.push_snapshot(step, at);
            self.next_snapshot_s += self.config.snapshot_every_s;
        }
    }

    fn push_snapshot(&mut self, step: u64, sim_s: f64) {
        let snapshot = self.health(step, sim_s);
        self.snapshots.push_back(snapshot);
        while self.snapshots.len() > self.config.max_snapshots {
            self.snapshots.pop_front();
            self.dropped_snapshots += 1;
        }
    }

    fn health(&self, step: u64, sim_s: f64) -> HealthSnapshot {
        HealthSnapshot {
            step,
            sim_s,
            events: self.events,
            counters: self.counters.clone(),
            sums: self.sums.clone(),
            recovery_latency: self.recovery_latency.clone(),
        }
    }
}

/// A [`Sink`] that folds events into a [`Telemetry`] accumulator —
/// *replacing* the raw JSONL sink (constant memory, no raw lines) or
/// *teeing* into it (aggregates plus the unchanged byte-identical raw
/// trace).
pub struct TelemetrySink {
    telemetry: Telemetry,
    inner: Option<Box<dyn Sink>>,
}

impl TelemetrySink {
    /// Replace mode: events are aggregated and dropped.
    pub fn new(telemetry: Telemetry) -> Self {
        Self {
            telemetry,
            inner: None,
        }
    }

    /// Tee mode: events are aggregated *and* forwarded unchanged to
    /// `inner`, so the raw trace stays byte-identical to a run without
    /// telemetry.
    pub fn tee<S: Sink + 'static>(telemetry: Telemetry, inner: S) -> Self {
        Self {
            telemetry,
            inner: Some(Box::new(inner)),
        }
    }

    /// Another handle onto the shared accumulator.
    pub fn handle(&self) -> Telemetry {
        self.telemetry.clone()
    }
}

impl Sink for TelemetrySink {
    fn record(&mut self, event: &Event) {
        self.telemetry.record_event(event);
        if let Some(inner) = &mut self.inner {
            inner.record(event);
        }
    }

    fn flush(&mut self) {
        if let Some(inner) = &mut self.inner {
            inner.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonlSink, SharedBuf, Tracer, Value};
    use icm_json::Json;

    fn event(step: u64, sim_s: f64, name: &str, fields: &[(&str, Value)]) -> Event {
        Event {
            step,
            sim_s,
            name: name.to_owned(),
            causes: Vec::new(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        }
    }

    #[test]
    fn events_fold_into_windowed_series() {
        let t = Telemetry::new(TelemetryConfig {
            window_s: 10.0,
            ..TelemetryConfig::default()
        });
        for i in 0..50u64 {
            t.record_event(&event(
                i + 1,
                i as f64,
                "probe",
                &[("residual", Value::F64(i as f64 / 50.0))],
            ));
        }
        assert_eq!(t.counter("testbed.probes"), 50);
        assert_eq!(t.events(), 50);
        let names = t.series_names();
        assert!(names.contains(&"probe.residual".to_owned()), "{names:?}");
        let doc = icm_json::to_value(&t);
        let series = doc
            .get("series")
            .and_then(|s| s.get("probe.residual"))
            .expect("series present");
        assert_eq!(series.get("count").and_then(Json::as_f64), Some(50.0));
        let windows = series
            .get("windows")
            .and_then(Json::as_array)
            .expect("windows");
        assert_eq!(windows.len(), 5, "50s of 10s windows");
    }

    #[test]
    fn window_ring_and_series_cap_bound_memory() {
        let t = Telemetry::new(TelemetryConfig {
            window_s: 1.0,
            max_windows: 4,
            max_series: 2,
            ..TelemetryConfig::default()
        });
        for i in 0..100u64 {
            t.observe("a", i as f64, 1.0);
            t.observe("b", i as f64, 2.0);
            t.observe("c", i as f64, 3.0); // over the cap — dropped
        }
        assert_eq!(t.series_names(), ["a", "b"]);
        let doc = icm_json::to_value(&t);
        let a = doc.get("series").and_then(|s| s.get("a")).expect("a");
        let windows = a.get("windows").and_then(Json::as_array).expect("windows");
        assert_eq!(windows.len(), 4, "ring bound");
        assert_eq!(a.get("count").and_then(Json::as_f64), Some(100.0));
        assert_eq!(
            doc.get("dropped")
                .and_then(|d| d.get("series"))
                .and_then(Json::as_f64),
            Some(100.0)
        );
    }

    #[test]
    fn health_counters_track_the_manager_vocabulary() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.record_event(&event(1, 5.0, "manager_tick", &[("tick", Value::U64(3))]));
        t.record_event(&event(
            2,
            6.0,
            "manager_detection",
            &[("tick", Value::U64(3)), ("kind", Value::from("host_down"))],
        ));
        t.record_event(&event(
            3,
            7.0,
            "manager_action",
            &[
                ("tick", Value::U64(3)),
                ("kind", Value::from("migrate")),
                ("cost_s", Value::F64(12.5)),
            ],
        ));
        t.record_event(&event(
            4,
            8.0,
            "manager_recovery",
            &[("tick", Value::U64(3)), ("latency_s", Value::F64(630.0))],
        ));
        t.record_event(&event(
            5,
            9.0,
            "manager_outcome",
            &[
                ("managed", Value::Bool(true)),
                ("violation_s", Value::F64(44.0)),
            ],
        ));
        assert_eq!(t.counter("manager.eventful_ticks"), 1);
        assert_eq!(t.counter("manager.detections.host_down"), 1);
        assert_eq!(t.counter("manager.actions.migrate"), 1);
        assert_eq!(t.counter("manager.recoveries"), 1);
        assert_eq!(t.sum("manager.action_cost_s"), 12.5);
        assert_eq!(t.sum("manager.violation_s.managed"), 44.0);
        let health = t.health();
        assert_eq!(health.recovery_latency.count(), 1);
        let p50 = health.recovery_latency.quantile(0.5).expect("one sample");
        assert!(
            ((p50 - 630.0) / 630.0).abs() <= crate::bucket::RELATIVE_ERROR,
            "recovery latency p50 {p50} too far from 630"
        );
    }

    #[test]
    fn spans_become_duration_series_and_anneal_attribution() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.record_event(&event(
            1,
            100.0,
            "anneal.begin",
            &[("span", Value::U64(9)), ("rule", Value::from("metropolis"))],
        ));
        t.record_event(&event(
            2,
            100.0,
            "anneal.end",
            &[
                ("span", Value::U64(9)),
                ("cost", Value::F64(3.25)),
                ("evaluations", Value::U64(400)),
                ("accepted", Value::U64(120)),
            ],
        ));
        assert_eq!(t.counter("anneal.metropolis.searches"), 1);
        assert_eq!(t.counter("anneal.metropolis.accepted"), 120);
        assert_eq!(t.counter("anneal.metropolis.evaluations"), 400);
        let names = t.series_names();
        assert!(names.contains(&"span.anneal.sim_s".to_owned()), "{names:?}");
        assert!(names.contains(&"anneal.metropolis.cost".to_owned()));
    }

    #[test]
    fn snapshots_fire_on_the_simulated_clock_and_stay_ring_bounded() {
        let t = Telemetry::new(TelemetryConfig {
            snapshot_every_s: 100.0,
            max_snapshots: 3,
            ..TelemetryConfig::default()
        });
        for i in 0..10u64 {
            t.record_event(&event(i + 1, (i * 150) as f64, "probe", &[]));
        }
        // 1350 simulated seconds → 13 cadence points, ring keeps 3.
        assert_eq!(t.snapshot_count(), 3);
        let doc = icm_json::to_value(&t);
        let snaps = doc
            .get("snapshots")
            .and_then(Json::as_array)
            .expect("snapshots");
        assert_eq!(snaps.len(), 3);
        assert!(
            doc.get("dropped")
                .and_then(|d| d.get("snapshots"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                > 0.0
        );
    }

    #[test]
    fn direct_observations_bypass_the_event_stream() {
        let buf = SharedBuf::new();
        let t = Telemetry::new(TelemetryConfig::default());
        let tracer =
            Tracer::with_telemetry(TelemetrySink::tee(t.clone(), JsonlSink::new(buf.clone())));
        tracer.telemetry_count("manager.ticks", 2);
        tracer.telemetry_observe("manager.tick.violation_s", 1.5);
        tracer.flush();
        assert_eq!(t.counter("manager.ticks"), 2);
        assert!(t
            .series_names()
            .contains(&"manager.tick.violation_s".to_owned()));
        assert!(
            buf.text().is_empty(),
            "direct telemetry must emit no events"
        );
    }

    #[test]
    fn tee_mode_forwards_the_identical_event_stream() {
        let plain_buf = SharedBuf::new();
        let plain = Tracer::with_sink(JsonlSink::new(plain_buf.clone()));
        let teed_buf = SharedBuf::new();
        let t = Telemetry::new(TelemetryConfig::default());
        let teed = Tracer::with_telemetry(TelemetrySink::tee(
            t.clone(),
            JsonlSink::new(teed_buf.clone()),
        ));
        for tracer in [&plain, &teed] {
            tracer.advance_sim(3.0);
            tracer.event("probe", &[("residual", Value::F64(0.25))]);
            let span = tracer.span("run", &[("kind", Value::from("solo"))]);
            tracer.advance_sim(10.0);
            span.end_with(&[("simulated_s", Value::F64(10.0))]);
            tracer.flush();
        }
        assert_eq!(plain_buf.text(), teed_buf.text(), "tee must not perturb");
        assert_eq!(t.events(), 3);
        assert_eq!(t.counter("testbed.probes"), 1);
    }

    #[test]
    fn same_stream_serializes_byte_identically() {
        let run = || {
            let t = Telemetry::new(TelemetryConfig::default());
            for i in 0..200u64 {
                t.record_event(&event(
                    i + 1,
                    i as f64 * 7.5,
                    "probe",
                    &[("residual", Value::F64((i % 17) as f64 / 16.0))],
                ));
            }
            t.count("manager.ticks", 3);
            t.to_text()
        };
        assert_eq!(run(), run());
    }
}
