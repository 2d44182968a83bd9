//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer's public function.
//!
//! Nothing is written while a run measures: spans accumulate in a
//! vector and are summarized when the run ends. A disabled tracer keeps
//! nothing, so the untraced run pays only a branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;

/// One closed span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`], closed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be closed with Tracer::end"]
pub struct Open(Option<usize>);

/// Records nested spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::begin`]. Spans close innermost
    /// first.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.now_ns();
        debug_assert_eq!(
            self.stack.last(),
            Some(&index),
            "spans close innermost first"
        );
        self.stack.pop();
        self.spans[index].end_ns = now;
    }

    /// Per-name aggregates of everything recorded.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        let mut root_ns = 0u64;
        for (span, child) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            if span.parent.is_none() {
                root_ns += total;
            }
            let layer = layers.entry(span.name).or_default();
            layer.calls_ms.push(total as f64 / 1e6);
            layer.self_ms += total.saturating_sub(child) as f64 / 1e6;
        }
        Summary {
            layers,
            attributed_s: root_ns as f64 / 1e9,
        }
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Duration of each call, milliseconds, in call order.
    pub calls_ms: Vec<f64>,
    /// Total time not covered by child spans, milliseconds.
    pub self_ms: f64,
}

impl Layer {
    /// Median call duration, milliseconds.
    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.calls_ms)
    }

    /// 99th-percentile call duration, milliseconds.
    pub fn p99_ms(&self) -> f64 {
        stats::quantile(&self.calls_ms, 0.99).unwrap_or(0.0)
    }

    /// Total duration, milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.calls_ms.iter().sum()
    }
}

/// What a traced run recorded.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Aggregates by span name.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Time covered by top-level spans, seconds.
    pub attributed_s: f64,
}

impl Summary {
    /// The aggregate for one span name, empty when it never ran.
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let start = Instant::now();
        while start.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer");
        spin(2);
        let inner = tracer.begin("inner");
        spin(4);
        tracer.end(inner);
        tracer.end(outer);
        let summary = tracer.summary();
        let outer = summary.layer("outer");
        let inner = summary.layer("inner");
        assert!(outer.total_ms() >= inner.total_ms() + 2.0);
        assert!((outer.self_ms - (outer.total_ms() - inner.total_ms())).abs() < 1e-9);
        assert!((summary.attributed_s * 1e3 - outer.total_ms()).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let span = tracer.begin("x");
        tracer.end(span);
        let summary = tracer.summary();
        assert!(summary.layers.is_empty());
        assert_eq!(summary.attributed_s, 0.0);
    }
}
