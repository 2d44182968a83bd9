//! Span-tree reconstruction and flamegraph rendering for JSONL traces.
//!
//! Spans arrive in a trace as flat `<name>.begin` / `<name>.end` event
//! pairs carrying a `span` id. [`build_flame`] replays the stream through
//! [`SpanMatcher`], nests each completed span under the spans still open
//! around it, and aggregates same-path instances into one [`FlameNode`]
//! — so a recovery run's hundreds of `anneal` spans become a single
//! weighted frame under their common parent.
//!
//! Weights are **simulated seconds** (the deterministic clock), with the
//! event-step count as a secondary weight for traces whose spans never
//! advance the sim clock. Both are derived purely from the trace, so the
//! same trace always renders the same flamegraph.
//!
//! Two renderers share the tree:
//!
//! * [`render_ascii`] — indented frames with weight bars, self-time and
//!   a `*` marking the critical path (the greedy heaviest-child chain).
//! * [`render_svg`] — a self-contained SVG flamegraph (no scripts, no
//!   external assets) embedded by `icm-report`'s flame section.

use std::collections::BTreeMap;

use icm_json::ToJson;
use icm_obs::{Event, SpanEdge, SpanMatcher};

/// One aggregated frame: every instance of a span name at one nesting
/// path, with children keyed (and therefore serialized) by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlameNode {
    /// Completed span instances aggregated into this frame.
    pub count: u64,
    /// Total simulated seconds across instances (begin → end).
    pub sim_s: f64,
    /// Total event steps across instances — the fallback weight.
    pub steps: u64,
    /// Child frames by span name.
    pub children: BTreeMap<String, FlameNode>,
}

impl FlameNode {
    /// The frame's weight under the graph's chosen unit.
    fn weight(&self, by_steps: bool) -> f64 {
        if by_steps {
            self.steps as f64
        } else {
            self.sim_s
        }
    }

    /// Weight not attributable to any child (clamped at zero: a
    /// malformed trace can close a child after its parent).
    fn self_weight(&self, by_steps: bool) -> f64 {
        let children: f64 = self.children.values().map(|c| c.weight(by_steps)).sum();
        (self.weight(by_steps) - children).max(0.0)
    }
}

impl ToJson for FlameNode {
    fn write_json(&self, out: &mut String) {
        icm_json::write_object(
            out,
            [
                ("count", &self.count as &dyn ToJson),
                ("sim_s", &self.sim_s),
                ("steps", &self.steps),
                ("children", &self.children),
            ],
        );
    }
}

/// The reconstructed span tree of one trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlameGraph {
    /// Synthetic root holding every top-level span; its weight is the
    /// sum of its children.
    pub root: FlameNode,
    /// Dangling span events under [`SpanMatcher`]'s policy — nonzero
    /// means the trace was truncated or damaged.
    pub dangling: u64,
}

impl FlameGraph {
    /// True when the trace contained no completed spans.
    pub fn is_empty(&self) -> bool {
        self.root.children.is_empty()
    }

    /// Whether rendering falls back to step weights (no span advanced
    /// the simulated clock).
    pub fn weights_by_steps(&self) -> bool {
        self.root.sim_s <= 0.0
    }

    /// The critical path: starting at the root, greedily descend into
    /// the heaviest child. Returns the frame names in order.
    pub fn critical_path(&self) -> Vec<String> {
        let by_steps = self.weights_by_steps();
        let mut path = Vec::new();
        let mut node = &self.root;
        while let Some((name, child)) = node
            .children
            .iter()
            .max_by(|a, b| a.1.weight(by_steps).total_cmp(&b.1.weight(by_steps)))
        {
            path.push(name.clone());
            node = child;
        }
        path
    }
}

impl ToJson for FlameGraph {
    fn write_json(&self, out: &mut String) {
        icm_json::write_object(
            out,
            [
                ("dangling", &self.dangling as &dyn ToJson),
                ("critical_path", &self.critical_path()),
                ("root", &self.root),
            ],
        );
    }
}

/// Replays `events` and reconstructs the aggregated span tree.
pub fn build_flame(events: &[Event]) -> FlameGraph {
    let mut graph = FlameGraph::default();
    let mut spans = SpanMatcher::new();
    for event in events {
        let SpanEdge::End(Some(span)) = spans.push(event) else {
            continue;
        };
        // Attribute the instance to its path: the names of the spans
        // still open, then its own.
        let mut node = &mut graph.root;
        for open in spans.open() {
            node = node.children.entry(open.name.clone()).or_default();
        }
        let node = node.children.entry(span.name).or_default();
        node.count += 1;
        node.sim_s += event.sim_s - span.begin.sim_s;
        node.steps += event.step - span.begin.step;
    }
    graph.dangling = spans.dangling();
    // The synthetic root spans everything its children span.
    graph.root.sim_s = graph.root.children.values().map(|c| c.sim_s).sum();
    graph.root.steps = graph.root.children.values().map(|c| c.steps).sum();
    graph
}

const ASCII_BAR_WIDTH: usize = 24;

/// Renders the graph as an indented ASCII flamegraph.
pub fn render_ascii(graph: &FlameGraph) -> String {
    let by_steps = graph.weights_by_steps();
    let unit = if by_steps { "steps" } else { "sim_s" };
    let mut out = format!(
        "flamegraph (weight: {unit}; `*` marks the critical path; self = time not in children)\n"
    );
    if graph.is_empty() {
        out.push_str("  (no completed spans)\n");
        return out;
    }
    let total = graph.root.weight(by_steps).max(f64::MIN_POSITIVE);
    let critical = graph.critical_path();
    render_ascii_node(
        &mut out,
        &graph.root.children,
        0,
        total,
        by_steps,
        &critical,
        0,
    );
    if graph.dangling > 0 {
        out.push_str(&format!("  ({} dangling span events)\n", graph.dangling));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn render_ascii_node(
    out: &mut String,
    children: &BTreeMap<String, FlameNode>,
    depth: usize,
    total: f64,
    by_steps: bool,
    critical: &[String],
    critical_depth: usize,
) {
    // Heaviest first; name breaks ties so the order is deterministic.
    let mut ordered: Vec<(&String, &FlameNode)> = children.iter().collect();
    ordered.sort_by(|a, b| {
        b.1.weight(by_steps)
            .total_cmp(&a.1.weight(by_steps))
            .then_with(|| a.0.cmp(b.0))
    });
    for (name, node) in ordered {
        let on_critical = critical_depth == depth && critical.get(depth).is_some_and(|c| c == name);
        let weight = node.weight(by_steps);
        let share = weight / total;
        let filled = ((share * ASCII_BAR_WIDTH as f64).round() as usize).min(ASCII_BAR_WIDTH);
        let bar = format!(
            "{}{}",
            "#".repeat(filled),
            ".".repeat(ASCII_BAR_WIDTH - filled)
        );
        out.push_str(&format!(
            "{}{}{} x{} {:.6} ({:.1}%) self {:.6} [{}]\n",
            "  ".repeat(depth + 1),
            if on_critical { "*" } else { " " },
            format_args!("{name:<24}"),
            node.count,
            weight,
            share * 100.0,
            node.self_weight(by_steps),
            bar,
        ));
        render_ascii_node(
            out,
            &node.children,
            depth + 1,
            total,
            by_steps,
            critical,
            if on_critical {
                critical_depth + 1
            } else {
                usize::MAX
            },
        );
    }
}

const SVG_WIDTH: f64 = 960.0;
const SVG_ROW: f64 = 18.0;
/// Frames narrower than this many pixels are merged into an `(other)`
/// placeholder so pathological traces cannot blow up the SVG.
const SVG_MIN_PX: f64 = 1.0;

/// Deterministic warm fill color per frame name (FNV-1a over the name
/// picks from a fixed palette — no RNG, no wall clock).
fn svg_color(name: &str) -> &'static str {
    const PALETTE: [&str; 8] = [
        "#e05c4b", "#e0784b", "#e0944b", "#e0b04b", "#d9c24e", "#cc8d52", "#d96a5e", "#c97b4a",
    ];
    PALETTE[(icm_json::fs::fnv1a64(name.as_bytes()) % PALETTE.len() as u64) as usize]
}

fn xml_escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders the graph as a self-contained SVG flamegraph (root at the
/// top, children below, width proportional to weight).
pub fn render_svg(graph: &FlameGraph) -> String {
    let by_steps = graph.weights_by_steps();
    let depth = max_depth(&graph.root, 0);
    let height = SVG_ROW * (depth as f64 + 1.0) + 24.0;
    let mut out = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_WIDTH}\" height=\"{height}\" \
         font-family=\"monospace\" font-size=\"11\">\n"
    );
    let unit = if by_steps {
        "steps"
    } else {
        "simulated seconds"
    };
    out.push_str(&format!(
        "<text x=\"4\" y=\"14\" fill=\"#333\">flamegraph — width = {unit}</text>\n"
    ));
    if graph.is_empty() {
        out.push_str("<text x=\"4\" y=\"34\" fill=\"#888\">(no completed spans)</text>\n");
        out.push_str("</svg>\n");
        return out;
    }
    let total = graph.root.weight(by_steps).max(f64::MIN_POSITIVE);
    svg_children(
        &mut out,
        &graph.root.children,
        0.0,
        SVG_WIDTH,
        24.0,
        total,
        by_steps,
    );
    out.push_str("</svg>\n");
    out
}

fn max_depth(node: &FlameNode, depth: usize) -> usize {
    node.children
        .values()
        .map(|c| max_depth(c, depth + 1))
        .max()
        .unwrap_or(depth)
}

fn svg_children(
    out: &mut String,
    children: &BTreeMap<String, FlameNode>,
    x0: f64,
    width: f64,
    y: f64,
    total: f64,
    by_steps: bool,
) {
    let mut ordered: Vec<(&String, &FlameNode)> = children.iter().collect();
    ordered.sort_by(|a, b| {
        b.1.weight(by_steps)
            .total_cmp(&a.1.weight(by_steps))
            .then_with(|| a.0.cmp(b.0))
    });
    let mut x = x0;
    let mut other = 0.0;
    for (name, node) in ordered {
        let w = node.weight(by_steps) / total * SVG_WIDTH;
        if w < SVG_MIN_PX {
            other += w;
            continue;
        }
        let w = w.min(x0 + width - x);
        let share = node.weight(by_steps) / total * 100.0;
        out.push_str(&format!(
            "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{:.2}\" fill=\"{}\" \
             stroke=\"#fff\"><title>{} ×{} — {:.6} {} ({share:.1}%)</title></rect>\n",
            SVG_ROW - 1.0,
            svg_color(name),
            xml_escape(name),
            node.count,
            node.weight(by_steps),
            if by_steps { "steps" } else { "sim_s" },
        ));
        if w >= 48.0 {
            out.push_str(&format!(
                "<text x=\"{:.2}\" y=\"{:.2}\" fill=\"#222\">{}</text>\n",
                x + 3.0,
                y + SVG_ROW - 6.0,
                xml_escape(&truncate_label(name, w)),
            ));
        }
        svg_children(out, &node.children, x, w, y + SVG_ROW, total, by_steps);
        x += w;
    }
    if other > 0.0 {
        out.push_str(&format!(
            "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{:.2}\" height=\"{:.2}\" fill=\"#bbb\" \
             stroke=\"#fff\"><title>(other)</title></rect>\n",
            other.max(SVG_MIN_PX),
            SVG_ROW - 1.0,
        ));
    }
}

fn truncate_label(name: &str, width_px: f64) -> String {
    let max_chars = ((width_px - 6.0) / 7.0).max(1.0) as usize;
    if name.len() <= max_chars {
        name.to_owned()
    } else {
        format!("{}…", &name[..max_chars.saturating_sub(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icm_json::Json;
    use icm_obs::{Tracer, Value};

    fn traced_events() -> Vec<Event> {
        let (tracer, recorder) = Tracer::recording(64);
        let outer = tracer.span("deploy", &[]);
        for _ in 0..2 {
            let inner = tracer.span("run", &[("kind", Value::from("solo"))]);
            tracer.advance_sim(10.0);
            inner.end_with(&[("simulated_s", Value::F64(10.0))]);
        }
        let search = tracer.span("anneal", &[("rule", Value::from("greedy"))]);
        tracer.advance_sim(3.0);
        search.end();
        outer.end();
        tracer.event("probe", &[("residual", Value::F64(0.5))]);
        recorder.events()
    }

    #[test]
    fn nested_spans_aggregate_by_path() {
        let graph = build_flame(&traced_events());
        assert_eq!(graph.dangling, 0);
        let deploy = graph.root.children.get("deploy").expect("deploy frame");
        assert_eq!(deploy.count, 1);
        assert_eq!(deploy.sim_s, 23.0);
        let run = deploy.children.get("run").expect("nested run frame");
        assert_eq!(run.count, 2, "two instances aggregate into one frame");
        assert_eq!(run.sim_s, 20.0);
        assert_eq!(deploy.children.get("anneal").expect("anneal").sim_s, 3.0);
        // Self time: 23 − 20 − 3 = 0.
        assert_eq!(deploy.self_weight(false), 0.0);
    }

    #[test]
    fn critical_path_follows_the_heaviest_chain() {
        let graph = build_flame(&traced_events());
        assert_eq!(graph.critical_path(), ["deploy", "run"]);
    }

    #[test]
    fn step_weights_kick_in_when_sim_never_advances() {
        let (tracer, recorder) = Tracer::recording(16);
        let span = tracer.span("work", &[]);
        tracer.event("mark", &[]);
        span.end();
        let graph = build_flame(&recorder.events());
        assert!(graph.weights_by_steps());
        assert_eq!(graph.root.children.get("work").expect("frame").steps, 2);
    }

    #[test]
    fn ascii_rendering_is_deterministic_and_marks_the_critical_path() {
        let graph = build_flame(&traced_events());
        let text = render_ascii(&graph);
        assert_eq!(text, render_ascii(&graph));
        assert!(text.contains("*deploy"), "critical root marked: {text}");
        assert!(text.contains("  *run"), "critical child marked: {text}");
        assert!(text.contains(" anneal"), "off-path frame unmarked: {text}");
    }

    #[test]
    fn svg_rendering_is_self_contained_and_balanced() {
        let graph = build_flame(&traced_events());
        let svg = render_svg(&graph);
        assert_eq!(svg, render_svg(&graph), "deterministic");
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), svg.matches("</rect>").count());
        assert!(svg.contains("deploy"));
        assert!(!svg.contains("href"), "no external references");
    }

    #[test]
    fn empty_trace_renders_gracefully() {
        let graph = build_flame(&[]);
        assert!(graph.is_empty());
        assert!(render_ascii(&graph).contains("no completed spans"));
        assert!(render_svg(&graph).contains("no completed spans"));
        let json = icm_json::to_value(&graph);
        assert_eq!(
            json.get("critical_path")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
    }
}
