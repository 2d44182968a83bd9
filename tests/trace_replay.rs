//! Span-replay goldens: every consumer of a trace's `.begin`/`.end`
//! spans against digests recorded before they shared one matcher.
//!
//! A traced `recovery --fast` run, written the way
//! `icm-experiments recovery --fast --trace T --telemetry M` writes it
//! (one `experiment` span around the run, telemetry teed beside the raw
//! trace, a final health snapshot stamped at the end), is replayed by
//! `icm-trace summarize` (text and `--json`), `icm-trace flame` (ASCII,
//! `--json`, `--svg`) and the telemetry accumulator. Each output is
//! pinned as the FNV-1a-64 of the exact bytes the CLI prints, at seeds
//! 2016 and 7, in `trace_replay.golden`.
//!
//! A damaged trace then pins the one dangling policy of
//! `icm_obs::SpanMatcher` in every consumer.

use icm::experiments::flame::{build_flame, render_ascii, render_svg};
use icm::experiments::trace::{render, summarize};
use icm::experiments::{ExpConfig, Experiment};
use icm::json::fs::fnv1a64;
use icm::json::Json;
use icm_obs::{
    parse_events, Event, JsonlSink, SharedBuf, Telemetry, TelemetryConfig, TelemetrySink, Tracer,
    Value, MAX_OPEN_SPANS,
};

/// The pinned digests: one line per seed, `seed <n>: <label>=<hex>…`.
const GOLDEN: &str = include_str!("trace_replay.golden");

/// The raw JSONL trace and the telemetry artifact of one traced
/// `recovery --fast` run at `seed`.
fn recovery_run(seed: u64) -> (String, String) {
    let cfg = ExpConfig { fast: true, seed };
    let buf = SharedBuf::new();
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let tracer = Tracer::with_telemetry(TelemetrySink::tee(
        telemetry.clone(),
        JsonlSink::new(buf.clone()),
    ));
    let exp = Experiment::Recovery;
    let span = tracer.span(
        "experiment",
        &[
            ("id", exp.id().into()),
            ("seed", seed.into()),
            ("fast", true.into()),
        ],
    );
    exp.run_full_traced(&cfg, &tracer).expect("recovery runs");
    span.end_with(&[("id", exp.id().into())]);
    tracer.flush();
    let stamp = tracer.now();
    telemetry.snapshot_now(stamp.step, stamp.sim_s);
    (buf.text(), telemetry.to_text())
}

/// The golden line of one seed: each replay output's digest.
fn digests(seed: u64) -> String {
    let (trace, telemetry) = recovery_run(seed);
    let events = parse_events(&trace).expect("the trace parses");
    let summary = summarize(&events);
    let flame = build_flame(&events);
    let outputs = [
        ("trace", trace.clone()),
        ("summarize", render(&summary)),
        (
            "summarize-json",
            format!("{}\n", icm::json::to_string(&summary)),
        ),
        ("flame", render_ascii(&flame)),
        ("flame-json", format!("{}\n", icm::json::to_string(&flame))),
        ("flame-svg", render_svg(&flame)),
        ("telemetry", telemetry),
    ];
    let mut line = format!("seed {seed}:");
    for (label, bytes) in outputs {
        line.push_str(&format!(" {label}={:016x}", fnv1a64(bytes.as_bytes())));
    }
    line
}

#[test]
fn span_replay_outputs_match_their_goldens() {
    for seed in [2016, 7] {
        let line = digests(seed);
        let prefix = format!("seed {seed}:");
        let golden = GOLDEN
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no golden line for seed {seed}"));
        assert_eq!(line, golden, "seed {seed}: a replay output changed");
    }
}

/// A trace with every kind of span damage, and its dangling count.
fn damaged_trace() -> (Vec<Event>, u64) {
    let (tracer, recorder) = Tracer::recording(1024);
    // An unmatched `.end`, and one without an id: 2 dangling.
    tracer.event("ghost.end", &[("span", Value::U64(9999))]);
    tracer.event("blank.end", &[]);
    // A non-LIFO close: `outer` ends while `inner` is still open, which
    // drops `inner` (1), and `inner`'s late `.end` matches nothing (1).
    let outer = tracer.span("outer", &[]);
    let inner = tracer.span("inner", &[]);
    tracer.advance_sim(1.0);
    outer.end();
    inner.end();
    // An over-deep stack: two spans past the bound drop the two oldest
    // (2), whose `.end`s then match nothing (2).
    let deep: Vec<_> = (0..MAX_OPEN_SPANS + 2)
        .map(|_| tracer.span("deep", &[]))
        .collect();
    tracer.advance_sim(1.0);
    for span in deep.into_iter().rev() {
        span.end();
    }
    // An unclosed `.begin` at the end of the trace: 1.
    std::mem::forget(tracer.span("unclosed", &[]));
    tracer.advance_sim(5.0);
    (recorder.events(), 9)
}

#[test]
fn a_damaged_trace_gets_one_dangling_policy_in_every_consumer() {
    let (events, dangling) = damaged_trace();
    let flame = build_flame(&events);
    assert_eq!(flame.dangling, dangling);
    // The oldest surviving `deep` span is a top-level frame once the
    // two below it are dropped; the dropped `inner` never lands.
    let top: Vec<&str> = flame.root.children.keys().map(String::as_str).collect();
    assert_eq!(top, ["deep", "outer"]);
    assert!(flame.root.children["outer"].children.is_empty());
    assert_eq!(flame.root.sim_s, 2.0, "only closed spans weigh in");
    assert!(render_ascii(&flame).contains("(9 dangling span events)"));

    let summary = summarize(&events);
    let phases: Vec<(&str, u64)> = summary
        .phases
        .iter()
        .map(|p| (p.name.as_str(), p.count))
        .collect();
    assert_eq!(phases, [("deep", MAX_OPEN_SPANS as u64), ("outer", 1)]);

    let telemetry = Telemetry::new(TelemetryConfig::default());
    for event in &events {
        telemetry.record_event(event);
    }
    let doc = icm::json::to_value(&telemetry);
    let closed = |name: &str| {
        doc.get("series")
            .and_then(|s| s.get(&format!("span.{name}.sim_s")))
            .and_then(|s| s.get("count"))
            .and_then(Json::as_f64)
    };
    assert_eq!(closed("deep"), Some(MAX_OPEN_SPANS as f64));
    assert_eq!(closed("outer"), Some(1.0));
    assert_eq!(closed("inner"), None);
    assert_eq!(closed("unclosed"), None);
}
