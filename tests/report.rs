//! End-to-end report guarantees: the figure-grade HTML page built from
//! a fixed-seed results document is byte-identical across regenerations,
//! covers the acceptance figures (2, 3, 11), and is fully self-contained
//! (no scripts, stylesheets, images, or network references).

use icm_experiments::context::ExpConfig;
use icm_experiments::results::ResultsDoc;
use icm_experiments::Experiment;
use icm_report::{build_report, render_html, render_text};

/// Runs the acceptance figures at `seed` into one results document.
fn results_doc(seed: u64) -> ResultsDoc {
    let cfg = ExpConfig { seed, fast: true };
    let mut doc = ResultsDoc::new(cfg.seed, cfg.fast);
    for exp in [Experiment::Fig2, Experiment::Fig3, Experiment::Fig11] {
        doc.push(exp.id(), exp.run_json(&cfg).expect("experiment runs"));
    }
    doc
}

#[test]
fn html_report_is_byte_identical_across_same_seed_runs() {
    let first = render_html(&build_report(&results_doc(2016), None, None, None));
    let second = render_html(&build_report(&results_doc(2016), None, None, None));
    assert_eq!(
        first, second,
        "same seed must regenerate a byte-identical report"
    );
}

#[test]
fn html_report_covers_the_acceptance_figures_and_is_self_contained() {
    let html = render_html(&build_report(&results_doc(2016), None, None, None));
    for needle in ["Figure 2", "Figure 3", "Figure 11", "<svg"] {
        assert!(html.contains(needle), "report must contain `{needle}`");
    }
    for forbidden in ["<script", "<link", "<img", "http://", "https://"] {
        assert!(
            !html.contains(forbidden),
            "self-contained report must not contain `{forbidden}`"
        );
    }
    // Both color schemes ship inline.
    assert!(html.contains("prefers-color-scheme"));
}

#[test]
fn text_report_carries_a_verdict_per_section_and_an_overall_line() {
    let doc = results_doc(2016);
    let report = build_report(&doc, None, None, None);
    let text = render_text(&report);
    for needle in ["Figure 2", "Figure 3", "Figure 11", "overall:"] {
        assert!(text.contains(needle), "text report must contain `{needle}`");
    }
    // Experiments that were not run surface as missing, not as silence.
    assert!(text.contains("missing"));
}
