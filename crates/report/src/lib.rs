//! `icm-report` — figure-grade reporting on top of `icm-experiments`
//! results.
//!
//! Input is the machine-readable `results.json` written by
//! `icm-experiments` (see [`icm_experiments::results::ResultsDoc`]);
//! output is either a static, fully self-contained HTML page with
//! inline-SVG charts reproducing the shapes of the paper's Figures 2,
//! 3, 6/7 (Table 3), 10 and 11 — each with a paper-vs-measured
//! fidelity verdict — or a plain-text summary for CI logs.
//!
//! Everything is deterministic: same `results.json` in, byte-identical
//! HTML out. The page loads nothing from the network — no scripts, no
//! fonts, no images — so it can be checked into CI artifacts and read
//! offline indefinitely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod html;
pub mod svg;
pub mod verdict;

use icm_experiments::fig10::Fig10Result;
use icm_experiments::fig11::Fig11Result;
use icm_experiments::fig2::Fig2Result;
use icm_experiments::fig3::Fig3Result;
use icm_experiments::flame::FlameGraph;
use icm_experiments::recovery::RecoveryResult;
use icm_experiments::results::ResultsDoc;
use icm_experiments::robustness::RobustnessResult;
use icm_experiments::serve::ServeResult;
use icm_experiments::table3::Table3Result;
use icm_json::{FromJson, Json};

use svg::{BarChart, BarSeries, LegendEntry, LineChart, LineSeries};
use verdict::{Status, Verdict, PAPER_TABLE3_COST_PCT};

pub use html::render_html;

/// One rendered chart plus its legend and an accessible data table.
#[derive(Debug, Clone)]
pub struct Chart {
    /// Caption shown above the chart (may be empty).
    pub caption: String,
    /// The inline `<svg>` markup.
    pub svg: String,
    /// Legend entries (label, CSS color).
    pub legend: Vec<LegendEntry>,
    /// Tabular view of the plotted data; first row is the header.
    pub table: Vec<Vec<String>>,
}

/// One report section: a figure (or the wall profile) with its verdict.
#[derive(Debug, Clone)]
pub struct Section {
    /// Anchor id (`fig2`, `fig3`, …).
    pub id: String,
    /// Display title.
    pub title: String,
    /// The paper claim this section checks.
    pub claim: String,
    /// Paper-vs-measured verdict.
    pub verdict: Verdict,
    /// Charts, in display order.
    pub charts: Vec<Chart>,
    /// Free-form remarks rendered under the charts.
    pub notes: Vec<String>,
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Seed the experiments ran with.
    pub seed: u64,
    /// Whether reduced grids were used.
    pub fast: bool,
    /// Sections in paper order.
    pub sections: Vec<Section>,
}

impl Report {
    /// The worst verdict across sections (`Missing` counts as worse
    /// than `Warn` but better than `Fail` for CI purposes — a missing
    /// figure is an incomplete run, not a refuted claim).
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for section in &self.sections {
            match section.verdict.status {
                Status::Pass => counts.0 += 1,
                Status::Warn => counts.1 += 1,
                Status::Fail => counts.2 += 1,
                Status::Missing => counts.3 += 1,
            }
        }
        counts
    }

    /// Whether any section failed outright.
    pub fn has_failures(&self) -> bool {
        self.sections
            .iter()
            .any(|s| s.verdict.status == Status::Fail)
    }
}

fn chart_from_bar(caption: &str, chart: &BarChart) -> Chart {
    let mut table = Vec::with_capacity(chart.group_labels.len() + 1);
    let mut header = vec![chart.x_label.clone()];
    header.extend(chart.series.iter().map(|s| s.label.clone()));
    table.push(header);
    for (g, group) in chart.group_labels.iter().enumerate() {
        let mut row = vec![group.clone()];
        for series in &chart.series {
            row.push(
                series
                    .values
                    .get(g)
                    .map(|v| svg::fmt_value(*v))
                    .unwrap_or_default(),
            );
        }
        table.push(row);
    }
    Chart {
        caption: caption.to_owned(),
        svg: chart.svg(),
        legend: chart.legend(),
        table,
    }
}

fn chart_from_line(caption: &str, chart: &LineChart) -> Chart {
    let mut table = Vec::new();
    if let Some(first) = chart.series.first() {
        let mut header = vec![chart.x_label.clone()];
        header.extend(chart.series.iter().map(|s| s.label.clone()));
        table.push(header);
        for (i, &(x, _)) in first.points.iter().enumerate() {
            let mut row = vec![svg::fmt_value(x)];
            for series in &chart.series {
                row.push(
                    series
                        .points
                        .get(i)
                        .map(|p| svg::fmt_value(p.1))
                        .unwrap_or_default(),
                );
            }
            table.push(row);
        }
    }
    Chart {
        caption: caption.to_owned(),
        svg: chart.svg(),
        legend: chart.legend(),
        table,
    }
}

type SectionBody = (Verdict, Vec<Chart>, Vec<String>);

fn typed_section<T: FromJson>(
    doc: &ResultsDoc,
    id: &str,
    title: &str,
    claim: &str,
    build: impl FnOnce(&T) -> SectionBody,
) -> Section {
    let (verdict, charts, notes) = match doc.get(id) {
        None => (Verdict::missing(id), Vec::new(), Vec::new()),
        Some(json) => match icm_json::from_value::<T>(json) {
            Ok(result) => build(&result),
            Err(err) => (
                Verdict {
                    status: Status::Fail,
                    detail: format!("cannot parse `{id}` result: {err}"),
                },
                Vec::new(),
                Vec::new(),
            ),
        },
    };
    Section {
        id: id.to_owned(),
        title: title.to_owned(),
        claim: claim.to_owned(),
        verdict,
        charts,
        notes,
    }
}

fn fig2_section(doc: &ResultsDoc) -> Section {
    typed_section(
        doc,
        "fig2",
        "Figure 2 — naive vs real interference",
        "Interference on a distributed app grows far beyond the naive proportional \
         expectation as more nodes host a co-runner.",
        |r: &Fig2Result| {
            let chart = BarChart {
                width: 460.0,
                height: 240.0,
                x_label: "interfering nodes".to_owned(),
                y_label: "normalized time".to_owned(),
                group_labels: r
                    .rows
                    .iter()
                    .map(|row| row.interfering_nodes.to_string())
                    .collect(),
                series: vec![
                    BarSeries {
                        label: "naive expectation".to_owned(),
                        color: "var(--c2)".to_owned(),
                        values: r.rows.iter().map(|row| row.naive_expected).collect(),
                    },
                    BarSeries {
                        label: "measured".to_owned(),
                        color: "var(--c1)".to_owned(),
                        values: r.rows.iter().map(|row| row.real).collect(),
                    },
                ],
                hline: None,
            };
            let caption = format!("{} with {} co-runners", r.app, r.corunner);
            let notes = vec![format!(
                "co-runner bubble score: {}",
                svg::fmt_value(r.corunner_score)
            )];
            (
                verdict::check_fig2(r),
                vec![chart_from_bar(&caption, &chart)],
                notes,
            )
        },
    )
}

fn ramp_color(index: usize, count: usize) -> String {
    let slot = if count <= 1 {
        8
    } else {
        1 + (index as f64 * 7.0 / (count - 1) as f64).round() as usize
    };
    format!("var(--r{slot})")
}

fn fig3_section(doc: &ResultsDoc) -> Section {
    typed_section(
        doc,
        "fig3",
        "Figure 3 — interference propagation",
        "Each distributed app slows down as interfering nodes and bubble pressure \
         grow; one curve per pressure, one panel per app.",
        |r: &Fig3Result| {
            let charts = r
                .apps
                .iter()
                .map(|app| {
                    let chart = LineChart {
                        width: 320.0,
                        height: 210.0,
                        x_label: "interfering nodes".to_owned(),
                        y_label: "normalized time".to_owned(),
                        y_from_zero: false,
                        series: app
                            .pressures
                            .iter()
                            .enumerate()
                            .map(|(p, pressure)| LineSeries {
                                label: format!("pressure {pressure}"),
                                color: ramp_color(p, app.pressures.len()),
                                points: app
                                    .node_counts
                                    .iter()
                                    .zip(app.curves.get(p).map_or(&[] as &[f64], Vec::as_slice))
                                    .map(|(&n, &y)| (n as f64, y))
                                    .collect(),
                            })
                            .collect(),
                    };
                    chart_from_line(&app.app, &chart)
                })
                .collect();
            (verdict::check_fig3(r), charts, Vec::new())
        },
    )
}

fn table3_section(doc: &ResultsDoc) -> Section {
    typed_section(
        doc,
        "table3",
        "Table 3 / Figures 6–7 — profiling cost and accuracy",
        "Binary-optimized profiling measures under a fifth of the setting space \
         while staying as accurate as much more expensive strategies.",
        |r: &Table3Result| {
            let algorithms: Vec<String> = r.averages.iter().map(|a| a.algorithm.clone()).collect();
            let cost = BarChart {
                width: 460.0,
                height: 240.0,
                x_label: "algorithm".to_owned(),
                y_label: "cost (% of settings)".to_owned(),
                group_labels: algorithms.clone(),
                series: vec![
                    BarSeries {
                        label: "measured".to_owned(),
                        color: "var(--c1)".to_owned(),
                        values: r.averages.iter().map(|a| a.cost_pct).collect(),
                    },
                    BarSeries {
                        label: "paper".to_owned(),
                        color: "var(--c4)".to_owned(),
                        values: PAPER_TABLE3_COST_PCT.to_vec(),
                    },
                ],
                hline: None,
            };
            let error = BarChart {
                width: 460.0,
                height: 240.0,
                x_label: "algorithm".to_owned(),
                y_label: "mean abs error (%)".to_owned(),
                group_labels: algorithms,
                series: vec![BarSeries {
                    label: "measured error".to_owned(),
                    color: "var(--c1)".to_owned(),
                    values: r.averages.iter().map(|a| a.error_pct).collect(),
                }],
                hline: None,
            };
            let hours: f64 = r.averages.iter().map(|a| a.cluster_hours).sum();
            (
                verdict::check_table3(r),
                vec![
                    chart_from_bar("profiling cost (Fig. 7)", &cost),
                    chart_from_bar("profiling error (Fig. 6)", &error),
                ],
                vec![format!(
                    "total simulated profiling time across algorithms: {} cluster-hours",
                    svg::fmt_value(hours)
                )],
            )
        },
    )
}

fn fig10_section(doc: &ResultsDoc) -> Section {
    typed_section(
        doc,
        "fig10",
        "Figure 10 — QoS-aware placement",
        "Placements chosen with the proposed model keep the QoS target inside its \
         bound; the naive model's placements often do not.",
        |r: &Fig10Result| {
            let value_of = |mix: &icm_experiments::fig10::QosMixOutcome, model: &str| {
                mix.outcomes
                    .iter()
                    .find(|o| o.model == model)
                    .map(|o| o.actual_target)
                    .unwrap_or(f64::NAN)
            };
            let chart = BarChart {
                width: 560.0,
                height: 240.0,
                x_label: "mix".to_owned(),
                y_label: "target normalized time".to_owned(),
                group_labels: r.mixes.iter().map(|m| m.mix.clone()).collect(),
                series: vec![
                    BarSeries {
                        label: "proposed model".to_owned(),
                        color: "var(--c1)".to_owned(),
                        values: r.mixes.iter().map(|m| value_of(m, "proposed")).collect(),
                    },
                    BarSeries {
                        label: "naive model".to_owned(),
                        color: "var(--c2)".to_owned(),
                        values: r.mixes.iter().map(|m| value_of(m, "naive")).collect(),
                    },
                ],
                hline: r.mixes.first().map(|m| (m.bound, "QoS bound".to_owned())),
            };
            let notes = vec![format!(
                "QoS fraction: {} (bound = 1/fraction on normalized time)",
                svg::fmt_value(r.qos_fraction)
            )];
            (
                verdict::check_fig10(r),
                vec![chart_from_bar("measured QoS-target time per mix", &chart)],
                notes,
            )
        },
    )
}

fn fig11_section(doc: &ResultsDoc) -> Section {
    typed_section(
        doc,
        "fig11",
        "Figure 11 — placement for performance",
        "Over the Table 5 mixes, the model-guided best placement speeds the mix up \
         over the worst placement, beating random and naive-model placement.",
        |r: &Fig11Result| {
            let chart = BarChart {
                width: 560.0,
                height: 240.0,
                x_label: "mix".to_owned(),
                y_label: "avg speedup vs worst".to_owned(),
                group_labels: r.mixes.iter().map(|m| m.mix.clone()).collect(),
                series: vec![
                    BarSeries {
                        label: "model-guided best".to_owned(),
                        color: "var(--c1)".to_owned(),
                        values: r.mixes.iter().map(|m| m.best_speedup).collect(),
                    },
                    BarSeries {
                        label: "random".to_owned(),
                        color: "var(--c3)".to_owned(),
                        values: r.mixes.iter().map(|m| m.random_speedup).collect(),
                    },
                    BarSeries {
                        label: "naive model".to_owned(),
                        color: "var(--c2)".to_owned(),
                        values: r.mixes.iter().map(|m| m.naive_speedup).collect(),
                    },
                ],
                hline: Some((1.0, "no speedup".to_owned())),
            };
            (
                verdict::check_fig11(r),
                vec![chart_from_bar("speedup per mix", &chart)],
                Vec::new(),
            )
        },
    )
}

fn serve_section(doc: &ResultsDoc) -> Section {
    typed_section(
        doc,
        "serve",
        "Serve — the placement daemon under load, killed and recovered",
        "A persistent placement daemon under scripted load answers inside declared \
         deadline budgets, sheds typed overload replies only when the queue bound is \
         exceeded, degrades gracefully to bounded-staleness cached predictions, and \
         loses no acknowledged reply across a mid-stream kill — its recovered \
         committed-reply journal is byte-identical to an uninterrupted run's.",
        |r: &ServeResult| {
            let outcomes = BarChart {
                width: 460.0,
                height: 240.0,
                x_label: "reply outcome".to_owned(),
                y_label: "replies".to_owned(),
                group_labels: vec![
                    "served".to_owned(),
                    "degraded".to_owned(),
                    "shed".to_owned(),
                    "deadline".to_owned(),
                    "errors".to_owned(),
                ],
                series: vec![BarSeries {
                    label: "replies".to_owned(),
                    color: "var(--c1)".to_owned(),
                    values: vec![
                        r.served as f64,
                        r.degraded as f64,
                        r.shed as f64,
                        r.deadline_exceeded as f64,
                        r.errors as f64,
                    ],
                }],
                hline: None,
            };
            let latency = BarChart {
                width: 380.0,
                height: 240.0,
                x_label: "virtual latency".to_owned(),
                y_label: "microseconds".to_owned(),
                group_labels: vec!["p50".to_owned(), "p99".to_owned()],
                series: vec![BarSeries {
                    label: "served requests".to_owned(),
                    color: "var(--c3)".to_owned(),
                    values: vec![r.p50_us, r.p99_us],
                }],
                hline: Some((r.deadline_budget_us as f64, "deadline budget".to_owned())),
            };
            let notes = vec![
                format!(
                    "{} frames ({} requests) served across a mid-stream kill; \
                     {} replies committed, {} lost",
                    r.frames, r.requests, r.committed, r.lost_committed
                ),
                format!(
                    "sustained {} served requests per virtual second; degraded \
                     fraction {:.3}",
                    svg::fmt_value(r.served_per_vs),
                    r.degraded_fraction
                ),
            ];
            (
                verdict::check_serve(r),
                vec![
                    chart_from_bar("reply outcomes under the scripted load", &outcomes),
                    chart_from_bar("virtual latency of served requests", &latency),
                ],
                notes,
            )
        },
    )
}

fn robustness_section(doc: &ResultsDoc) -> Section {
    typed_section(
        doc,
        "robustness",
        "Robustness — profiling under injected faults",
        "With transient probe failures, stragglers and corrupted measurements \
         injected, the resilient profiling driver still produces a full-coverage \
         model whose fidelity degrades monotonically with the fault rate, at a \
         bounded profiling-cost inflation.",
        |r: &RobustnessResult| {
            let fidelity = LineChart {
                width: 460.0,
                height: 240.0,
                x_label: "injected fault rate (%)".to_owned(),
                y_label: "mean model error (%)".to_owned(),
                y_from_zero: true,
                series: vec![
                    LineSeries {
                        label: "model error".to_owned(),
                        color: "var(--c1)".to_owned(),
                        points: r
                            .points
                            .iter()
                            .map(|p| (p.fault_pct, p.mean_error_pct))
                            .collect(),
                    },
                    LineSeries {
                        label: "defaulted cells".to_owned(),
                        color: "var(--c3)".to_owned(),
                        points: r
                            .points
                            .iter()
                            .map(|p| (p.fault_pct, p.mean_defaulted_pct))
                            .collect(),
                    },
                ],
            };
            let cost = LineChart {
                width: 460.0,
                height: 240.0,
                x_label: "injected fault rate (%)".to_owned(),
                y_label: "relative cost / degradation".to_owned(),
                y_from_zero: true,
                series: vec![
                    LineSeries {
                        label: "profiling-cost inflation (x)".to_owned(),
                        color: "var(--c2)".to_owned(),
                        points: r
                            .points
                            .iter()
                            .map(|p| (p.fault_pct, p.cost_inflation))
                            .collect(),
                    },
                    LineSeries {
                        label: "placement degradation (%)".to_owned(),
                        color: "var(--c4)".to_owned(),
                        points: r
                            .points
                            .iter()
                            .map(|p| (p.fault_pct, p.placement_degradation_pct))
                            .collect(),
                    },
                ],
            };
            let notes = r
                .points
                .last()
                .map(|worst| {
                    vec![format!(
                        "at {}% faults: {} retries, {} injected failures absorbed",
                        svg::fmt_value(worst.fault_pct),
                        worst.retries,
                        worst.injected_failures
                    )]
                })
                .unwrap_or_default();
            (
                verdict::check_robustness(r),
                vec![
                    chart_from_line("model fidelity vs fault rate", &fidelity),
                    chart_from_line("cost and placement impact", &cost),
                ],
                notes,
            )
        },
    )
}

fn recovery_section(doc: &ResultsDoc) -> Section {
    typed_section(
        doc,
        "recovery",
        "Recovery — self-healing runtime vs unmanaged baseline",
        "Under scripted host crashes and ambient drift, the supervisory control \
         loop (migration, incremental re-annealing, admission control) never \
         accumulates more QoS-violation time than an unmanaged run of the same \
         fleet, and strictly reduces it when failures strike.",
        |r: &RecoveryResult| {
            let violations = BarChart {
                width: 560.0,
                height: 240.0,
                x_label: "scenario".to_owned(),
                y_label: "QoS-violation time (s)".to_owned(),
                group_labels: r.points.iter().map(|p| p.label.clone()).collect(),
                series: vec![
                    BarSeries {
                        label: "managed".to_owned(),
                        color: "var(--c1)".to_owned(),
                        values: r.points.iter().map(|p| p.managed_violation_s).collect(),
                    },
                    BarSeries {
                        label: "unmanaged".to_owned(),
                        color: "var(--c2)".to_owned(),
                        values: r.points.iter().map(|p| p.unmanaged_violation_s).collect(),
                    },
                ],
                hline: None,
            };
            let actions = BarChart {
                width: 560.0,
                height: 240.0,
                x_label: "scenario".to_owned(),
                y_label: "manager actions".to_owned(),
                group_labels: r.points.iter().map(|p| p.label.clone()).collect(),
                series: vec![
                    BarSeries {
                        label: "migrations".to_owned(),
                        color: "var(--c1)".to_owned(),
                        values: r.points.iter().map(|p| p.migrations as f64).collect(),
                    },
                    BarSeries {
                        label: "re-anneals".to_owned(),
                        color: "var(--c3)".to_owned(),
                        values: r.points.iter().map(|p| p.reanneals as f64).collect(),
                    },
                    BarSeries {
                        label: "sheds".to_owned(),
                        color: "var(--c2)".to_owned(),
                        values: r.points.iter().map(|p| p.sheds as f64).collect(),
                    },
                    BarSeries {
                        label: "circuit breaks".to_owned(),
                        color: "var(--c4)".to_owned(),
                        values: r.points.iter().map(|p| p.circuit_breaks as f64).collect(),
                    },
                ],
                hline: None,
            };
            let mut notes = vec![format!(
                "{} supervisory ticks over {} applications ({})",
                r.ticks,
                r.apps.len(),
                r.apps.join(", ")
            )];
            if let Some(worst) = r
                .points
                .iter()
                .filter(|p| p.mean_recovery_latency_s > 0.0)
                .max_by(|a, b| a.avoided_violation_s.total_cmp(&b.avoided_violation_s))
            {
                notes.push(format!(
                    "`{}`: {} violation-seconds avoided, mean recovery latency {}s",
                    worst.label,
                    svg::fmt_value(worst.avoided_violation_s),
                    svg::fmt_value(worst.mean_recovery_latency_s)
                ));
            }
            (
                verdict::check_recovery(r),
                vec![
                    chart_from_bar("violation time: managed vs unmanaged", &violations),
                    chart_from_bar("reaction mix per scenario", &actions),
                ],
                notes,
            )
        },
    )
}

fn audit_body(r: &RecoveryResult) -> SectionBody {
    let verdict = verdict::check_audit(r);
    let scenarios = r.points.iter().filter(|p| !p.provenance.is_empty()).count();
    let actions: usize = r.points.iter().map(|p| p.provenance.len()).sum();
    if actions == 0 {
        return (verdict, Vec::new(), Vec::new());
    }

    // Per-kind realized benefit — the chart — plus the per-action
    // provenance table that backs it.
    let mut per_kind: Vec<(String, f64, f64)> = Vec::new();
    let mut table = vec![vec![
        "scenario".to_owned(),
        "action".to_owned(),
        "tick".to_owned(),
        "kind".to_owned(),
        "app".to_owned(),
        "quality".to_owned(),
        "predicted".to_owned(),
        "realized".to_owned(),
        "detections".to_owned(),
        "avoided (s)".to_owned(),
        "outcome".to_owned(),
    ]];
    for point in &r.points {
        for rec in &point.provenance {
            match per_kind.iter_mut().find(|k| k.0 == rec.kind) {
                Some(k) => {
                    k.1 += rec.avoided_violation_s();
                    k.2 += rec.cost_s;
                }
                None => per_kind.push((rec.kind.clone(), rec.avoided_violation_s(), rec.cost_s)),
            }
            let outcome = match (&rec.outcome, rec.resolved) {
                (Some(o), _) => format!("recovered in {}s", svg::fmt_value(o.latency_s)),
                (None, true) => "resolved".to_owned(),
                (None, false) => "unresolved".to_owned(),
            };
            table.push(vec![
                point.label.clone(),
                rec.action_index.to_string(),
                rec.tick.to_string(),
                rec.kind.clone(),
                rec.app.clone().unwrap_or_else(|| "(fleet)".to_owned()),
                rec.quality.clone(),
                svg::fmt_value(rec.predicted_slowdown),
                svg::fmt_value(rec.realized_slowdown),
                rec.detections.len().to_string(),
                svg::fmt_value(rec.avoided_violation_s()),
                outcome,
            ]);
        }
    }
    per_kind.sort_by(|a, b| a.0.cmp(&b.0));
    let chart = BarChart {
        width: 560.0,
        height: 240.0,
        x_label: "action kind".to_owned(),
        y_label: "seconds".to_owned(),
        group_labels: per_kind.iter().map(|k| k.0.clone()).collect(),
        series: vec![
            BarSeries {
                label: "violation avoided (s)".to_owned(),
                color: "var(--c1)".to_owned(),
                values: per_kind.iter().map(|k| k.1).collect(),
            },
            BarSeries {
                label: "action cost (s)".to_owned(),
                color: "var(--c2)".to_owned(),
                values: per_kind.iter().map(|k| k.2).collect(),
            },
        ],
        hline: None,
    };
    let mut chart = chart_from_bar("realized benefit per action kind", &chart);
    chart.table = table;
    let notes = vec![format!(
        "{actions} action(s) across {scenarios} eventful scenario(s) carry full provenance \
         (replay any of them with `icm-trace explain --action N`)"
    )];
    (verdict, vec![chart], notes)
}

/// Builds the decision-audit section. It reads the same `recovery`
/// result as [`recovery_section`] but renders its provenance payload:
/// one table row per manager action with the detections, prediction
/// quality and realized benefit behind it. Section id is `audit` so the
/// two sections anchor independently.
fn audit_section(doc: &ResultsDoc) -> Section {
    let (verdict, charts, notes) = match doc.get("recovery") {
        None => (Verdict::missing("recovery"), Vec::new(), Vec::new()),
        Some(json) => match icm_json::from_value::<RecoveryResult>(json) {
            Ok(result) => audit_body(&result),
            Err(err) => (
                Verdict {
                    status: Status::Fail,
                    detail: format!("cannot parse `recovery` result: {err}"),
                },
                Vec::new(),
                Vec::new(),
            ),
        },
    };
    Section {
        id: "audit".to_owned(),
        title: "Decision audit — provenance of every manager action".to_owned(),
        claim: "Every mitigation action is auditable back to the detections and probe \
                observations that justified it, and model-driven reactions rest on \
                measured-quality predictions rather than defaulted model cells."
            .to_owned(),
        verdict,
        charts,
        notes,
    }
}

/// Builds the wall-time self-profiling section from a `profile.json`
/// document (the `--profile` side channel of `icm-experiments`).
fn profile_section(profile: &Json) -> Section {
    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    if let Some(spans) = profile.get("spans").and_then(Json::as_object) {
        for (name, stats) in spans {
            let num = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            rows.push((name.clone(), num("count"), num("total_ns"), num("mean_ns")));
        }
    }
    // Heaviest spans first; ties break on name so output is stable.
    rows.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let total_ms: f64 = rows.iter().map(|r| r.2).sum::<f64>() / 1e6;
    let chart = BarChart {
        width: 560.0,
        height: 240.0,
        x_label: "span".to_owned(),
        y_label: "total wall time (ms)".to_owned(),
        group_labels: rows.iter().take(8).map(|r| r.0.clone()).collect(),
        series: vec![BarSeries {
            label: "wall time".to_owned(),
            color: "var(--c1)".to_owned(),
            values: rows.iter().take(8).map(|r| r.2 / 1e6).collect(),
        }],
        hline: None,
    };
    let mut table = vec![vec![
        "span".to_owned(),
        "count".to_owned(),
        "total ms".to_owned(),
        "mean µs".to_owned(),
    ]];
    for (name, count, total_ns, mean_ns) in &rows {
        table.push(vec![
            name.clone(),
            svg::fmt_value(*count),
            svg::fmt_value(total_ns / 1e6),
            svg::fmt_value(mean_ns / 1e3),
        ]);
    }
    let mut chart = chart_from_bar("heaviest spans", &chart);
    chart.table = table;
    Section {
        id: "profile".to_owned(),
        title: "Wall-time self-profiling".to_owned(),
        claim: "Wall durations are a side channel recorded next to the trace, never \
                through it — the deterministic event stream is byte-identical with \
                profiling on or off."
            .to_owned(),
        verdict: Verdict {
            status: Status::Pass,
            detail: format!(
                "{} spans profiled, {} ms total wall time",
                rows.len(),
                svg::fmt_value(total_ms)
            ),
        },
        charts: vec![chart],
        notes: Vec::new(),
    }
}

/// Builds the streaming-telemetry section from a telemetry artifact
/// (the `--telemetry` output of `icm-experiments`). The verdict checks
/// the artifact's own byte-budget contract: the serialized document
/// must fit under the `budget_bytes` it declares.
fn telemetry_section(telemetry: &Json) -> Section {
    let size = telemetry.to_text().len() + 1; // newline-terminated on disk
    let budget = telemetry
        .get("budget_bytes")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as usize;
    let events = telemetry
        .get("events")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let snapshots = telemetry
        .get("snapshots")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);

    let mut series: Vec<(String, f64, f64, f64, f64, f64)> = Vec::new();
    if let Some(all) = telemetry.get("series").and_then(Json::as_object) {
        for (name, s) in all {
            let num = |key: &str| s.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            series.push((
                name.clone(),
                num("count"),
                num("p50"),
                num("p99"),
                num("min"),
                num("max"),
            ));
        }
    }
    // Busiest series first; ties break on name so output is stable.
    series.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let chart = BarChart {
        width: 560.0,
        height: 240.0,
        x_label: "series".to_owned(),
        y_label: "observations".to_owned(),
        group_labels: series.iter().take(8).map(|s| s.0.clone()).collect(),
        series: vec![BarSeries {
            label: "observations".to_owned(),
            color: "var(--c1)".to_owned(),
            values: series.iter().take(8).map(|s| s.1).collect(),
        }],
        hline: None,
    };
    let mut table = vec![vec![
        "series".to_owned(),
        "count".to_owned(),
        "p50".to_owned(),
        "p99".to_owned(),
        "min".to_owned(),
        "max".to_owned(),
    ]];
    for (name, count, p50, p99, min, max) in &series {
        table.push(vec![
            name.clone(),
            svg::fmt_value(*count),
            svg::fmt_value(*p50),
            svg::fmt_value(*p99),
            svg::fmt_value(*min),
            svg::fmt_value(*max),
        ]);
    }
    let mut chart = chart_from_bar("busiest telemetry series", &chart);
    chart.table = table;

    let mut notes = vec![format!(
        "{events} events folded, {snapshots} health snapshots retained"
    )];
    if let Some(counters) = telemetry
        .get("health")
        .and_then(|h| h.get("counters"))
        .and_then(Json::as_object)
    {
        for (name, value) in counters {
            notes.push(format!(
                "{name}: {}",
                svg::fmt_value(value.as_f64().unwrap_or(0.0))
            ));
        }
    }

    let verdict = if budget == 0 {
        Verdict {
            status: Status::Fail,
            detail: "telemetry document declares no byte budget".to_owned(),
        }
    } else if size > budget {
        Verdict {
            status: Status::Fail,
            detail: format!("telemetry artifact is {size} bytes, over its {budget} byte budget"),
        }
    } else {
        Verdict {
            status: Status::Pass,
            detail: format!(
                "{} series in {size} bytes (budget {budget}) — constant-memory aggregation holds",
                series.len()
            ),
        }
    };
    Section {
        id: "telemetry".to_owned(),
        title: "Streaming telemetry".to_owned(),
        claim: "Windowed rollups, quantile sketches and health snapshots summarize a \
                run of any length in a bounded artifact — the raw trace can be \
                replaced (or teed) without losing the p50/p99 story."
            .to_owned(),
        verdict,
        charts: vec![chart],
        notes,
    }
}

/// Builds the span-flamegraph section from a reconstructed span tree
/// (the `--flame` input, an `icm-experiments --trace` JSONL file).
fn flame_section(graph: &FlameGraph) -> Section {
    let svg_markup = icm_experiments::flame::render_svg(graph);
    let mut table = vec![vec![
        "frame".to_owned(),
        "count".to_owned(),
        "total sim s".to_owned(),
        "steps".to_owned(),
    ]];
    let mut frames: Vec<(String, u64, f64, u64)> = Vec::new();
    fn walk(
        prefix: &str,
        children: &std::collections::BTreeMap<String, icm_experiments::flame::FlameNode>,
        out: &mut Vec<(String, u64, f64, u64)>,
    ) {
        for (name, node) in children {
            let path = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}/{name}")
            };
            out.push((path.clone(), node.count, node.sim_s, node.steps));
            walk(&path, &node.children, out);
        }
    }
    walk("", &graph.root.children, &mut frames);
    frames.sort_by(|a, b| {
        b.2.total_cmp(&a.2)
            .then_with(|| b.3.cmp(&a.3))
            .then_with(|| a.0.cmp(&b.0))
    });
    for (path, count, sim_s, steps) in frames.iter().take(12) {
        table.push(vec![
            path.clone(),
            count.to_string(),
            svg::fmt_value(*sim_s),
            steps.to_string(),
        ]);
    }
    let critical = graph.critical_path();
    let verdict = if graph.is_empty() {
        Verdict {
            status: Status::Missing,
            detail: "trace contains no completed spans".to_owned(),
        }
    } else {
        Verdict {
            status: Status::Pass,
            detail: format!(
                "{} frames; critical path: {}",
                frames.len(),
                critical.join(" → ")
            ),
        }
    };
    Section {
        id: "flame".to_owned(),
        title: "Span flamegraph".to_owned(),
        claim: "Trace spans nest into a tree whose weights are simulated seconds — \
                the same trace always renders the same flamegraph, and the critical \
                path names where the simulated time went."
            .to_owned(),
        verdict,
        charts: vec![Chart {
            caption: "span tree (hover a frame for totals)".to_owned(),
            svg: svg_markup,
            legend: Vec::new(),
            table,
        }],
        notes: Vec::new(),
    }
}

/// Builds the full report from a results document and the optional side
/// documents: a `profile.json` wall-time dump, a `--telemetry` artifact
/// and a reconstructed span flamegraph.
pub fn build_report(
    doc: &ResultsDoc,
    profile: Option<&Json>,
    telemetry: Option<&Json>,
    flame: Option<&FlameGraph>,
) -> Report {
    let mut sections = vec![
        fig2_section(doc),
        fig3_section(doc),
        table3_section(doc),
        fig10_section(doc),
        fig11_section(doc),
        robustness_section(doc),
        recovery_section(doc),
        audit_section(doc),
        serve_section(doc),
    ];
    if let Some(profile) = profile {
        sections.push(profile_section(profile));
    }
    if let Some(telemetry) = telemetry {
        sections.push(telemetry_section(telemetry));
    }
    if let Some(flame) = flame {
        sections.push(flame_section(flame));
    }
    Report {
        seed: doc.seed,
        fast: doc.fast,
        sections,
    }
}

/// Renders the plain-text summary mode (for CI logs).
pub fn render_text(report: &Report) -> String {
    let mut out = format!(
        "icm report — seed {}, {} grids\n\n",
        report.seed,
        if report.fast { "fast" } else { "full" }
    );
    for section in &report.sections {
        out.push_str(&format!(
            "  {} {:<7} {}\n          {}\n",
            section.verdict.status.symbol(),
            section.verdict.status.label(),
            section.title,
            section.verdict.detail
        ));
        for note in &section.notes {
            out.push_str(&format!("          note: {note}\n"));
        }
    }
    let (pass, warn, fail, missing) = report.counts();
    out.push_str(&format!(
        "\noverall: {pass} pass, {warn} warn, {fail} fail, {missing} missing\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use icm_experiments::fig2::Fig2Row;

    fn doc_with_fig2() -> ResultsDoc {
        let result = Fig2Result {
            app: "M.lmps".to_owned(),
            corunner: "C.libq".to_owned(),
            corunner_score: 0.42,
            rows: (0..=4)
                .map(|n| Fig2Row {
                    interfering_nodes: n,
                    naive_expected: 1.0 + n as f64 * 0.05,
                    real: 1.0 + n as f64 * 0.25,
                })
                .collect(),
        };
        let mut doc = ResultsDoc::new(7, true);
        doc.push("fig2", icm_json::to_value(&result));
        doc
    }

    #[test]
    fn report_marks_absent_experiments_missing() {
        let report = build_report(&doc_with_fig2(), None, None, None);
        assert_eq!(report.sections.len(), 9);
        assert_eq!(report.sections[0].verdict.status, Status::Pass);
        assert!(report.sections[1..]
            .iter()
            .all(|s| s.verdict.status == Status::Missing));
        assert!(!report.has_failures());
        assert_eq!(report.counts(), (1, 0, 0, 8));
    }

    #[test]
    fn html_is_self_contained_and_deterministic() {
        let report = build_report(&doc_with_fig2(), None, None, None);
        let page = render_html(&report);
        assert_eq!(page, render_html(&report), "byte-identical rendering");
        assert!(page.contains("Figure 2"));
        assert!(page.contains("<svg"));
        assert!(!page.contains("<script"));
        assert!(!page.contains("http://"));
        assert!(!page.contains("https://"));
        assert!(page.contains("prefers-color-scheme"));
    }

    #[test]
    fn text_mode_summarizes_verdicts() {
        let report = build_report(&doc_with_fig2(), None, None, None);
        let text = render_text(&report);
        assert!(text.contains("pass"));
        assert!(text.contains("missing"));
        assert!(text.contains("overall: 1 pass"));
    }

    #[test]
    fn corrupt_result_fails_loudly_not_silently() {
        let mut doc = ResultsDoc::new(1, true);
        doc.push("fig2", Json::String("not a fig2 result".to_owned()));
        let report = build_report(&doc, None, None, None);
        assert_eq!(report.sections[0].verdict.status, Status::Fail);
        assert!(report.has_failures());
        assert!(report.sections[0].verdict.detail.contains("cannot parse"));
    }

    #[test]
    fn telemetry_section_enforces_the_byte_budget() {
        let telemetry: Json = icm_json::from_str(
            r#"{"budget_bytes":262144,"window_s":600,"snapshot_every_s":3000,"events":12,
                "dropped":{"series":0,"keys":0,"snapshots":0},
                "health":{"step":12,"sim_s":100,"events":12,
                          "counters":{"manager.ticks.managed":4},"sums":{},
                          "recovery_latency":{"count":0,"low":0,"non_finite":0,"collapsed":0,
                                              "sum":0,"min":0,"max":0,"error":0.015625,"buckets":[]}},
                "series":{"testbed.run_s":{"count":12,"sum":120,"min":10,"max":10,
                                           "p50":10,"p99":10,"dropped_windows":0,
                                           "sketch":{},"windows":[]}},
                "snapshots":[]}"#,
        )
        .expect("parses");
        let section = telemetry_section(&telemetry);
        assert_eq!(section.verdict.status, Status::Pass);
        assert!(section.verdict.detail.contains("budget 262144"));
        assert!(section
            .notes
            .iter()
            .any(|n| n.contains("manager.ticks.managed")));
        assert_eq!(section.charts[0].table[1][0], "testbed.run_s");

        let over: Json = icm_json::from_str(r#"{"budget_bytes":8,"events":1}"#).expect("parses");
        let section = telemetry_section(&over);
        assert_eq!(section.verdict.status, Status::Fail, "over budget fails");
    }

    #[test]
    fn flame_section_embeds_the_svg_and_critical_path() {
        let (tracer, recorder) = icm_obs::Tracer::recording(16);
        let outer = tracer.span("deploy", &[]);
        let inner = tracer.span("run", &[]);
        tracer.advance_sim(5.0);
        inner.end();
        outer.end();
        let graph = icm_experiments::flame::build_flame(&recorder.events());
        let section = flame_section(&graph);
        assert_eq!(section.verdict.status, Status::Pass);
        assert!(section.verdict.detail.contains("deploy → run"));
        assert!(section.charts[0].svg.starts_with("<svg"));
        assert_eq!(section.charts[0].table[1][0], "deploy");
        assert_eq!(section.charts[0].table[2][0], "deploy/run");

        let empty = flame_section(&FlameGraph::default());
        assert_eq!(empty.verdict.status, Status::Missing);
    }

    #[test]
    fn optional_sections_append_in_order() {
        let telemetry: Json =
            icm_json::from_str(r#"{"budget_bytes":262144,"events":0,"series":{},"snapshots":[]}"#)
                .expect("parses");
        let graph = FlameGraph::default();
        let report = build_report(&doc_with_fig2(), None, Some(&telemetry), Some(&graph));
        assert_eq!(report.sections.len(), 11);
        assert_eq!(report.sections[9].id, "telemetry");
        assert_eq!(report.sections[10].id, "flame");
        let page = render_html(&report);
        assert!(page.contains("Streaming telemetry"));
        assert!(page.contains("Span flamegraph"));
    }

    #[test]
    fn audit_section_tables_every_action() {
        use icm_experiments::recovery::{RecoveryPoint, RecoveryResult};
        use icm_obs::{DetectionInput, OutcomeRef, ProvenanceRecord};
        let result = RecoveryResult {
            ticks: 6,
            apps: vec!["H.KM".to_owned()],
            points: vec![RecoveryPoint {
                label: "crash x1".to_owned(),
                crash_hosts: 1,
                drift_pressure: 0.0,
                managed_violation_s: 10.0,
                unmanaged_violation_s: 100.0,
                avoided_violation_s: 90.0,
                mean_recovery_latency_s: 120.0,
                migrations: 1,
                reanneals: 0,
                sheds: 0,
                circuit_breaks: 0,
                detections: 1,
                managed_meets_bound: 1,
                unmanaged_meets_bound: 0,
                provenance: vec![ProvenanceRecord {
                    action_index: 0,
                    event: 12,
                    tick: 2,
                    sim_s: 400.0,
                    kind: "migrate".to_owned(),
                    app: Some("H.KM".to_owned()),
                    cost_s: 12.5,
                    quality: "measured".to_owned(),
                    predicted_slowdown: 1.15,
                    realized_slowdown: 1.1,
                    resolved: true,
                    trigger_violation_s: 30.0,
                    violation_incurred_s: 5.0,
                    placement: Vec::new(),
                    detections: vec![DetectionInput {
                        event: 9,
                        kind: "host_down".to_owned(),
                        app: None,
                        host: Some(3),
                        score: 1.0,
                        threshold: 0.5,
                        streak: 1,
                        observations: Vec::new(),
                    }],
                    outcome: Some(OutcomeRef {
                        event: 20,
                        tick: 3,
                        latency_s: 120.0,
                    }),
                }],
            }],
        };
        let mut doc = ResultsDoc::new(7, true);
        doc.push("recovery", icm_json::to_value(&result));
        let report = build_report(&doc, None, None, None);
        let audit = report
            .sections
            .iter()
            .find(|s| s.id == "audit")
            .expect("audit section present");
        assert_eq!(audit.verdict.status, Status::Pass);
        assert!(audit.verdict.detail.contains("1 actions audited"));
        let table = &audit.charts[0].table;
        assert_eq!(table.len(), 2, "header plus one action row");
        assert_eq!(table[1][0], "crash x1");
        assert_eq!(table[1][3], "migrate");
        assert_eq!(table[1][5], "measured");
        assert!(table[1][10].contains("recovered in 120"));
        // The recovery section still renders independently beside it.
        assert!(report.sections.iter().any(|s| s.id == "recovery"));
        let page = render_html(&report);
        assert!(page.contains("Decision audit"));
    }

    #[test]
    fn profile_section_orders_spans_by_weight() {
        let profile: Json = icm_json::from_str(
            r#"{"spans":{
                "a.light":{"count":2,"total_ns":1000,"min_ns":400,"max_ns":600,"mean_ns":500,"p50_ns":400,"p99_ns":600},
                "b.heavy":{"count":1,"total_ns":9000000,"min_ns":9000000,"max_ns":9000000,"mean_ns":9000000,"p50_ns":9000000,"p99_ns":9000000}
            }}"#,
        )
        .expect("parses");
        let section = profile_section(&profile);
        assert_eq!(section.verdict.status, Status::Pass);
        assert!(section.verdict.detail.contains("2 spans"));
        let table = &section.charts[0].table;
        assert_eq!(table[1][0], "b.heavy", "heaviest span first");
        assert_eq!(table[2][0], "a.light");
    }
}
