//! `regen`: every experiment id at full size, the batch job a reader of
//! the paper runs. One operation is one experiment.

use std::path::Path;
use std::time::Instant;

use icm_experiments::results::ResultsDoc;
use icm_experiments::{context, ExpConfig, Experiment};

use crate::trace::Tracer;
use crate::{Check, Outcome};

/// Passes over all experiments per second of requested run time.
const PASSES_PER_S: f64 = 0.65;
/// Set-up samples before each pass; the reported set-up time is the
/// median over all of them.
const SETUP_REPS: usize = 9;
/// Set-ups timed together as one sample. One set-up takes tens of
/// microseconds, where single timings swing by half with allocator and
/// cache state; a sample is the mean over a batch.
const SETUP_BATCH: usize = 50;

/// Passes a run of `seconds` makes.
pub fn passes(seconds: u64) -> usize {
    ((seconds as f64 * PASSES_PER_S).round() as usize).max(1)
}

/// The set-up the experiments share: the configuration, the results
/// document, and the two testbeds (the private 8-host cluster and the
/// EC2-style 32-host one) that the experiments build from the
/// configuration. Building the testbeds here does not spare the
/// experiments that work; it times it once, apart from them.
fn prepare(seed: u64) -> (ExpConfig, ResultsDoc) {
    let cfg = ExpConfig { seed, fast: false };
    let doc = ResultsDoc::new(cfg.seed, cfg.fast);
    drop(context::private_testbed(&cfg));
    drop(context::ec2_testbed(&cfg));
    (cfg, doc)
}

/// Runs `passes` passes and checks them. `corrupt` drops one result
/// before the report is built.
///
/// The checks: every experiment succeeds, every pass reproduces the
/// first, and the report built from the results passes the gate of
/// `icm-report --strict`: no section's verdict is `Fail`.
pub fn run(
    seed: u64,
    passes: usize,
    state: &Path,
    tracer: &mut Tracer,
    corrupt: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spans = exp_spans();
    // Experiments that persist state (`serve`) write under the system
    // temporary directory; point it inside `state`.
    let tmp = state.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    let mut prepared = None;
    let mut passes_json: Vec<Vec<Option<icm_json::Json>>> = Vec::with_capacity(passes);
    for _ in 0..passes {
        for _ in 0..SETUP_REPS {
            let begin = Instant::now();
            for _ in 0..SETUP_BATCH {
                drop(prepared.take());
                prepared = Some(prepare(seed));
            }
            out.setup_s
                .push(begin.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        }
        let (cfg, _) = prepared.as_ref().expect("at least one set-up");
        let pass = Instant::now();
        let mut op_ms = Vec::with_capacity(Experiment::ALL.len());
        let mut results = Vec::with_capacity(Experiment::ALL.len());
        for (exp, span_name) in Experiment::ALL.into_iter().zip(spans) {
            out.attempted += 1;
            let span = tracer.begin(span_name);
            let begin = Instant::now();
            let result = exp.run_json(cfg);
            op_ms.push(begin.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
            if result.is_ok() {
                out.ok += 1;
            } else {
                out.failed += 1;
            }
            results.push(result.ok());
        }
        passes_json.push(results);
        out.pass_s.push(pass.elapsed().as_secs_f64());
        out.op_ms.push(op_ms);
    }
    out.work_s = out.pass_s.iter().sum();
    let (_, mut doc) = prepared.expect("at least one set-up");

    let identical = passes_json.windows(2).all(|pair| pair[0] == pair[1]);
    for (exp, json) in Experiment::ALL.into_iter().zip(&passes_json[0]) {
        if let Some(json) = json {
            doc.push(exp.id(), json.clone());
        }
    }
    if corrupt {
        doc.experiments.retain(|e| e.id != "fig10");
    }
    let report = icm_report::build_report(&doc, None, None, None);
    let (passed, warned, failed, missing) = report.counts();
    for section in &report.sections {
        out.notes.push(format!(
            "# verdict {} {} {}",
            section.id,
            section.verdict.status.label(),
            section.verdict.detail
        ));
    }
    out.checks.push(Check::new(
        "regen.report_strict",
        !report.has_failures() && missing == 0 && !report.sections.is_empty(),
        format!("report verdicts: {passed} pass, {warned} warn, {failed} fail, {missing} missing"),
    ));
    out.checks.push(Check::new(
        "regen.all_experiments_ok",
        out.failed == 0,
        format!("{} of {} experiments failed", out.failed, out.attempted),
    ));
    out.checks.push(Check::new(
        "regen.passes_identical",
        identical,
        "every pass reproduces the first pass's results exactly".into(),
    ));
    out.counts.push(("regen.experiments", out.ok as f64));
    out.counts.push(("regen.verdicts_passed", passed as f64));
    out.counts.push(("regen.verdicts_failed", failed as f64));
    Ok(out)
}

/// Span names (and per-layer metric stems) of the experiments, in
/// [`Experiment::ALL`] order.
pub fn exp_spans() -> [&'static str; Experiment::ALL.len()] {
    Experiment::ALL.map(|exp| &*Box::leak(format!("exp.{}", exp.id()).into_boxed_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_has_its_own_span() {
        let spans = exp_spans();
        let mut unique = spans.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), Experiment::ALL.len());
        assert_eq!(spans[0], "exp.fig2");
    }
}
