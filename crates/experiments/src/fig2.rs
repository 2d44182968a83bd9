//! **Figure 2** — motivation: the execution time of `M.lmps` (lammps)
//! with instances of `C.libq` (libquantum) interfering on 0–8 nodes,
//! compared against a naive proportional interference model.

use icm_core::model::ModelBuilder;
use icm_core::{Calibration, NaiveModel, ProfilingAlgorithm, Testbed};
use icm_simcluster::{Deployment, Placement};

use crate::context::{private_testbed, ExpConfig, ExpError};
use crate::table::{f3, Table};

/// One bar group of Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Number of nodes where `C.libq` instances run.
    pub interfering_nodes: usize,
    /// Naive proportional-model expectation (normalized).
    pub naive_expected: f64,
    /// Measured normalized execution time.
    pub real: f64,
}

icm_json::impl_json!(struct Fig2Row { interfering_nodes, naive_expected, real });

/// Fig. 2 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// Target application (`M.lmps`).
    pub app: String,
    /// Interfering co-runner (`C.libq`).
    pub corunner: String,
    /// Measured bubble score of the co-runner.
    pub corunner_score: f64,
    /// Rows for 0..=8 interfering nodes.
    pub rows: Vec<Fig2Row>,
}

icm_json::impl_json!(struct Fig2Result { app, corunner, corunner_score, rows });

/// Runs the Fig. 2 experiment.
///
/// # Errors
///
/// Propagates testbed and model failures.
pub fn run(cfg: &ExpConfig) -> Result<Fig2Result, ExpError> {
    let app = "M.lmps";
    let corunner = "C.libq";
    let mut testbed = private_testbed(cfg);
    let hosts = testbed.cluster_hosts();

    // The naive model needs the per-pressure full-cluster curve, which we
    // take from a profiled model (its all-nodes column), exactly like the
    // §5.2 naive baseline.
    let model = ModelBuilder::new(app)
        .algorithm(ProfilingAlgorithm::BinaryOptimized)
        .policy_samples(cfg.policy_samples())
        .seed(cfg.seed)
        .build(&mut testbed)?;
    let naive = NaiveModel::from_model(&model);
    let corunner_score =
        Calibration::measure(&mut testbed)?.score(&mut testbed, corunner, cfg.repeats())?;

    let solo = model.solo_seconds();
    let counts: Vec<usize> = if cfg.fast {
        vec![0, 1, 2, 4, 8]
    } else {
        (0..=hosts).collect()
    };
    let mut rows = Vec::with_capacity(counts.len());
    for k in counts {
        // Real run: lammps spans all hosts; libquantum instances occupy
        // the last k hosts (worker-biased, matching how the model
        // profiles interference placement).
        let mut total = 0.0;
        for _ in 0..cfg.repeats() {
            let mut placements = vec![Placement::new(app, (0..hosts).collect())];
            if k > 0 {
                placements.push(Placement::new(corunner, (hosts - k..hosts).collect()));
            }
            let runs = testbed
                .sim_mut()
                .run_deployment(&Deployment::of_placements(placements))?;
            total += runs[0].seconds;
        }
        let real = total / cfg.repeats() as f64 / solo;

        let mut pressures = vec![0.0; hosts];
        for slot in pressures.iter_mut().rev().take(k) {
            *slot = corunner_score;
        }
        let naive_expected = naive.try_predict(&pressures).map_err(ExpError::new)?;
        rows.push(Fig2Row {
            interfering_nodes: k,
            naive_expected,
            real,
        });
    }
    Ok(Fig2Result {
        app: app.to_owned(),
        corunner: corunner.to_owned(),
        corunner_score,
        rows,
    })
}

/// Renders the result as a text table.
pub fn render(result: &Fig2Result) -> String {
    let mut table = Table::new(format!(
        "Figure 2: {} under {} interference (score {:.1}); normalized execution time",
        result.app, result.corunner, result.corunner_score
    ));
    table.headers(["interfering nodes", "naive expected", "real"]);
    for row in &result.rows {
        table.row([
            row.interfering_nodes.to_string(),
            f3(row.naive_expected),
            f3(row.real),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> Fig2Result {
        run(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs")
    }

    #[test]
    fn real_curve_shows_high_propagation() {
        let result = fast();
        let at = |k: usize| {
            result
                .rows
                .iter()
                .find(|r| r.interfering_nodes == k)
                .expect("row present")
        };
        // The paper's observation: one interfering node already causes a
        // large share of the full-interference delay...
        let one = at(1).real - 1.0;
        let all = at(8).real - 1.0;
        assert!(all > 0.05, "full interference must hurt, got {all}");
        assert!(
            one / all > 0.5,
            "one node must cause most of the delay (got {:.2})",
            one / all
        );
        // ...while the naive model predicts ~1/8 of it.
        let naive_one = at(1).naive_expected - 1.0;
        let naive_all = at(8).naive_expected - 1.0;
        assert!(
            naive_one / naive_all < 0.2,
            "naive model must be proportional (got {:.2})",
            naive_one / naive_all
        );
        // So the naive model badly underestimates the single-node case.
        assert!(at(1).real > at(1).naive_expected + 0.05);
    }

    #[test]
    fn baseline_row_is_one() {
        let result = fast();
        let zero = &result.rows[0];
        assert_eq!(zero.interfering_nodes, 0);
        assert!((zero.real - 1.0).abs() < 0.05);
        assert!((zero.naive_expected - 1.0).abs() < 0.05);
    }

    #[test]
    fn render_mentions_key_elements() {
        let result = fast();
        let text = render(&result);
        assert!(text.contains("Figure 2"));
        assert!(text.contains("M.lmps"));
        assert!(text.contains("C.libq"));
    }
}
