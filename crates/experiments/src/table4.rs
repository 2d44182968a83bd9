//! **Table 4** — measured bubble scores of all 18 benchmark applications.

use icm_core::Calibration;
use icm_workloads::Catalog;

use crate::context::{all_apps, private_testbed, ExpConfig, ExpError};
use crate::table::{f2, Table};

/// One application's score.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Application name.
    pub app: String,
    /// Bubble score measured on the simulated testbed.
    pub measured: f64,
    /// Score the paper reports (Table 4), for comparison.
    pub paper: f64,
}

icm_json::impl_json!(struct Table4Row { app, measured, paper });

/// Table 4 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Result {
    /// Per-application scores.
    pub rows: Vec<Table4Row>,
    /// Spearman rank correlation between measured and paper scores.
    pub rank_correlation: f64,
}

icm_json::impl_json!(struct Table4Result { rows, rank_correlation });

/// Measures all bubble scores.
///
/// # Errors
///
/// Propagates testbed failures.
pub fn run(cfg: &ExpConfig) -> Result<Table4Result, ExpError> {
    let catalog = Catalog::paper();
    let mut testbed = private_testbed(cfg);
    let apps: Vec<String> = if cfg.fast {
        vec![
            "C.libq".into(),
            "M.milc".into(),
            "H.KM".into(),
            "M.lmps".into(),
        ]
    } else {
        all_apps()
    };
    let calibration = Calibration::measure(&mut testbed)?;
    let mut rows = Vec::with_capacity(apps.len());
    for app in &apps {
        let measured = calibration.score(&mut testbed, app, cfg.repeats().max(3))?;
        let paper = catalog
            .get(app)
            .map(|w| w.reference().bubble_score)
            .unwrap_or(f64::NAN);
        rows.push(Table4Row {
            app: app.clone(),
            measured,
            paper,
        });
    }
    let pairs: Vec<(f64, f64)> = rows.iter().map(|r| (r.measured, r.paper)).collect();
    Ok(Table4Result {
        rank_correlation: spearman(&pairs),
        rows,
    })
}

/// Renders the scores table.
pub fn render(result: &Table4Result) -> String {
    let mut table = Table::new(format!(
        "Table 4: bubble scores (Spearman ρ vs paper = {:.3})",
        result.rank_correlation
    ));
    table.headers(["workload", "measured", "paper"]);
    for row in &result.rows {
        table.row([row.app.clone(), f2(row.measured), f2(row.paper)]);
    }
    table.render()
}

/// Spearman rank correlation of paired values.
pub(crate) fn spearman(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len();
    if n < 2 {
        return 1.0;
    }
    let rank = |values: Vec<f64>| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite"));
        let mut ranks = vec![0.0; values.len()];
        for (r, &i) in idx.iter().enumerate() {
            ranks[i] = r as f64;
        }
        ranks
    };
    let ra = rank(pairs.iter().map(|p| p.0).collect());
    let rb = rank(pairs.iter().map(|p| p.1).collect());
    let d2: f64 = ra.iter().zip(&rb).map(|(a, b)| (a - b).powi(2)).sum();
    1.0 - 6.0 * d2 / (n as f64 * (n as f64 * n as f64 - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_scores_rank_correctly() {
        let result = run(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs");
        assert_eq!(result.rows.len(), 4);
        let get = |name: &str| {
            result
                .rows
                .iter()
                .find(|r| r.app == name)
                .expect("present")
                .measured
        };
        assert!(get("C.libq") > get("M.milc"));
        assert!(get("M.milc") > get("M.lmps"));
        assert!(get("M.lmps") > get("H.KM"));
        assert!(result.rank_correlation > 0.9);
    }

    #[test]
    fn spearman_of_identical_rankings_is_one() {
        assert!((spearman(&[(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_of_reversed_rankings_is_minus_one() {
        assert!((spearman(&[(1.0, 30.0), (2.0, 20.0), (3.0, 10.0)]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_scores() {
        let result = run(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs");
        let text = render(&result);
        assert!(text.contains("Table 4"));
        assert!(text.contains("C.libq"));
    }
}
