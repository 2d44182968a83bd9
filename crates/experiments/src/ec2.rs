//! **Figure 12, Table 6 & Figure 13** — §6: the methodology transplanted
//! to a larger, noisier EC2-style environment (32 instances, unobserved
//! background tenants), with re-profiled model parameters.

use icm_core::{PolicyEvaluation, Probe, Summary, Testbed};

use crate::context::{build_models, ec2_testbed, ExpConfig, ExpError};
use crate::fig4::policy_study;
use crate::fig8::PairPoint;
use crate::table::{f2, f3, pct, Table};

/// The four workloads §6 evaluates on EC2.
pub const EC2_APPS: [&str; 4] = ["M.milc", "M.Gems", "M.zeus", "M.lu"];

/// Interfering-VM counts measured in Fig. 12.
pub const EC2_NODE_COUNTS: [usize; 8] = [0, 1, 2, 4, 8, 16, 24, 32];

/// Propagation curves for one application on EC2 (Fig. 12).
#[derive(Debug, Clone, PartialEq)]
pub struct Ec2Curves {
    /// Application name.
    pub app: String,
    /// Bubble pressures (curve labels).
    pub pressures: Vec<usize>,
    /// Interfering-VM counts (x axis).
    pub node_counts: Vec<usize>,
    /// `curves[p][k]`: normalized time.
    pub curves: Vec<Vec<f64>>,
}

icm_json::impl_json!(struct Ec2Curves { app, pressures, node_counts, curves });

/// Best-policy row for Table 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Ec2Policy {
    /// Application name.
    pub app: String,
    /// All four policy evaluations.
    pub evaluations: Vec<PolicyEvaluation>,
    /// Index of the best policy.
    pub best: usize,
}

icm_json::impl_json!(struct Ec2Policy { app, evaluations, best });

/// Pairwise validation per application (Fig. 13).
#[derive(Debug, Clone, PartialEq)]
pub struct Ec2Validation {
    /// Target application.
    pub app: String,
    /// Points against each co-runner.
    pub points: Vec<PairPoint>,
    /// Error summary.
    pub errors: Summary,
}

icm_json::impl_json!(struct Ec2Validation { app, points, errors });

/// Combined §6 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Ec2Result {
    /// Fig. 12 curves.
    pub curves: Vec<Ec2Curves>,
    /// Table 6 policy selections.
    pub policies: Vec<Ec2Policy>,
    /// Fig. 13 validations.
    pub validations: Vec<Ec2Validation>,
}

icm_json::impl_json!(struct Ec2Result { curves, policies, validations });

/// Runs the full EC2 study.
///
/// # Errors
///
/// Propagates testbed and model failures.
pub fn run(cfg: &ExpConfig) -> Result<Ec2Result, ExpError> {
    let mut testbed = ec2_testbed(cfg);
    let hosts = testbed.cluster_hosts();
    let apps: Vec<&str> = if cfg.fast {
        EC2_APPS[..2].to_vec()
    } else {
        EC2_APPS.to_vec()
    };
    let pressures: Vec<usize> = if cfg.fast {
        vec![2, 5, 8]
    } else {
        (1..=8).collect()
    };
    let node_counts: Vec<usize> = if cfg.fast {
        vec![0, 1, 8, 32]
    } else {
        EC2_NODE_COUNTS.to_vec()
    };
    let policy_samples = if cfg.fast { 10 } else { 100 };

    // Fig. 12: measured propagation curves at the paper's grid; Table 6:
    // policies re-selected from sampled heterogeneous settings, on the
    // same probe and solo baseline.
    let mut curves = Vec::with_capacity(apps.len());
    let mut policies = Vec::with_capacity(apps.len());
    for &app in &apps {
        let mut probe = Probe::new(&mut testbed, app, hosts, cfg.repeats())?;
        curves.push(Ec2Curves {
            app: app.to_owned(),
            pressures: pressures.clone(),
            node_counts: node_counts.clone(),
            curves: probe.curves(&pressures, &node_counts)?,
        });
        let (evaluations, best) = policy_study(&mut probe, cfg.seed ^ 0xEC26, policy_samples)?;
        policies.push(Ec2Policy {
            app: app.to_owned(),
            evaluations,
            best,
        });
    }

    // Fig. 13: pairwise validation among the four apps, each co-runner
    // predicted by the bubble score its model build measured.
    let models = build_models(&mut testbed, &apps, None, cfg)?;
    let mut validations = Vec::with_capacity(apps.len());
    for &target in &apps {
        let model = &models[target];
        let mut points = Vec::with_capacity(apps.len());
        for &corunner in &apps {
            let mut total = 0.0;
            for _ in 0..cfg.repeats() {
                let (t, _) = testbed.sim_mut().run_pair(target, corunner)?;
                total += t;
            }
            let actual = total / cfg.repeats() as f64 / model.solo_seconds();
            let predicted = model
                .try_predict(&vec![models[corunner].bubble_score(); model.hosts()])
                .map_err(ExpError::new)?;
            points.push(PairPoint {
                corunner: corunner.to_owned(),
                predicted,
                actual,
                error_pct: ((predicted - actual) / actual).abs() * 100.0,
            });
        }
        let errors: Vec<f64> = points.iter().map(|p| p.error_pct).collect();
        validations.push(Ec2Validation {
            app: target.to_owned(),
            errors: Summary::of(&errors),
            points,
        });
    }

    Ok(Ec2Result {
        curves,
        policies,
        validations,
    })
}

/// Renders the Fig. 12 curve tables.
pub fn render_fig12(result: &Ec2Result) -> String {
    let mut out = String::new();
    for app in &result.curves {
        let mut table = Table::new(format!(
            "Figure 12: {} on EC2 — normalized time vs interfering VMs",
            app.app
        ));
        let mut headers = vec!["pressure".to_string()];
        headers.extend(app.node_counts.iter().map(|k| format!("{k}")));
        table.headers(headers);
        for (pi, &p) in app.pressures.iter().enumerate() {
            let mut row = vec![p.to_string()];
            row.extend(app.curves[pi].iter().map(|&v| f3(v)));
            table.row(row);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// Renders the Table 6 policy table.
pub fn render_table6(result: &Ec2Result) -> String {
    let mut table = Table::new("Table 6: best heterogeneity mapping policy on EC2");
    table.headers(["workload", "best policy", "avg error", "std dev"]);
    for p in &result.policies {
        let best = &p.evaluations[p.best];
        table.row([
            p.app.clone(),
            best.policy.name().to_owned(),
            pct(best.errors.mean),
            f2(best.errors.std_dev),
        ]);
    }
    table.render()
}

/// Renders the Fig. 13 validation table.
pub fn render_fig13(result: &Ec2Result) -> String {
    let mut table = Table::new("Figure 13: pairwise validation error on EC2");
    table.headers(["app", "mean err", "p25", "p75", "max"]);
    for v in &result.validations {
        table.row([
            v.app.clone(),
            pct(v.errors.mean),
            pct(v.errors.p25),
            pct(v.errors.p75),
            pct(v.errors.max),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> Ec2Result {
        run(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs")
    }

    #[test]
    fn curves_grow_with_interference() {
        let result = fast();
        for app in &result.curves {
            let top = app.curves.last().expect("curves");
            assert_eq!(top[0], 1.0);
            let last = top.last().expect("non-empty");
            assert!(
                *last > 1.05,
                "{}: 32 interfering VMs must slow the app, got {last}",
                app.app
            );
        }
    }

    #[test]
    fn policies_and_validations_produced() {
        let result = fast();
        assert_eq!(result.policies.len(), 2);
        assert_eq!(result.validations.len(), 2);
        for p in &result.policies {
            assert_eq!(p.evaluations.len(), 4);
        }
        for v in &result.validations {
            // §6: EC2 errors are higher than the private cluster but
            // still modest (paper: 3–10% validation, ~5–12% policy).
            assert!(
                v.errors.mean < 30.0,
                "{}: EC2 error {:.1}% unreasonably high",
                v.app,
                v.errors.mean
            );
        }
    }

    #[test]
    fn renders() {
        let result = fast();
        assert!(render_fig12(&result).contains("Figure 12"));
        assert!(render_table6(&result).contains("Table 6"));
        assert!(render_fig13(&result).contains("Figure 13"));
    }
}
