//! **Table 3, Figure 6 & Figure 7** — profiling cost and accuracy of the
//! four propagation-profiling algorithms (*binary-brute*,
//! *binary-optimized*, *random-50%*, *random-30%*).

use icm_core::{profile, Probe, ProfilerConfig, ProfilingAlgorithm};
use icm_obs::Tracer;

use crate::context::{distributed_apps, private_testbed, ExpConfig, ExpError};
use crate::table::{pct, Table};

/// Cost/error of one algorithm on one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoOutcome {
    /// Algorithm display name.
    pub algorithm: String,
    /// Fraction of the `n × m` settings measured, in percent.
    pub cost_pct: f64,
    /// Mean absolute cell error against the fully-measured matrix, in
    /// percent.
    pub error_pct: f64,
    /// Simulated cluster time spent on the profiling runs, in hours —
    /// the wall-clock cost §4.1 is actually about.
    pub cluster_hours: f64,
}

icm_json::impl_json!(struct AlgoOutcome { algorithm, cost_pct, error_pct, cluster_hours });

/// All four algorithms on one application.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3App {
    /// Application name.
    pub app: String,
    /// Outcomes in paper order: binary-optimized, binary-brute,
    /// random-50%, random-30%.
    pub outcomes: Vec<AlgoOutcome>,
}

icm_json::impl_json!(struct Table3App { app, outcomes });

/// Table 3 / Figs. 6–7 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Result {
    /// Per-application outcomes.
    pub apps: Vec<Table3App>,
    /// Averages over applications (Table 3's rows).
    pub averages: Vec<AlgoOutcome>,
}

icm_json::impl_json!(struct Table3Result { apps, averages });

fn algorithms() -> Vec<ProfilingAlgorithm> {
    vec![
        ProfilingAlgorithm::BinaryOptimized,
        ProfilingAlgorithm::BinaryBrute,
        ProfilingAlgorithm::random50(),
        ProfilingAlgorithm::random30(),
    ]
}

/// Runs the profiling cost/accuracy study.
///
/// Ground truth for each application is a *separate* full measurement of
/// all settings, so even a 100%-cost algorithm would show nonzero error
/// from run-to-run noise — as on real hardware.
///
/// # Errors
///
/// Propagates testbed failures.
pub fn run(cfg: &ExpConfig) -> Result<Table3Result, ExpError> {
    let mut testbed = private_testbed(cfg);
    let hosts = testbed.sim().cluster().hosts();
    let app_names: Vec<String> = if cfg.fast {
        vec!["M.milc".into(), "M.Gems".into(), "H.KM".into()]
    } else {
        distributed_apps()
    };

    let mut apps = Vec::with_capacity(app_names.len());
    for app in &app_names {
        let mut probe = Probe::new(&mut testbed, app, hosts, cfg.repeats())?;
        let tracer = Tracer::disabled();
        let truth = profile(
            &mut probe,
            ProfilingAlgorithm::Full,
            &ProfilerConfig::default(),
            &tracer,
        )?
        .matrix;
        let mut outcomes = Vec::with_capacity(4);
        for algorithm in algorithms() {
            let config = ProfilerConfig {
                seed: cfg.seed ^ 0x7AB3,
                ..ProfilerConfig::default()
            };
            let before = probe.testbed().sim().stats().simulated_seconds;
            let result = profile(&mut probe, algorithm, &config, &tracer)?;
            let cluster_hours = (probe.testbed().sim().stats().simulated_seconds - before) / 3600.0;
            outcomes.push(AlgoOutcome {
                algorithm: algorithm.name(),
                cost_pct: result.cost * 100.0,
                error_pct: result.matrix.mean_abs_error_pct(&truth)?,
                cluster_hours,
            });
        }
        apps.push(Table3App {
            app: app.clone(),
            outcomes,
        });
    }

    let mut averages = Vec::with_capacity(4);
    for i in 0..4 {
        let cost = apps.iter().map(|a| a.outcomes[i].cost_pct).sum::<f64>() / apps.len() as f64;
        let error = apps.iter().map(|a| a.outcomes[i].error_pct).sum::<f64>() / apps.len() as f64;
        let hours = apps
            .iter()
            .map(|a| a.outcomes[i].cluster_hours)
            .sum::<f64>()
            / apps.len() as f64;
        averages.push(AlgoOutcome {
            algorithm: apps[0].outcomes[i].algorithm.clone(),
            cost_pct: cost,
            error_pct: error,
            cluster_hours: hours,
        });
    }
    Ok(Table3Result { apps, averages })
}

/// Renders the Table 3 view (averages).
pub fn render_table3(result: &Table3Result) -> String {
    let mut table = Table::new("Table 3: profiling cost and accuracy (averages over applications)");
    table.headers([
        "prediction algorithm",
        "average cost",
        "average error",
        "cluster time",
    ]);
    for avg in &result.averages {
        table.row([
            avg.algorithm.clone(),
            pct(avg.cost_pct),
            pct(avg.error_pct),
            format!("{:.2} h", avg.cluster_hours),
        ]);
    }
    table.render()
}

/// Renders the Fig. 6 view (per-app prediction error).
pub fn render_fig6(result: &Table3Result) -> String {
    let mut table = Table::new("Figure 6: prediction error per application (%)");
    render_per_app(result, &mut table, |o| o.error_pct);
    table.render()
}

/// Renders the Fig. 7 view (per-app profiling cost).
pub fn render_fig7(result: &Table3Result) -> String {
    let mut table = Table::new("Figure 7: profiling cost per application (% of settings measured)");
    render_per_app(result, &mut table, |o| o.cost_pct);
    table.render()
}

fn render_per_app(result: &Table3Result, table: &mut Table, metric: fn(&AlgoOutcome) -> f64) {
    let mut headers = vec!["app".to_string()];
    headers.extend(result.averages.iter().map(|a| a.algorithm.clone()));
    table.headers(headers);
    for app in &result.apps {
        let mut row = vec![app.app.clone()];
        row.extend(app.outcomes.iter().map(|o| format!("{:.2}", metric(o))));
        table.row(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> Table3Result {
        run(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs")
    }

    #[test]
    fn averages_cover_four_algorithms() {
        let result = fast();
        assert_eq!(result.averages.len(), 4);
        let names: Vec<&str> = result
            .averages
            .iter()
            .map(|a| a.algorithm.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "binary-optimized",
                "binary-brute",
                "random-50%",
                "random-30%"
            ]
        );
    }

    #[test]
    fn paper_shape_holds() {
        // Table 3's qualitative structure: binary-optimized is the
        // cheapest; binary-brute is the most accurate of the four;
        // random-30% is the least accurate.
        let result = fast();
        let avg = |name: &str| {
            result
                .averages
                .iter()
                .find(|a| a.algorithm == name)
                .expect("present")
        };
        let optimized = avg("binary-optimized");
        let brute = avg("binary-brute");
        let r50 = avg("random-50%");
        let r30 = avg("random-30%");
        assert!(optimized.cost_pct < r30.cost_pct);
        assert!(optimized.cost_pct < brute.cost_pct);
        assert!(brute.error_pct <= r50.error_pct + 0.5);
        assert!(r50.error_pct <= r30.error_pct + 0.5);
        // All errors stay moderate.
        for a in &result.averages {
            assert!(a.error_pct < 20.0, "{}: {:.1}%", a.algorithm, a.error_pct);
        }
        // Cluster time tracks the settings cost: the cheapest algorithm
        // also burns the least simulated cluster time.
        assert!(optimized.cluster_hours < brute.cluster_hours);
        assert!(optimized.cluster_hours > 0.0);
    }

    #[test]
    fn renders_have_expected_shape() {
        let result = fast();
        assert!(render_table3(&result).contains("binary-optimized"));
        let fig6 = render_fig6(&result);
        let fig7 = render_fig7(&result);
        for app in &result.apps {
            assert!(fig6.contains(&app.app));
            assert!(fig7.contains(&app.app));
        }
    }
}
