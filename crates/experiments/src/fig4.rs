//! **Figure 4 & Table 2** — interference heterogeneity: error of the four
//! mapping policies over sampled heterogeneous configurations, and the
//! best policy per application.

use icm_core::{
    evaluate_policies, profile, select_policy, PolicyEvaluation, Probe, ProfilerConfig,
    ProfilingAlgorithm, Testbed,
};
use icm_obs::Tracer;

use crate::context::{distributed_apps, private_testbed, ExpConfig, ExpError};
use crate::table::{f2, pct, Table};

/// Policy evaluations for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4App {
    /// Application name.
    pub app: String,
    /// All four policy evaluations (paper order).
    pub evaluations: Vec<PolicyEvaluation>,
    /// Index of the best policy in `evaluations`.
    pub best: usize,
    /// Number of sampled heterogeneous settings.
    pub samples: usize,
}

icm_json::impl_json!(struct Fig4App { app, evaluations, best, samples });

/// Fig. 4 / Table 2 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// Per-application evaluations.
    pub apps: Vec<Fig4App>,
}

icm_json::impl_json!(struct Fig4Result { apps });

/// The §3.3 policy study of the probed application: full-profiles its
/// propagation matrix, measures `samples` random heterogeneous settings
/// drawn from `seed`, and scores all four conversion policies on them.
/// Returns the evaluations and the index of the best.
///
/// # Errors
///
/// Propagates testbed failures.
pub(crate) fn policy_study<T: Testbed + ?Sized>(
    probe: &mut Probe<'_, T>,
    seed: u64,
    samples: usize,
) -> Result<(Vec<PolicyEvaluation>, usize), ExpError> {
    let full = profile(
        probe,
        ProfilingAlgorithm::Full,
        &ProfilerConfig::default(),
        &Tracer::disabled(),
    )?;
    let samples = probe.heterogeneous_samples(seed, samples)?;
    let evaluations = evaluate_policies(&full.matrix, &samples);
    let best = select_policy(&evaluations);
    Ok((evaluations, best))
}

/// Runs the heterogeneity study: full-profile each app's propagation
/// matrix, sample random heterogeneous settings, measure them, and score
/// all four conversion policies.
///
/// # Errors
///
/// Propagates testbed failures.
pub fn run(cfg: &ExpConfig) -> Result<Fig4Result, ExpError> {
    let mut testbed = private_testbed(cfg);
    let hosts = testbed.cluster_hosts();
    let app_names: Vec<String> = if cfg.fast {
        vec!["M.milc".into(), "M.Gems".into(), "S.WC".into()]
    } else {
        distributed_apps()
    };
    let samples = cfg.policy_samples();

    let mut apps = Vec::with_capacity(app_names.len());
    for app in &app_names {
        let mut probe = Probe::new(&mut testbed, app, hosts, cfg.repeats())?;
        let (evaluations, best) = policy_study(&mut probe, cfg.seed ^ 0xF164, samples)?;
        apps.push(Fig4App {
            app: app.clone(),
            evaluations,
            best,
            samples,
        });
    }
    Ok(Fig4Result { apps })
}

/// Renders the Fig. 4 view: per-app error of all four policies.
pub fn render_fig4(result: &Fig4Result) -> String {
    let mut table = Table::new(
        "Figure 4: heterogeneous→homogeneous conversion error per policy (mean [min..max] %)",
    );
    table.headers(["app", "N max", "N+1 max", "all max", "interpolate"]);
    for app in &result.apps {
        let cell = |e: &PolicyEvaluation| {
            format!(
                "{:.1} [{:.1}..{:.1}]",
                e.errors.mean, e.errors.min, e.errors.max
            )
        };
        table.row([
            app.app.clone(),
            cell(&app.evaluations[0]),
            cell(&app.evaluations[1]),
            cell(&app.evaluations[2]),
            cell(&app.evaluations[3]),
        ]);
    }
    table.render()
}

/// Renders the Table 2 view: best policy per application.
pub fn render_table2(result: &Fig4Result) -> String {
    let mut table = Table::new("Table 2: best heterogeneity mapping policy per application");
    table.headers(["workload", "best policy", "avg error", "std dev", "99% MoE"]);
    for app in &result.apps {
        let best = &app.evaluations[app.best];
        table.row([
            app.app.clone(),
            best.policy.name().to_owned(),
            pct(best.errors.mean),
            f2(best.errors.std_dev),
            f2(best.margin_of_error_99()),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use icm_core::MappingPolicy;

    fn fast() -> Fig4Result {
        run(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs")
    }

    #[test]
    fn every_app_reports_all_four_policies() {
        let result = fast();
        for app in &result.apps {
            assert_eq!(app.evaluations.len(), 4);
            assert!(app.best < 4);
            assert_eq!(app.samples, 12);
        }
    }

    #[test]
    fn best_policy_error_is_small() {
        // Table 2's headline: at least one policy per app converts
        // heterogeneity with < ~9% average error.
        let result = fast();
        for app in &result.apps {
            let best = &app.evaluations[app.best];
            // M.Gems is the paper's hardest app too (Table 2: 7.34%, the
            // worst of the max-flavored rows is 8.62%); its blocked-I/O
            // behaviour inflates fast-mode (12-sample) error further.
            let bound = if app.app == "M.Gems" { 18.0 } else { 12.0 };
            assert!(
                best.errors.mean < bound,
                "{}: best policy error {:.1}%",
                app.app,
                best.errors.mean
            );
        }
    }

    #[test]
    fn coupled_app_prefers_max_flavor() {
        let result = fast();
        let milc = result
            .apps
            .iter()
            .find(|a| a.app == "M.milc")
            .expect("present");
        assert!(
            matches!(
                milc.evaluations[milc.best].policy,
                MappingPolicy::NMax | MappingPolicy::NPlus1Max | MappingPolicy::AllMax
            ),
            "M.milc must select a max-flavored policy"
        );
    }

    #[test]
    fn renders_include_all_apps() {
        let result = fast();
        for text in [render_fig4(&result), render_table2(&result)] {
            for app in &result.apps {
                assert!(text.contains(&app.app));
            }
        }
    }
}
