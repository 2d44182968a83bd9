//! **Figure 3** — interference propagation: normalized execution time of
//! each distributed application as the number of interfering nodes grows
//! from 0 to 8, one curve per bubble pressure 1–8.

use icm_core::{Probe, Testbed};

use crate::context::{distributed_apps, private_testbed, ExpConfig, ExpError};
use crate::table::{f3, Table};

/// Curves for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3App {
    /// Application name.
    pub app: String,
    /// Bubble pressures measured (curve labels).
    pub pressures: Vec<usize>,
    /// Interfering node counts measured (x axis).
    pub node_counts: Vec<usize>,
    /// `curves[p][k]` = normalized time at `pressures[p]`,
    /// `node_counts[k]` interfering nodes.
    pub curves: Vec<Vec<f64>>,
}

icm_json::impl_json!(struct Fig3App { app, pressures, node_counts, curves });

/// Fig. 3 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// Per-application curve families.
    pub apps: Vec<Fig3App>,
}

icm_json::impl_json!(struct Fig3Result { apps });

/// Runs the Fig. 3 measurement (direct testbed runs, no model).
///
/// # Errors
///
/// Propagates testbed failures.
pub fn run(cfg: &ExpConfig) -> Result<Fig3Result, ExpError> {
    let mut testbed = private_testbed(cfg);
    let hosts = testbed.cluster_hosts();
    let (pressures, node_counts, app_names): (Vec<usize>, Vec<usize>, Vec<String>) = if cfg.fast {
        (
            vec![2, 5, 8],
            vec![0, 1, 2, 4, 8],
            vec!["M.milc".into(), "M.Gems".into(), "H.KM".into()],
        )
    } else {
        ((1..=8).collect(), (0..=hosts).collect(), distributed_apps())
    };

    let mut apps = Vec::with_capacity(app_names.len());
    for app in &app_names {
        let curves = Probe::new(&mut testbed, app, hosts, cfg.repeats())?
            .curves(&pressures, &node_counts)?;
        apps.push(Fig3App {
            app: app.clone(),
            pressures: pressures.clone(),
            node_counts: node_counts.clone(),
            curves,
        });
    }
    Ok(Fig3Result { apps })
}

/// Renders the curve families as one table per application.
pub fn render(result: &Fig3Result) -> String {
    let mut out = String::new();
    for app in &result.apps {
        let mut table = Table::new(format!(
            "Figure 3: {} — normalized time vs interfering nodes (rows: bubble pressure)",
            app.app
        ));
        let mut headers = vec!["pressure".to_string()];
        headers.extend(app.node_counts.iter().map(|k| format!("{k} nodes")));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> Fig3Result {
        run(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs")
    }

    #[test]
    fn curves_start_at_one_and_grow_with_pressure() {
        let result = fast();
        for app in &result.apps {
            for curve in &app.curves {
                assert_eq!(curve[0], 1.0, "{}: j=0 must be 1", app.app);
            }
            // The highest-pressure curve dominates the lowest at max
            // nodes.
            let last = app.node_counts.len() - 1;
            let low = app.curves.first().expect("curves")[last];
            let high = app.curves.last().expect("curves")[last];
            assert!(
                high >= low - 0.02,
                "{}: pressure 8 ({high}) must dominate pressure 2 ({low})",
                app.app
            );
        }
    }

    #[test]
    fn propagation_types_distinguishable() {
        let result = fast();
        let app = |name: &str| result.apps.iter().find(|a| a.app == name).expect("present");
        let frac_at_one = |a: &Fig3App| {
            let top = a.curves.last().expect("curves");
            (top[1] - 1.0) / (top[top.len() - 1] - 1.0).max(1e-9)
        };
        let milc = frac_at_one(app("M.milc"));
        let gems = frac_at_one(app("M.Gems"));
        assert!(
            milc > gems + 0.2,
            "milc (high, {milc:.2}) must propagate more than Gems (proportional, {gems:.2})"
        );
        let hkm = app("H.KM").curves.last().expect("curves");
        assert!(
            hkm[hkm.len() - 1] < 1.5,
            "H.KM must stay resilient, got {}",
            hkm[hkm.len() - 1]
        );
    }

    #[test]
    fn render_emits_one_table_per_app() {
        let result = fast();
        let text = render(&result);
        assert_eq!(text.matches("Figure 3:").count(), result.apps.len());
    }
}
