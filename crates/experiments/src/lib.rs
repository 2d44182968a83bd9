//! Regeneration harness for every table and figure in the ASPLOS'16
//! evaluation, plus the ablations listed in `DESIGN.md`.
//!
//! Each experiment is a module with a `run(&ExpConfig) -> Result<R, _>`
//! function returning serializable structured data, and one or more
//! `render*` functions producing the text table printed by the
//! `icm-experiments` binary:
//!
//! ```text
//! cargo run -p icm-experiments --release -- fig2
//! cargo run -p icm-experiments --release -- all --fast
//! ```
//!
//! | id | paper artifact |
//! |----|----------------|
//! | `fig2` | motivation: naive vs real lammps interference |
//! | `fig3` | propagation curves, 12 distributed apps |
//! | `fig4` / `table2` | heterogeneity policy errors / best policy |
//! | `table3` / `fig6` / `fig7` | profiling cost & accuracy |
//! | `table4` | bubble scores |
//! | `fig8` / `fig9` | pairwise model validation |
//! | `fig10` | QoS-aware placement |
//! | `fig11` / `table5` | throughput placement over the Table 5 mixes |
//! | `fig12` / `table6` / `fig13` | EC2 study |
//! | `ablation-*` | A1–A4 design-choice ablations |
//! | `ext-online` | online model refinement (§4.4 future work) |
//! | `ext-multiapp` | 3 tenants per host via score combination (§4.4) |
//! | `ext-energy` | wasted-CPU placement (conclusion's use case) |
//! | `ext-phases` | phase-varying sensitivity vs the static model (§4.4) |
//! | `ext-transfer` | model transfer across host generations (§6) |
//! | `ext-scale` | placement at 16 hosts / 8 tenants |
//! | `ext-iochannel` | the unprofiled network/disk I/O channel (§2.1) |
//! | `robustness` | resilient profiling under injected faults |
//! | `recovery` | self-healing runtime vs unmanaged baseline |
//! | `endurance` | checkpointable long run under randomized crashes |
//! | `fork` | one world branched mid-run under different policies |
//!
//! Ids joined by `/` in one row above are views of one study. The study
//! is the unit that runs: `all`, and any id list, runs each study once
//! and hands its result to every id that shows it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod context;
pub mod ec2;
pub mod endurance;
pub mod explain;
pub mod extensions;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig8;
pub mod flame;
pub mod placement_common;
pub mod recovery;
pub mod results;
pub mod robustness;
pub mod serve;
pub mod table;
pub mod table3;
pub mod table4;
pub mod trace;
pub mod tracediff;

pub use context::{ExpConfig, ExpError};

/// Every runnable experiment id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Experiment {
    /// Fig. 2 — motivation.
    Fig2,
    /// Fig. 3 — propagation curves.
    Fig3,
    /// Fig. 4 — policy errors.
    Fig4,
    /// Table 2 — best policies.
    Table2,
    /// Table 3 — profiling cost/accuracy averages.
    Table3,
    /// Fig. 6 — per-app profiling error.
    Fig6,
    /// Fig. 7 — per-app profiling cost.
    Fig7,
    /// Table 4 — bubble scores.
    Table4,
    /// Fig. 8 — pairwise validation.
    Fig8,
    /// Fig. 9 — the M.Gems detail.
    Fig9,
    /// Fig. 10 — QoS placement.
    Fig10,
    /// Fig. 11 — throughput placement.
    Fig11,
    /// Table 5 — mixes.
    Table5,
    /// Fig. 12 — EC2 curves.
    Fig12,
    /// Table 6 — EC2 policies.
    Table6,
    /// Fig. 13 — EC2 validation.
    Fig13,
    /// Ablation A1 — binary-search ε.
    AblationInterp,
    /// Ablation A2 — search budget.
    AblationSa,
    /// Ablation A3 — policy samples.
    AblationSamples,
    /// Ablation A4 — multi-app scores.
    AblationMultiApp,
    /// Extension — online model refinement.
    ExtOnline,
    /// Extension — three tenants per host.
    ExtMultiApp,
    /// Extension — wasted-CPU placement.
    ExtEnergy,
    /// Extension — phase-varying sensitivity.
    ExtPhases,
    /// Extension — model transfer across host generations.
    ExtTransfer,
    /// Extension — placement quality vs cluster scale.
    ExtScale,
    /// Extension — the unprofiled network/disk I/O channel.
    ExtIoChannel,
    /// Robustness — resilient profiling under injected faults.
    Robustness,
    /// Recovery — self-healing runtime vs unmanaged baseline.
    Recovery,
    /// Endurance — checkpointable long run under randomized crashes.
    Endurance,
    /// Fork — one world branched mid-run under different policies.
    Fork,
    /// Serve — the placement daemon under scripted load with a
    /// mid-stream kill.
    Serve,
}

impl Experiment {
    /// All experiments in paper order.
    pub const ALL: [Experiment; 32] = [
        Experiment::Fig2,
        Experiment::Fig3,
        Experiment::Fig4,
        Experiment::Table2,
        Experiment::Table3,
        Experiment::Fig6,
        Experiment::Fig7,
        Experiment::Table4,
        Experiment::Fig8,
        Experiment::Fig9,
        Experiment::Fig10,
        Experiment::Fig11,
        Experiment::Table5,
        Experiment::Fig12,
        Experiment::Table6,
        Experiment::Fig13,
        Experiment::AblationInterp,
        Experiment::AblationSa,
        Experiment::AblationSamples,
        Experiment::AblationMultiApp,
        Experiment::ExtOnline,
        Experiment::ExtMultiApp,
        Experiment::ExtEnergy,
        Experiment::ExtPhases,
        Experiment::ExtTransfer,
        Experiment::ExtScale,
        Experiment::ExtIoChannel,
        Experiment::Robustness,
        Experiment::Recovery,
        Experiment::Endurance,
        Experiment::Fork,
        Experiment::Serve,
    ];

    /// Command-line id.
    pub fn id(&self) -> &'static str {
        match self {
            Experiment::Fig2 => "fig2",
            Experiment::Fig3 => "fig3",
            Experiment::Fig4 => "fig4",
            Experiment::Table2 => "table2",
            Experiment::Table3 => "table3",
            Experiment::Fig6 => "fig6",
            Experiment::Fig7 => "fig7",
            Experiment::Table4 => "table4",
            Experiment::Fig8 => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::Table5 => "table5",
            Experiment::Fig12 => "fig12",
            Experiment::Table6 => "table6",
            Experiment::Fig13 => "fig13",
            Experiment::AblationInterp => "ablation-interp",
            Experiment::AblationSa => "ablation-sa",
            Experiment::AblationSamples => "ablation-samples",
            Experiment::AblationMultiApp => "ablation-multiapp",
            Experiment::ExtOnline => "ext-online",
            Experiment::ExtMultiApp => "ext-multiapp",
            Experiment::ExtEnergy => "ext-energy",
            Experiment::ExtPhases => "ext-phases",
            Experiment::ExtTransfer => "ext-transfer",
            Experiment::ExtScale => "ext-scale",
            Experiment::ExtIoChannel => "ext-iochannel",
            Experiment::Robustness => "robustness",
            Experiment::Recovery => "recovery",
            Experiment::Endurance => "endurance",
            Experiment::Fork => "fork",
            Experiment::Serve => "serve",
        }
    }

    /// Parses a command-line id.
    pub fn parse(id: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.id() == id)
    }

    /// Runs the study behind this id once and returns its structured
    /// result with the rendered text of every id that shows it.
    ///
    /// Ids that are views of one study (`fig4`/`table2`, for example)
    /// share one arm, so a caller that keeps what a study returns never
    /// runs it twice: `icm-experiments` hands a later id of the same
    /// study the text and data it kept. Studies that emit structured
    /// events mid-run (`recovery` and `endurance`, whose supervisory
    /// loops trace detections and actions) write them into `tracer`; the
    /// rest ignore it. A shared study's events fall inside the
    /// `experiment` span of the first id that needed it.
    ///
    /// # Errors
    ///
    /// Propagates the study's failure.
    pub fn run_full_traced(
        &self,
        cfg: &ExpConfig,
        tracer: &icm_obs::Tracer,
    ) -> Result<(icm_json::Json, Vec<(Experiment, String)>), ExpError> {
        type View<T> = (Experiment, fn(&T) -> String);
        fn study<T: icm_json::ToJson>(
            result: &T,
            views: &[View<T>],
        ) -> (icm_json::Json, Vec<(Experiment, String)>) {
            let texts = views.iter().map(|(exp, render)| (*exp, render(result)));
            (icm_json::to_value(result), texts.collect())
        }
        Ok(match self {
            Experiment::Fig2 => study(&fig2::run(cfg)?, &[(*self, fig2::render)]),
            Experiment::Fig3 => study(&fig3::run(cfg)?, &[(*self, fig3::render)]),
            Experiment::Fig4 | Experiment::Table2 => study(
                &fig4::run(cfg)?,
                &[
                    (Experiment::Fig4, fig4::render_fig4),
                    (Experiment::Table2, fig4::render_table2),
                ],
            ),
            Experiment::Table3 | Experiment::Fig6 | Experiment::Fig7 => study(
                &table3::run(cfg)?,
                &[
                    (Experiment::Table3, table3::render_table3),
                    (Experiment::Fig6, table3::render_fig6),
                    (Experiment::Fig7, table3::render_fig7),
                ],
            ),
            Experiment::Table4 => study(&table4::run(cfg)?, &[(*self, table4::render)]),
            Experiment::Fig8 | Experiment::Fig9 => study(
                &fig8::run(cfg)?,
                &[
                    (Experiment::Fig8, fig8::render_fig8),
                    (Experiment::Fig9, fig8::render_fig9),
                ],
            ),
            Experiment::Fig10 => study(&fig10::run(cfg)?, &[(*self, fig10::render)]),
            Experiment::Fig11 | Experiment::Table5 => study(
                &fig11::run(cfg)?,
                &[
                    (Experiment::Fig11, fig11::render_fig11),
                    (Experiment::Table5, fig11::render_table5),
                ],
            ),
            Experiment::Fig12 | Experiment::Table6 | Experiment::Fig13 => study(
                &ec2::run(cfg)?,
                &[
                    (Experiment::Fig12, ec2::render_fig12),
                    (Experiment::Table6, ec2::render_table6),
                    (Experiment::Fig13, ec2::render_fig13),
                ],
            ),
            Experiment::AblationInterp => study(
                &ablations::run_interp(cfg)?,
                &[(*self, ablations::render_interp)],
            ),
            Experiment::AblationSa => {
                study(&ablations::run_sa(cfg)?, &[(*self, ablations::render_sa)])
            }
            Experiment::AblationSamples => study(
                &ablations::run_samples(cfg)?,
                &[(*self, ablations::render_samples)],
            ),
            Experiment::AblationMultiApp => study(
                &ablations::run_multiapp(cfg)?,
                &[(*self, ablations::render_multiapp)],
            ),
            Experiment::ExtOnline => study(
                &extensions::run_online(cfg)?,
                &[(*self, extensions::render_online)],
            ),
            Experiment::ExtMultiApp => study(
                &extensions::run_multiapp(cfg)?,
                &[(*self, extensions::render_multiapp)],
            ),
            Experiment::ExtEnergy => study(
                &extensions::run_energy(cfg)?,
                &[(*self, extensions::render_energy)],
            ),
            Experiment::ExtPhases => study(
                &extensions::run_phases(cfg)?,
                &[(*self, extensions::render_phases)],
            ),
            Experiment::ExtTransfer => study(
                &extensions::run_transfer(cfg)?,
                &[(*self, extensions::render_transfer)],
            ),
            Experiment::ExtScale => study(
                &extensions::run_scale(cfg)?,
                &[(*self, extensions::render_scale)],
            ),
            Experiment::ExtIoChannel => study(
                &extensions::run_iochannel(cfg)?,
                &[(*self, extensions::render_iochannel)],
            ),
            Experiment::Robustness => study(&robustness::run(cfg)?, &[(*self, robustness::render)]),
            Experiment::Recovery => study(
                &recovery::run_traced(cfg, tracer)?,
                &[(*self, recovery::render)],
            ),
            Experiment::Endurance => study(
                &endurance::run_traced(cfg, tracer)?,
                &[(*self, endurance::render)],
            ),
            Experiment::Fork => study(
                &endurance::run_fork(cfg)?,
                &[(*self, endurance::render_fork)],
            ),
            Experiment::Serve => study(&serve::run(cfg)?, &[(*self, serve::render)]),
        })
    }

    /// Runs this id's study and returns its structured result as JSON,
    /// for downstream tooling (plotting, regression tracking).
    ///
    /// # Errors
    ///
    /// Propagates the study's failure.
    pub fn run_json(&self, cfg: &ExpConfig) -> Result<icm_json::Json, ExpError> {
        let (data, _) = self.run_full_traced(cfg, &icm_obs::Tracer::disabled())?;
        Ok(data)
    }

    /// Runs this id's study and returns this id's rendered text.
    ///
    /// # Errors
    ///
    /// Propagates the study's failure.
    pub fn run(&self, cfg: &ExpConfig) -> Result<String, ExpError> {
        let (_, texts) = self.run_full_traced(cfg, &icm_obs::Tracer::disabled())?;
        let (_, text) = texts
            .into_iter()
            .find(|(exp, _)| exp == self)
            .expect("a study shows every id that dispatches to it");
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for exp in Experiment::ALL {
            assert_eq!(Experiment::parse(exp.id()), Some(exp));
        }
        assert_eq!(Experiment::parse("nope"), None);
    }

    #[test]
    fn json_output_is_structured() {
        let cfg = ExpConfig {
            seed: 3,
            fast: true,
        };
        let value = Experiment::Fig2.run_json(&cfg).expect("runs");
        assert!(value.get("rows").is_some(), "Fig2Result exposes rows");
        let text = icm_json::to_string(&value);
        assert!(text.contains("interfering_nodes"));
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = Experiment::ALL.iter().map(Experiment::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Experiment::ALL.len());
    }
}
