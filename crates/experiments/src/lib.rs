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

    /// Runs the experiment once and returns both its rendered text
    /// table and its structured JSON result, so callers that want both
    /// (the binary's `--results`/`--json` exports) pay for one run.
    ///
    /// Experiments sharing a computation (e.g. `fig4`/`table2`) rerun
    /// it; determinism makes the shared view consistent.
    ///
    /// # Errors
    ///
    /// Propagates the experiment's failure.
    pub fn run_full(&self, cfg: &ExpConfig) -> Result<(String, icm_json::Json), ExpError> {
        self.run_full_traced(cfg, &icm_obs::Tracer::disabled())
    }

    /// [`run_full`](Self::run_full) with an event sink: experiments that
    /// emit structured events mid-run (currently `recovery`, whose
    /// supervisory loop traces detections and actions) write them into
    /// `tracer`; the rest ignore it. This is what the binary's `--trace`
    /// flag threads through.
    ///
    /// # Errors
    ///
    /// Propagates the experiment's failure.
    pub fn run_full_traced(
        &self,
        cfg: &ExpConfig,
        tracer: &icm_obs::Tracer,
    ) -> Result<(String, icm_json::Json), ExpError> {
        fn both<T: icm_json::ToJson>(result: &T, text: String) -> (String, icm_json::Json) {
            (text, icm_json::to_value(result))
        }
        Ok(match self {
            Experiment::Fig2 => {
                let r = fig2::run(cfg)?;
                both(&r, fig2::render(&r))
            }
            Experiment::Fig3 => {
                let r = fig3::run(cfg)?;
                both(&r, fig3::render(&r))
            }
            Experiment::Fig4 => {
                let r = fig4::run(cfg)?;
                both(&r, fig4::render_fig4(&r))
            }
            Experiment::Table2 => {
                let r = fig4::run(cfg)?;
                both(&r, fig4::render_table2(&r))
            }
            Experiment::Table3 => {
                let r = table3::run(cfg)?;
                both(&r, table3::render_table3(&r))
            }
            Experiment::Fig6 => {
                let r = table3::run(cfg)?;
                both(&r, table3::render_fig6(&r))
            }
            Experiment::Fig7 => {
                let r = table3::run(cfg)?;
                both(&r, table3::render_fig7(&r))
            }
            Experiment::Table4 => {
                let r = table4::run(cfg)?;
                both(&r, table4::render(&r))
            }
            Experiment::Fig8 => {
                let r = fig8::run(cfg)?;
                both(&r, fig8::render_fig8(&r))
            }
            Experiment::Fig9 => {
                let r = fig8::run(cfg)?;
                both(&r, fig8::render_fig9(&r))
            }
            Experiment::Fig10 => {
                let r = fig10::run(cfg)?;
                both(&r, fig10::render(&r))
            }
            Experiment::Fig11 => {
                let r = fig11::run(cfg)?;
                both(&r, fig11::render_fig11(&r))
            }
            Experiment::Table5 => {
                let r = fig11::run(cfg)?;
                both(&r, fig11::render_table5(&r))
            }
            Experiment::Fig12 => {
                let r = ec2::run(cfg)?;
                both(&r, ec2::render_fig12(&r))
            }
            Experiment::Table6 => {
                let r = ec2::run(cfg)?;
                both(&r, ec2::render_table6(&r))
            }
            Experiment::Fig13 => {
                let r = ec2::run(cfg)?;
                both(&r, ec2::render_fig13(&r))
            }
            Experiment::AblationInterp => {
                let r = ablations::run_interp(cfg)?;
                both(&r, ablations::render_interp(&r))
            }
            Experiment::AblationSa => {
                let r = ablations::run_sa(cfg)?;
                both(&r, ablations::render_sa(&r))
            }
            Experiment::AblationSamples => {
                let r = ablations::run_samples(cfg)?;
                both(&r, ablations::render_samples(&r))
            }
            Experiment::AblationMultiApp => {
                let r = ablations::run_multiapp(cfg)?;
                both(&r, ablations::render_multiapp(&r))
            }
            Experiment::ExtOnline => {
                let r = extensions::run_online(cfg)?;
                both(&r, extensions::render_online(&r))
            }
            Experiment::ExtMultiApp => {
                let r = extensions::run_multiapp(cfg)?;
                both(&r, extensions::render_multiapp(&r))
            }
            Experiment::ExtEnergy => {
                let r = extensions::run_energy(cfg)?;
                both(&r, extensions::render_energy(&r))
            }
            Experiment::ExtPhases => {
                let r = extensions::run_phases(cfg)?;
                both(&r, extensions::render_phases(&r))
            }
            Experiment::ExtTransfer => {
                let r = extensions::run_transfer(cfg)?;
                both(&r, extensions::render_transfer(&r))
            }
            Experiment::ExtScale => {
                let r = extensions::run_scale(cfg)?;
                both(&r, extensions::render_scale(&r))
            }
            Experiment::ExtIoChannel => {
                let r = extensions::run_iochannel(cfg)?;
                both(&r, extensions::render_iochannel(&r))
            }
            Experiment::Robustness => {
                let r = robustness::run(cfg)?;
                both(&r, robustness::render(&r))
            }
            Experiment::Recovery => {
                let r = recovery::run_traced(cfg, tracer)?;
                both(&r, recovery::render(&r))
            }
            Experiment::Endurance => {
                let r = endurance::run_traced(cfg, tracer)?;
                both(&r, endurance::render(&r))
            }
            Experiment::Fork => {
                let r = endurance::run_fork(cfg)?;
                both(&r, endurance::render_fork(&r))
            }
            Experiment::Serve => {
                let r = serve::run(cfg)?;
                both(&r, serve::render(&r))
            }
        })
    }

    /// Runs the experiment and returns its structured result as JSON,
    /// for downstream tooling (plotting, regression tracking).
    ///
    /// # Errors
    ///
    /// Propagates the experiment's failure.
    pub fn run_json(&self, cfg: &ExpConfig) -> Result<icm_json::Json, ExpError> {
        self.run_full(cfg).map(|(_, json)| json)
    }

    /// Runs the experiment and returns its rendered text output.
    ///
    /// # Errors
    ///
    /// Propagates the experiment's failure.
    pub fn run(&self, cfg: &ExpConfig) -> Result<String, ExpError> {
        self.run_full(cfg).map(|(text, _)| text)
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
