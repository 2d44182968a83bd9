//! Interference-aware VM placement for consolidated clusters — the case
//! studies of §5 of the ASPLOS'16 paper.
//!
//! Given per-application interference models (from [`icm_core`]), this
//! crate searches the space of slot assignments with a simulated-
//! annealing-style swap search:
//!
//! * [`place_qos`] — keep a mission-critical application within a
//!   guaranteed fraction of its solo performance while minimizing the
//!   total runtime of everything else (§5.2, Fig. 10).
//! * [`find_placements`] — best / worst / random placements of a mix for
//!   the throughput study (§5.3, Fig. 11).
//! * [`place_min_waste`] — minimize predicted wasted node-seconds.
//! * [`exhaustive`] — a brute-force oracle for small problems, used to
//!   validate the stochastic search.
//!
//! Every one of them runs the same search engine, which prices each
//! candidate by calling one evaluation closure,
//! `FnMut(&PlacementState) -> Result<Eval, PlacementError>`:
//!
//! * [`anneal_with`] / [`re_anneal_with`] — the search over any such
//!   closure, cold or warm-started under [`PlacementConstraints`] (the
//!   manager's and the daemon's fleet objective comes in this way).
//! * [`anneal_estimator`] — [`anneal_with`] over an estimator-backed
//!   [`SearchGoal`], priced by [`SearchGoal::eval`]; the entry points
//!   above are thin wrappers around it.
//!
//! The search consumes models only through the [`RuntimePredictor`]
//! trait, so the paper's full interference model and its naive
//! proportional baseline are interchangeable — which is exactly the
//! comparison Figs. 10 and 11 make.
//! The trait carries no confidence grade: like the paper's §5.2 rule,
//! the search prices every prediction as the model gives it. Model-cell
//! quality is graded where it is reported, by the manager and the
//! daemon.
//!
//! # Example
//!
//! ```
//! use icm_placement::{
//!     AnnealConfig, Estimator, PlacementProblem, QosConfig, RuntimePredictor, place_qos,
//! };
//! # use icm_placement::PlacementError;
//!
//! // A toy predictor: runtime grows with the max co-runner pressure.
//! struct Toy(f64);
//! impl RuntimePredictor for Toy {
//!     fn predict_normalized(&self, p: &[f64]) -> Result<f64, PlacementError> {
//!         Ok(1.0 + 0.1 * p.iter().cloned().fold(0.0f64, f64::max))
//!     }
//!     fn bubble_score(&self) -> f64 { self.0 }
//!     fn solo_seconds(&self) -> f64 { 100.0 }
//! }
//!
//! # fn main() -> Result<(), PlacementError> {
//! let problem = PlacementProblem::paper_default(vec![
//!     "a".into(), "b".into(), "c".into(), "d".into(),
//! ])?;
//! let toys = [Toy(1.0), Toy(5.0), Toy(0.5), Toy(2.0)];
//! let predictors: Vec<&dyn RuntimePredictor> =
//!     toys.iter().map(|t| t as &dyn RuntimePredictor).collect();
//! let estimator = Estimator::new(&problem, predictors)?;
//! let outcome = place_qos(&estimator, 0, &QosConfig::default())?;
//! assert!(outcome.predicted_satisfied);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annealing;
pub mod energy;
mod error;
mod estimator;
pub mod exhaustive;
mod goal;
mod objective;
mod qos;
mod state;
mod throughput;

pub use annealing::{anneal_with, re_anneal_with, AcceptRule, AnnealConfig, AnnealResult};
pub use energy::{estimate_waste, place_min_waste, EnergyEstimate};
pub use error::PlacementError;
pub use estimator::{Estimator, PlacementEstimate, RuntimePredictor};
pub use goal::{anneal_estimator, SearchGoal};
pub use objective::Eval;
pub use qos::{place_qos, QosConfig, QosOutcome};
pub use state::{PlacementConstraints, PlacementProblem, PlacementState};
pub use throughput::{average_speedup, find_placements, ThroughputConfig, ThroughputPlacements};
