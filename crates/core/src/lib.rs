//! Interference propagation + heterogeneity modeling for distributed
//! parallel applications — the primary contribution of *"Interference
//! Management for Distributed Parallel Applications in Consolidated
//! Clusters"* (ASPLOS 2016).
//!
//! A distributed application spans many nodes; interference on *one* node
//! can stall all of them (barrier-coupled MPI), hurt proportionally
//! (loosely coupled codes) or barely matter (dynamically scheduled
//! frameworks). This crate builds a per-application model that predicts
//! the normalized runtime under *any* per-node interference vector from a
//! small number of profiling runs:
//!
//! * [`SensitivityCurve`] / [`ReporterCurve`] — single-node Bubble-Up
//!   machinery: sensitivity profiles and bubble-score inversion.
//! * [`PropagationMatrix`] — normalized runtime as a function of bubble
//!   pressure × number of interfering nodes (the Fig. 3 curves).
//! * [`MappingPolicy`] — the four heterogeneity→homogeneity conversion
//!   policies (*N max*, *N+1 max*, *all max*, *interpolate*) plus
//!   sample-based selection of the best one per application.
//! * [`profiling`] — the *binary-brute* / *binary-optimized* profiling
//!   algorithms (Algorithms 1 & 2) and random baselines that keep the
//!   profiling cost low.
//! * [`resilient`] — retry / backoff / monotone-fallback wrapper around
//!   any profile source, with per-cell [`ModelQuality`] provenance for
//!   downstream confidence-aware consumers.
//! * [`probe`] — the measurement protocol every model is built from:
//!   the solo baseline, bubbles of pressure `i` on `j` hosts, seeded
//!   heterogeneous samples and the reporter-calibrated bubble score.
//! * [`model`] — [`ModelBuilder`] drives a
//!   [`Testbed`] through the whole procedure and assembles an
//!   [`InterferenceModel`]; the
//!   [`NaiveModel`] is the paper's proportional
//!   baseline.
//! * [`validate`] — prediction-vs-measurement reporting.
//!
//! This crate is testbed-agnostic: it talks to a cluster only through the
//! [`Testbed`] trait. The workspace provides a simulated implementation in
//! `icm-workloads`.
//!
//! # Example
//!
//! ```
//! use icm_core::{MappingPolicy, PropagationMatrix};
//!
//! # fn main() -> Result<(), icm_core::ModelError> {
//! // A hand-made propagation matrix: 2 pressure levels × 4 hosts.
//! let t = PropagationMatrix::new(vec![
//!     vec![1.0, 1.2, 1.25, 1.3, 1.3],
//!     vec![1.0, 1.5, 1.55, 1.6, 1.6],
//! ])?;
//! // Heterogeneous interference [2,1,0,0] under the N+1-max policy:
//! let hom = MappingPolicy::NPlus1Max.convert(&[2.0, 1.0, 0.0, 0.0]);
//! let predicted = t.predict(hom.pressure, hom.nodes);
//! assert!(predicted > 1.5 && predicted <= 1.6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curve;
mod error;
pub mod heterogeneity;
pub mod model;
pub mod online;
pub mod probe;
pub mod profiling;
mod propagation;
pub mod resilient;
mod score;
pub mod stats;
pub mod store;
mod testbed;
pub mod validate;

pub use curve::SensitivityCurve;
pub use error::ModelError;
pub use heterogeneity::{
    evaluate_policies, select_policy, HomogeneousInterference, MappingPolicy, PolicyEvaluation,
};
pub use model::{InterferenceModel, ModelBuilder, NaiveModel};
pub use online::{DriftConfig, DriftDetector, DriftSignal, OnlineModel};
pub use probe::{heterogeneous_setting, Calibration, Probe};
pub use profiling::{
    profile, FnSource, ProfileResult, ProfileSource, ProfilerConfig, ProfilingAlgorithm,
};
pub use propagation::PropagationMatrix;
pub use resilient::{
    profile_resilient, ModelQuality, QualityGrid, ResilienceStats, ResilientOutcome,
    ResilientSource,
};
pub use score::combine_scores;
pub use score::ReporterCurve;
pub use stats::Summary;
pub use store::ModelStore;
pub use testbed::Testbed;
pub use validate::{ValidationPoint, ValidationReport};
