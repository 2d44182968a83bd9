//! Self-healing runtime management for consolidated clusters — the
//! supervisory layer the ASPLOS'16 paper leaves as future work ("our
//! system currently assumes a static environment", §4.4).
//!
//! The paper's pipeline profiles applications once, picks a placement,
//! and stops. This crate closes the loop: an event-driven, fully
//! deterministic manager executes the chosen placement on the simulated
//! testbed and supervises it over simulated time. Each epoch it
//! collects per-application slowdown observations, folds them into the
//! online interference model, and reacts to failures with typed,
//! replayable actions:
//!
//! * **migrate** — a host enters a crash window; affected applications
//!   are checkpointed and resumed elsewhere at an explicit restart cost
//!   in simulated seconds, *before* the outage hits;
//! * **re-anneal** — drift trips, sustained SLO violations or straggler
//!   kills trigger a bounded incremental placement search warm-started
//!   from the current assignment (never a cold restart);
//! * **shed** — when no feasible placement exists, the lowest-priority
//!   application is taken out of service (graceful degradation);
//! * **circuit-break** — reactions justified only by predictions
//!   resting on `Defaulted` model cells are suspended instead of acted
//!   on.
//!
//! Determinism is the contract throughout: same seed + same fault plan
//! ⇒ byte-identical action logs, and with faults disabled the managed
//! run's simulated history is byte-identical to the unmanaged baseline
//! — supervision is free until something breaks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod error;
mod fleet;
mod ledger;
pub mod objective;
mod runtime;
pub mod snapshot;

pub use action::{
    ActionKind, ActionRecord, AppFinal, DetectionKind, DetectionRecord, ManagerOutcome,
};
pub use error::ManagerError;
pub use fleet::{Fleet, ManagedApp, IDLE_PREFIX};
pub use runtime::{run_managed, run_unmanaged, EnvironmentDrift, ManagedRun, ManagerConfig};
