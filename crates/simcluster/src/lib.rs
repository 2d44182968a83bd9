//! Consolidated virtual-cluster testbed simulator.
//!
//! This crate stands in for the physical testbed of the ASPLOS'16 paper
//! (8 Xen hosts / 32 EC2 instances): it executes *distributed parallel
//! applications* on a simulated cluster whose nodes contend on LLC
//! capacity and memory bandwidth (via [`icm_simnode`]), and returns noisy
//! wall-clock measurements, exactly the interface a profiler has against
//! real hardware.
//!
//! Key pieces:
//!
//! * [`ClusterSpec`] — the cluster: hosts, noise levels, optional
//!   unobserved background tenants (EC2 mode).
//! * [`AppSpec`] / [`SyncPattern`] — a distributed application: per-host
//!   memory behaviour plus the synchronization structure that governs how
//!   node-local slowdowns *propagate* into the final runtime.
//! * [`SimTestbed`] — run applications solo, against per-host bubbles,
//!   co-located in pairs, or in arbitrary [`Deployment`]s; measure the
//!   reporter-bubble slowdowns used for bubble scoring.
//! * [`FaultPlan`] — deterministic fault injection: transient probe
//!   failures, straggler runs killed at a deadline, corrupted
//!   measurements, and per-host crash windows, all addressed through the
//!   same seeded noise so faulty histories stay byte-reproducible.
//!
//! Everything is deterministic given a seed; repeated runs differ by
//! realistic, addressable pseudo-random noise.
//!
//! # Example
//!
//! ```
//! use icm_simcluster::{AppSpec, ClusterSpec, SimTestbed, SyncPattern};
//! use icm_simnode::MemoryProfile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut testbed = SimTestbed::new(ClusterSpec::private8(), 1);
//! testbed.register_app(
//!     AppSpec::builder("solver")
//!         .base_runtime_s(300.0)
//!         .worker_profile(MemoryProfile::builder().working_set_mb(30.0).build()?)
//!         .pattern(SyncPattern::high_propagation(64))
//!         .build()?,
//! );
//! // Interference on two of the eight nodes:
//! let mut pressures = vec![0.0; 8];
//! pressures[0] = 6.0;
//! pressures[1] = 6.0;
//! let seconds = testbed.run_with_bubbles("solver", &pressures)?;
//! assert!(seconds > 300.0);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod cluster;
mod cpu;
mod fault;
mod noise;
mod sync;
mod testbed;

pub use app::{AppSpec, AppSpecBuilder, MasterBehavior};
pub use cluster::{BackgroundTenants, ClusterSpec};
pub use fault::{CrashWindow, FaultPlan, FaultPlanError};
pub use noise::Noise;
pub use sync::{execute, PhaseModulation, SyncPattern};
pub use testbed::{
    AppRun, Deployment, Placement, RunKind, SimTestbed, TestbedError, TestbedSnapshot, TestbedStats,
};
