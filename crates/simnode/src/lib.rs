//! Single-node shared-resource contention substrate.
//!
//! The ASPLOS'16 paper identifies the shared last-level cache (LLC) and
//! memory bandwidth as the dominant interference channels between
//! applications consolidated on one physical node (§2.1). This crate
//! provides a small, deterministic, analytic model of exactly those two
//! channels:
//!
//! * [`NodeSpec`] describes a physical host (cores, LLC capacity, memory
//!   bandwidth).
//! * [`MemoryProfile`] describes the memory behaviour of one co-located
//!   process (working set, bandwidth demand, sensitivity).
//! * [`Bubble`] is the synthetic pressure generator used by the Bubble-Up
//!   methodology: a co-runner with a calibrated, monotonically increasing
//!   appetite for LLC capacity and memory bandwidth.
//! * [`solve_contention`] computes the slowdown that each co-located
//!   process experiences, given everything sharing the node.
//!
//! The model is *mechanistic* rather than curve-fit: a co-runner that
//! demands cache capacity evicts a victim's working set (raising its miss
//! fraction), and the resulting extra memory traffic can saturate the
//! memory controller (stalling everyone). Both effects are monotone in the
//! co-runner's pressure, which is the property the Bubble-Up profiling
//! methodology relies on.
//!
//! # Example
//!
//! ```
//! use icm_simnode::{Bubble, MemoryProfile, NodeSpec, solve_contention};
//!
//! let node = NodeSpec::xeon_e5_2650();
//! let victim = MemoryProfile::builder()
//!     .working_set_mb(25.0)
//!     .bandwidth_gbps(6.0)
//!     .build()
//!     .expect("valid profile");
//! let bubble = Bubble::new(node).profile_at(6.0);
//!
//! let slowdowns = solve_contention(&node, &[victim, bubble]);
//! assert!(slowdowns[0] > 1.0, "the victim must be slowed down");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bubble;
mod contention;
mod error;
mod process;
mod spec;

pub use bubble::{Bubble, MAX_PRESSURE};
pub use contention::{solve_contention, solve_contention_detailed, ContentionOutcome};
pub use error::ProfileError;
pub use process::{MemoryProfile, MemoryProfileBuilder};
pub use spec::NodeSpec;
