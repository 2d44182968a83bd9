use crate::process::MemoryProfile;
use crate::spec::NodeSpec;

/// Highest bubble pressure level used by the paper's profiling runs.
///
/// The paper sweeps pressures 1–8 on the private cluster (Fig. 3); level 0
/// means "no bubble".
pub const MAX_PRESSURE: u8 = 8;

// Calibration of the [`Bubble`] pressure generator. The paper's bubble
// is designed so that each +1 pressure step roughly doubles the LLC
// misses it induces (§4.4). That is encoded as exponential growth of
// both its cache footprint and its memory traffic with pressure:
// `working_set = llc × WS_BASE_FRAC × 2^(p / WS_DOUBLING)`, and likewise
// for bandwidth. The values make pressure 8 overwhelm the LLC of the
// default host about two-fold and consume a large share of its memory
// bandwidth.

/// Working-set fraction of LLC at pressure 0⁺.
const WS_BASE_FRAC: f64 = 0.18;
/// Pressure steps per working-set doubling.
const WS_DOUBLING: f64 = 2.2;
/// Bandwidth fraction of node bandwidth at pressure 0⁺.
const BW_BASE_FRAC: f64 = 0.025;
/// Pressure steps per bandwidth doubling.
const BW_DOUBLING: f64 = 2.0;
/// Re-reference intensity of the bubble (it streams hot data).
const ACCESS_WEIGHT: f64 = 1.6;
/// Extra traffic per unit of its own evicted fraction, as a fraction of
/// node bandwidth.
const MISS_BW_FRAC: f64 = 0.25;
/// How strongly the bubble itself slows down when *it* loses cache
/// (used when the bubble acts as the Bubble-Up reporter).
const CACHE_SENSITIVITY: f64 = 1.0;
/// Bandwidth-stall exponent of the reporter bubble.
const BANDWIDTH_SENSITIVITY: f64 = 1.0;

/// The synthetic interference generator of the Bubble-Up methodology.
///
/// A bubble is parameterized by a *pressure level*; higher pressure means a
/// larger cache footprint and more memory traffic, and therefore more
/// interference inflicted on whatever shares the node. Pressure is
/// continuous so that measured *bubble scores* (the pressure-equivalent of
/// a real application, Table 4 of the paper) can take fractional values
/// such as 4.3.
///
/// # Example
///
/// ```
/// use icm_simnode::{Bubble, NodeSpec};
///
/// let bubble = Bubble::new(NodeSpec::xeon_e5_2650());
/// let mild = bubble.profile_at(1.0);
/// let severe = bubble.profile_at(8.0);
/// assert!(severe.working_set_mb() > mild.working_set_mb());
/// assert!(severe.bandwidth_gbps() > mild.bandwidth_gbps());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bubble {
    node: NodeSpec,
}

impl Bubble {
    /// Creates a bubble generator calibrated for `node`.
    pub fn new(node: NodeSpec) -> Self {
        Self { node }
    }

    /// The node this bubble is calibrated against.
    pub fn node(&self) -> NodeSpec {
        self.node
    }

    /// Memory profile of the bubble at `pressure`.
    ///
    /// Pressure 0 (or below) yields an idle profile — no bubble running.
    /// Pressure may be fractional and may exceed [`MAX_PRESSURE`]; the
    /// exponential growth simply continues.
    ///
    /// # Panics
    ///
    /// Panics if `pressure` is NaN or infinite.
    pub fn profile_at(&self, pressure: f64) -> MemoryProfile {
        assert!(pressure.is_finite(), "bubble pressure must be finite");
        if pressure <= 0.0 {
            return MemoryProfile::idle();
        }
        let ws = self.node.llc_mb() * WS_BASE_FRAC * 2f64.powf(pressure / WS_DOUBLING);
        let bw = self.node.membw_gbps() * BW_BASE_FRAC * 2f64.powf(pressure / BW_DOUBLING);
        MemoryProfile::builder()
            .working_set_mb(ws)
            .access_weight(ACCESS_WEIGHT)
            .bandwidth_gbps(bw)
            .miss_bandwidth_gbps(self.node.membw_gbps() * MISS_BW_FRAC)
            .cache_sensitivity(CACHE_SENSITIVITY)
            .bandwidth_sensitivity(BANDWIDTH_SENSITIVITY)
            .build()
            .expect("bubble parameters are always valid for finite positive pressure")
    }

    /// Profile of the low-pressure *reporter* bubble used to measure how
    /// much interference another application generates (its bubble score).
    ///
    /// The reporter must be sensitive (so it registers interference) but
    /// light (so it does not meaningfully perturb the application being
    /// scored); the paper uses the bubble program itself in this role.
    pub fn reporter(&self) -> MemoryProfile {
        MemoryProfile::builder()
            .working_set_mb(self.node.llc_mb() * 0.50)
            .access_weight(0.8)
            .bandwidth_gbps(self.node.membw_gbps() * 0.02)
            .miss_bandwidth_gbps(self.node.membw_gbps() * 0.20)
            .cache_sensitivity(CACHE_SENSITIVITY)
            .bandwidth_sensitivity(BANDWIDTH_SENSITIVITY)
            .build()
            .expect("reporter parameters are always valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::solve_contention;

    fn bubble() -> Bubble {
        Bubble::new(NodeSpec::xeon_e5_2650())
    }

    #[test]
    fn zero_pressure_is_idle() {
        let p = bubble().profile_at(0.0);
        assert_eq!(p, MemoryProfile::idle());
    }

    #[test]
    fn negative_pressure_is_idle() {
        let p = bubble().profile_at(-3.0);
        assert_eq!(p, MemoryProfile::idle());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_pressure_panics() {
        let _ = bubble().profile_at(f64::NAN);
    }

    #[test]
    fn demand_grows_monotonically_with_pressure() {
        let b = bubble();
        let mut last_ws = 0.0;
        let mut last_bw = 0.0;
        for step in 1..=16 {
            let p = b.profile_at(f64::from(step) * 0.5);
            assert!(p.working_set_mb() > last_ws);
            assert!(p.bandwidth_gbps() > last_bw);
            last_ws = p.working_set_mb();
            last_bw = p.bandwidth_gbps();
        }
    }

    #[test]
    fn pressure_step_doubles_working_set_per_calibration() {
        let b = bubble();
        let p_lo = b.profile_at(2.0);
        let p_hi = b.profile_at(2.0 + WS_DOUBLING);
        let ratio = p_hi.working_set_mb() / p_lo.working_set_mb();
        assert!(
            (ratio - 2.0).abs() < 1e-9,
            "working set must double every ws_doubling levels, got ×{ratio}"
        );
    }

    #[test]
    fn max_pressure_overwhelms_llc() {
        let b = bubble();
        let p = b.profile_at(f64::from(MAX_PRESSURE));
        assert!(
            p.working_set_mb() > b.node().llc_mb(),
            "pressure 8 must demand more than the whole LLC"
        );
    }

    #[test]
    fn reporter_is_lighter_than_high_pressure_bubble() {
        let b = bubble();
        let reporter = b.reporter();
        let severe = b.profile_at(8.0);
        assert!(reporter.working_set_mb() < severe.working_set_mb());
        assert!(reporter.bandwidth_gbps() < severe.bandwidth_gbps());
        assert!(
            reporter.cache_sensitivity() > 0.0,
            "reporter must be sensitive"
        );
    }

    #[test]
    fn reporter_slowdown_monotone_in_bubble_pressure() {
        // The reporter-vs-bubble sensitivity curve is the basis of the
        // bubble-score inversion, so it must be strictly usable: monotone
        // non-decreasing in pressure.
        let b = bubble();
        let node = b.node();
        let reporter = b.reporter();
        let mut last = 0.0;
        for level in 0..=MAX_PRESSURE {
            let sd = solve_contention(&node, &[reporter, b.profile_at(f64::from(level))])[0];
            assert!(
                sd >= last - 1e-12,
                "reporter slowdown regressed at pressure {level}: {sd} < {last}"
            );
            last = sd;
        }
        assert!(last > 1.05, "pressure 8 must visibly slow the reporter");
    }
}
