//! The profiling algorithms of §4.1–4.2: *binary-brute* (Algorithm 1),
//! *binary-optimized* (Algorithm 2) and the *random-k%* baselines.
//!
//! All of them build a [`PropagationMatrix`] from selectively measured
//! interference settings. A *setting* is a pair `(pressure i, interfering
//! nodes j)` with `j ≥ 1`; the profiling **cost** is the fraction of the
//! `n × m` settings actually measured (settings with `j = 0` are free —
//! they are the solo run).

use icm_obs::{Tracer, Value};
use icm_rng::{Rng, Shuffle};

use crate::error::ModelError;
use crate::propagation::PropagationMatrix;

/// Source of normalized runtime measurements for profiling: "run the
/// application with `nodes` hosts under a bubble of integer `pressure`
/// and report runtime / solo-runtime".
///
/// Implemented over the simulated testbed by `icm-workloads`; any struct
/// (or a closure via [`FnSource`]) can stand in for tests.
pub trait ProfileSource {
    /// Number of hosts `m` the application spans.
    fn hosts(&self) -> usize;
    /// Number of bubble pressure levels `n`.
    fn max_pressure(&self) -> usize;
    /// Measures the normalized runtime at `(pressure, nodes)`;
    /// `pressure ∈ 1..=n`, `nodes ∈ 1..=m`.
    ///
    /// # Errors
    ///
    /// Propagates testbed failures.
    fn measure(&mut self, pressure: usize, nodes: usize) -> Result<f64, ModelError>;
}

/// Adapts a closure into a [`ProfileSource`] (handy in tests and benches).
#[derive(Debug)]
pub struct FnSource<F> {
    hosts: usize,
    max_pressure: usize,
    f: F,
}

impl<F> FnSource<F>
where
    F: FnMut(usize, usize) -> f64,
{
    /// Wraps `f(pressure, nodes) -> normalized runtime`.
    pub fn new(max_pressure: usize, hosts: usize, f: F) -> Self {
        Self {
            hosts,
            max_pressure,
            f,
        }
    }
}

impl<F> ProfileSource for FnSource<F>
where
    F: FnMut(usize, usize) -> f64,
{
    fn hosts(&self) -> usize {
        self.hosts
    }

    fn max_pressure(&self) -> usize {
        self.max_pressure
    }

    fn measure(&mut self, pressure: usize, nodes: usize) -> Result<f64, ModelError> {
        Ok((self.f)(pressure, nodes))
    }
}

/// Which profiling algorithm to use to construct the propagation matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfilingAlgorithm {
    /// Algorithm 1: binary search along the node axis of *every* pressure
    /// row. Most accurate, most expensive.
    BinaryBrute,
    /// Algorithm 2: binary-profile only the top-pressure row and the
    /// max-nodes column, then infer every other cell by the proportional
    /// product formula. Cheapest.
    BinaryOptimized,
    /// Measure a random fraction of all settings (plus the per-row
    /// max-node anchors) and interpolate the rest. The paper evaluates
    /// 30% and 50%.
    RandomFraction(f64),
    /// Measure every setting (ground truth; cost 100%).
    Full,
}

impl icm_json::ToJson for ProfilingAlgorithm {
    fn write_json(&self, out: &mut String) {
        match *self {
            ProfilingAlgorithm::BinaryBrute => out.push_str("\"BinaryBrute\""),
            ProfilingAlgorithm::BinaryOptimized => out.push_str("\"BinaryOptimized\""),
            ProfilingAlgorithm::Full => out.push_str("\"Full\""),
            ProfilingAlgorithm::RandomFraction(f) => {
                icm_json::write_object(out, [("RandomFraction", &f)]);
            }
        }
    }
}

impl icm_json::FromJson for ProfilingAlgorithm {
    fn read_json(r: &mut icm_json::Reader<'_>) -> Result<Self, icm_json::JsonError> {
        icm_json::read_variant(r, "ProfilingAlgorithm", |name, body| match (name, body) {
            ("BinaryBrute", None) => Ok(ProfilingAlgorithm::BinaryBrute),
            ("BinaryOptimized", None) => Ok(ProfilingAlgorithm::BinaryOptimized),
            ("Full", None) => Ok(ProfilingAlgorithm::Full),
            ("RandomFraction", Some(r)) => Ok(ProfilingAlgorithm::RandomFraction(
                icm_json::FromJson::read_json(r)?,
            )),
            _ => Err(icm_json::unknown_variant("ProfilingAlgorithm", name)),
        })
    }
}

impl ProfilingAlgorithm {
    /// The paper's random-30% baseline.
    pub fn random30() -> Self {
        ProfilingAlgorithm::RandomFraction(0.30)
    }

    /// The paper's random-50% baseline.
    pub fn random50() -> Self {
        ProfilingAlgorithm::RandomFraction(0.50)
    }

    /// Display name used in tables.
    pub fn name(&self) -> String {
        match self {
            ProfilingAlgorithm::BinaryBrute => "binary-brute".into(),
            ProfilingAlgorithm::BinaryOptimized => "binary-optimized".into(),
            ProfilingAlgorithm::RandomFraction(f) => format!("random-{:.0}%", f * 100.0),
            ProfilingAlgorithm::Full => "full".into(),
        }
    }
}

/// Tuning knobs for the profiling algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerConfig {
    /// Binary-search refinement threshold: if two measured endpoints of a
    /// span differ by less than this (normalized time), the interior is
    /// interpolated instead of measured.
    pub epsilon: f64,
    /// Seed for the random-fraction cell selection.
    pub seed: u64,
}

icm_json::impl_json!(struct ProfilerConfig { epsilon, seed });

impl Default for ProfilerConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.04,
            seed: 0x1C4E,
        }
    }
}

/// Output of a profiling run: the constructed matrix plus cost
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileResult {
    /// The constructed propagation matrix.
    pub matrix: PropagationMatrix,
    /// The `(pressure, nodes)` settings actually measured.
    pub measured: Vec<(usize, usize)>,
    /// `measured.len() / (n × m)` — the paper's profiling-cost metric.
    pub cost: f64,
}

icm_json::impl_json!(struct ProfileResult { matrix, measured, cost });

/// Runs `algorithm` against `source` and constructs the propagation
/// matrix.
///
/// The run is wrapped in a `profile` span on `tracer` and, once the
/// matrix is fitted, one `probe` event is emitted per measured setting
/// carrying the measured slowdown and the fitted-curve residual (fitted
/// − measured; non-zero where the matrix floored a noisy sub-unity
/// measurement). A disabled tracer records nothing.
///
/// # Errors
///
/// Propagates measurement failures, and returns
/// [`ModelError::InvalidData`] if the measured values cannot form a valid
/// matrix.
pub fn profile(
    source: &mut dyn ProfileSource,
    algorithm: ProfilingAlgorithm,
    config: &ProfilerConfig,
    tracer: &Tracer,
) -> Result<ProfileResult, ModelError> {
    let n = source.max_pressure();
    let m = source.hosts();
    if n == 0 || m == 0 {
        return Err(ModelError::Profiling(format!(
            "degenerate profiling space: {n} pressures × {m} hosts"
        )));
    }
    let span = if tracer.enabled() {
        Some(tracer.span(
            "profile",
            &[
                ("algorithm", Value::from(algorithm.name())),
                ("pressures", Value::from(n)),
                ("hosts", Value::from(m)),
            ],
        ))
    } else {
        None
    };
    let mut grid = Grid::new(n, m);
    match algorithm {
        ProfilingAlgorithm::BinaryBrute => {
            for i in 1..=n {
                grid.measure(source, i, m)?;
                grid.binary_fill_row(source, i, 0, m, config.epsilon)?;
                grid.interpolate_row(i);
            }
        }
        ProfilingAlgorithm::BinaryOptimized => {
            grid.measure(source, 1, m)?;
            grid.measure(source, n, m)?;
            // Top-pressure row, binary refined then interpolated.
            grid.binary_fill_row(source, n, 0, m, config.epsilon)?;
            grid.interpolate_row(n);
            // Max-nodes column, binary refined then interpolated.
            grid.binary_fill_col(source, m, 1, n, config.epsilon)?;
            grid.interpolate_col(m);
            // Everything else by the proportional product formula.
            grid.interpolate_all_proportional();
        }
        ProfilingAlgorithm::RandomFraction(fraction) => {
            if !(0.0..=1.0).contains(&fraction) {
                return Err(ModelError::Profiling(format!(
                    "random fraction must be in [0,1], got {fraction}"
                )));
            }
            // Anchors: every row's max-nodes cell is always measured so
            // each sensitivity curve is pinned at both ends (§4.2).
            for i in 1..=n {
                grid.measure(source, i, m)?;
            }
            let target = ((fraction * (n * m) as f64).round() as usize).max(n);
            let mut remaining: Vec<(usize, usize)> =
                (1..=n).flat_map(|i| (1..m).map(move |j| (i, j))).collect();
            let mut rng = Rng::from_seed(config.seed);
            remaining.shuffle(&mut rng);
            for (i, j) in remaining {
                if grid.measured_count() >= target {
                    break;
                }
                grid.measure(source, i, j)?;
            }
            for i in 1..=n {
                grid.interpolate_row(i);
            }
        }
        ProfilingAlgorithm::Full => {
            for i in 1..=n {
                for j in 1..=m {
                    grid.measure(source, i, j)?;
                }
            }
        }
    }
    let result = grid.finish(tracer)?;
    if let Some(span) = span {
        span.end_with(&[
            ("probes", Value::from(result.measured.len())),
            ("cost", Value::from(result.cost)),
        ]);
    }
    Ok(result)
}

/// Partially-filled matrix under construction.
struct Grid {
    n: usize,
    m: usize,
    /// cells[i-1][j] for pressures i in 1..=n, nodes j in 0..=m.
    cells: Vec<Vec<Option<f64>>>,
    measured: Vec<(usize, usize)>,
    /// Raw (pre-floor) measurement per `measured` entry, kept so the
    /// trace can report fitted-curve residuals.
    raw: Vec<f64>,
}

impl Grid {
    fn new(n: usize, m: usize) -> Self {
        let mut cells = vec![vec![None; m + 1]; n];
        for row in &mut cells {
            row[0] = Some(1.0); // no interfering nodes → normalized 1
        }
        Self {
            n,
            m,
            cells,
            measured: Vec::new(),
            raw: Vec::new(),
        }
    }

    fn get(&self, i: usize, j: usize) -> Option<f64> {
        self.cells[i - 1][j]
    }

    fn set(&mut self, i: usize, j: usize, v: f64) {
        self.cells[i - 1][j] = Some(v);
    }

    fn measured_count(&self) -> usize {
        self.measured.len()
    }

    fn measure(
        &mut self,
        source: &mut dyn ProfileSource,
        i: usize,
        j: usize,
    ) -> Result<f64, ModelError> {
        if let Some(v) = self.get(i, j) {
            return Ok(v);
        }
        let v = source.measure(i, j)?;
        if !v.is_finite() || v <= 0.0 {
            return Err(ModelError::Profiling(format!(
                "measurement at pressure {i}, nodes {j} returned {v}"
            )));
        }
        // Normalized times can dip slightly below 1 from noise; floor them
        // so matrix validation holds.
        self.set(i, j, v.max(0.95));
        self.measured.push((i, j));
        self.raw.push(v);
        Ok(v)
    }

    /// Binary subdivision along the node axis of row `i` between measured
    /// endpoints `lo` and `hi`.
    fn binary_fill_row(
        &mut self,
        source: &mut dyn ProfileSource,
        i: usize,
        lo: usize,
        hi: usize,
        epsilon: f64,
    ) -> Result<(), ModelError> {
        if hi - lo <= 1 {
            return Ok(());
        }
        let lo_v = self.get(i, lo).expect("endpoint measured");
        let hi_v = self.get(i, hi).expect("endpoint measured");
        if (hi_v - lo_v).abs() <= epsilon {
            return Ok(());
        }
        let mid = (lo + hi) / 2;
        self.measure(source, i, mid)?;
        self.binary_fill_row(source, i, lo, mid, epsilon)?;
        self.binary_fill_row(source, i, mid, hi, epsilon)
    }

    /// Binary subdivision along the pressure axis of column `j` between
    /// measured endpoints `lo` and `hi` (pressure indices).
    fn binary_fill_col(
        &mut self,
        source: &mut dyn ProfileSource,
        j: usize,
        lo: usize,
        hi: usize,
        epsilon: f64,
    ) -> Result<(), ModelError> {
        if hi - lo <= 1 {
            return Ok(());
        }
        let lo_v = self.get(lo, j).expect("endpoint measured");
        let hi_v = self.get(hi, j).expect("endpoint measured");
        if (hi_v - lo_v).abs() <= epsilon {
            return Ok(());
        }
        let mid = (lo + hi) / 2;
        self.measure(source, mid, j)?;
        self.binary_fill_col(source, j, lo, mid, epsilon)?;
        self.binary_fill_col(source, j, mid, hi, epsilon)
    }

    /// Fills unmeasured cells of row `i` by linear interpolation between
    /// the nearest measured neighbours (function `interpolate_row` of
    /// Algorithm 1).
    fn interpolate_row(&mut self, i: usize) {
        let known: Vec<(usize, f64)> = (0..=self.m)
            .filter_map(|j| self.get(i, j).map(|v| (j, v)))
            .collect();
        debug_assert!(!known.is_empty());
        for j in 0..=self.m {
            if self.get(i, j).is_some() {
                continue;
            }
            self.set(i, j, interpolate_from_known(&known, j, self.m));
        }
    }

    /// Fills unmeasured cells of column `j` likewise (`interpolate_col`
    /// of Algorithm 2).
    fn interpolate_col(&mut self, j: usize) {
        let known: Vec<(usize, f64)> = (1..=self.n)
            .filter_map(|i| self.get(i, j).map(|v| (i, v)))
            .collect();
        debug_assert!(!known.is_empty());
        for i in 1..=self.n {
            if self.get(i, j).is_some() {
                continue;
            }
            self.set(i, j, interpolate_from_known(&known, i, self.n));
        }
    }

    /// `interpolate_all` of Algorithm 2:
    /// `T[i][j] = 1 + (T[i][m]−1)·(T[n][j]−1)/(T[n][m]−1)`,
    /// exploiting that curve *shapes* are similar across pressures.
    ///
    /// If the application is interference-insensitive (`T[n][m] ≈ 1`) the
    /// formula degenerates; cells then fall back to proportional scaling
    /// by node count.
    fn interpolate_all_proportional(&mut self) {
        let t_nm = self.get(self.n, self.m).expect("corner measured");
        for i in 1..=self.n {
            let t_im = self.get(i, self.m).expect("column m filled");
            for j in 1..self.m {
                if self.get(i, j).is_some() {
                    continue;
                }
                let v = if (t_nm - 1.0).abs() > 1e-6 {
                    let t_nj = self.get(self.n, j).expect("row n filled");
                    1.0 + (t_im - 1.0) * (t_nj - 1.0) / (t_nm - 1.0)
                } else {
                    1.0 + (t_im - 1.0) * j as f64 / self.m as f64
                };
                self.set(i, j, v.max(0.95));
            }
        }
    }

    fn finish(self, tracer: &Tracer) -> Result<ProfileResult, ModelError> {
        // Wall side channel only (fit cost never enters the trace).
        let _fit_scope = tracer.wall_scope("profile.fit");
        let n = self.n;
        let m = self.m;
        let raw = self.raw;
        let rows: Vec<Vec<f64>> = self
            .cells
            .into_iter()
            .enumerate()
            .map(|(idx, row)| {
                row.into_iter()
                    .enumerate()
                    .map(|(j, v)| {
                        v.ok_or_else(|| {
                            ModelError::Profiling(format!(
                                "cell at pressure {}, nodes {j} left unfilled",
                                idx + 1
                            ))
                        })
                    })
                    .collect::<Result<Vec<f64>, ModelError>>()
            })
            .collect::<Result<_, _>>()?;
        let matrix = PropagationMatrix::new(rows)?;
        let cost = self.measured.len() as f64 / (n * m) as f64;
        if tracer.enabled() {
            // One event per probe, in measurement order: residuals are
            // computed against the *fitted* matrix, so they expose both
            // the 0.95 noise floor and any later smoothing.
            for (&(i, j), &measured) in self.measured.iter().zip(&raw) {
                let fitted = matrix.at(i, j);
                tracer.event(
                    "probe",
                    &[
                        ("pressure", Value::from(i)),
                        ("nodes", Value::from(j)),
                        ("slowdown", Value::from(measured)),
                        ("fitted", Value::from(fitted)),
                        ("residual", Value::from(fitted - measured)),
                    ],
                );
            }
        }
        Ok(ProfileResult {
            matrix,
            measured: self.measured,
            cost,
        })
    }
}

/// Linear interpolation / extrapolation-by-clamping from known `(index,
/// value)` pairs (sorted by index) at `target`.
fn interpolate_from_known(known: &[(usize, f64)], target: usize, _max: usize) -> f64 {
    debug_assert!(!known.is_empty());
    match known.binary_search_by_key(&target, |&(idx, _)| idx) {
        Ok(pos) => known[pos].1,
        Err(pos) => {
            if pos == 0 {
                known[0].1
            } else if pos == known.len() {
                known[known.len() - 1].1
            } else {
                let (lo_i, lo_v) = known[pos - 1];
                let (hi_i, hi_v) = known[pos];
                let frac = (target - lo_i) as f64 / (hi_i - lo_i) as f64;
                lo_v * (1.0 - frac) + hi_v * frac
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic "application": high-propagation saturating curves,
    /// deterministic (noise-free), so algorithm behaviour is exactly
    /// checkable.
    fn saturating_truth(pressure: usize, nodes: usize) -> f64 {
        let severity = 0.15 * pressure as f64;
        let frac = (nodes as f64 / 8.0).powf(0.25);
        1.0 + severity * frac
    }

    /// Linear (proportional-propagation) curves.
    fn linear_truth(pressure: usize, nodes: usize) -> f64 {
        1.0 + 0.05 * pressure as f64 * nodes as f64 / 8.0
    }

    fn source_of(f: fn(usize, usize) -> f64) -> FnSource<impl FnMut(usize, usize) -> f64> {
        FnSource::new(8, 8, f)
    }

    fn truth_matrix(f: fn(usize, usize) -> f64) -> PropagationMatrix {
        let mut src = source_of(f);
        profile(
            &mut src,
            ProfilingAlgorithm::Full,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("full profile")
        .matrix
    }

    #[test]
    fn full_profile_has_unit_cost_and_zero_error() {
        let mut src = source_of(saturating_truth);
        let result = profile(
            &mut src,
            ProfilingAlgorithm::Full,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        assert_eq!(result.cost, 1.0);
        assert_eq!(result.measured.len(), 64);
        let truth = truth_matrix(saturating_truth);
        assert_eq!(
            result.matrix.mean_abs_error_pct(&truth).expect("shape"),
            0.0
        );
    }

    #[test]
    fn binary_brute_is_accurate_and_cheaper_than_full() {
        let mut src = source_of(saturating_truth);
        let result = profile(
            &mut src,
            ProfilingAlgorithm::BinaryBrute,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        let truth = truth_matrix(saturating_truth);
        let err = result.matrix.mean_abs_error_pct(&truth).expect("shape");
        assert!(err < 1.0, "binary-brute error should be tiny, got {err}%");
        assert!(
            result.cost < 1.0,
            "must skip some settings, cost {}",
            result.cost
        );
        assert!(result.cost > 0.2);
    }

    #[test]
    fn binary_optimized_is_cheapest() {
        let mut brute_src = source_of(saturating_truth);
        let brute = profile(
            &mut brute_src,
            ProfilingAlgorithm::BinaryBrute,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        let mut opt_src = source_of(saturating_truth);
        let opt = profile(
            &mut opt_src,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        assert!(
            opt.cost < brute.cost,
            "optimized ({}) must cost less than brute ({})",
            opt.cost,
            brute.cost
        );
        let truth = truth_matrix(saturating_truth);
        let err = opt.matrix.mean_abs_error_pct(&truth).expect("shape");
        assert!(err < 5.0, "optimized error stays moderate, got {err}%");
    }

    #[test]
    fn binary_optimized_exact_on_separable_curves() {
        // The product formula is exact when (T[i][j]-1) separates into a
        // pressure factor times a node factor — as in linear_truth.
        let mut src = source_of(linear_truth);
        let result = profile(
            &mut src,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig {
                epsilon: 0.0001,
                seed: 0,
            },
            &Tracer::disabled(),
        )
        .expect("profiles");
        let truth = truth_matrix(linear_truth);
        let err = result.matrix.mean_abs_error_pct(&truth).expect("shape");
        assert!(err < 0.01, "got {err}%");
    }

    #[test]
    fn random_fraction_hits_cost_target() {
        for fraction in [0.30, 0.50] {
            let mut src = source_of(saturating_truth);
            let result = profile(
                &mut src,
                ProfilingAlgorithm::RandomFraction(fraction),
                &ProfilerConfig::default(),
                &Tracer::disabled(),
            )
            .expect("profiles");
            assert!(
                (result.cost - fraction).abs() < 0.14,
                "cost {} should be near {fraction}",
                result.cost
            );
        }
    }

    #[test]
    fn random_profiles_always_pin_row_anchors() {
        let mut src = source_of(saturating_truth);
        let result = profile(
            &mut src,
            ProfilingAlgorithm::RandomFraction(0.30),
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        for i in 1..=8 {
            assert!(
                result.measured.contains(&(i, 8)),
                "row {i} must anchor its max-nodes cell"
            );
        }
    }

    #[test]
    fn random_selection_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut src = source_of(saturating_truth);
            profile(
                &mut src,
                ProfilingAlgorithm::RandomFraction(0.30),
                &ProfilerConfig {
                    epsilon: 0.04,
                    seed,
                },
                &Tracer::disabled(),
            )
            .expect("profiles")
            .measured
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn accuracy_ordering_matches_paper() {
        // Table 3: all smart algorithms are accurate; more random samples
        // beat fewer. (Binary-optimized can even be exact when the truth
        // separates into pressure × node factors, so no brute-vs-optimized
        // ordering is asserted — only that both stay tight.)
        let truth = truth_matrix(saturating_truth);
        let err_of = |alg: ProfilingAlgorithm| {
            let mut src = source_of(saturating_truth);
            let result = profile(
                &mut src,
                alg,
                &ProfilerConfig::default(),
                &Tracer::disabled(),
            )
            .expect("profiles");
            result.matrix.mean_abs_error_pct(&truth).expect("shape")
        };
        let brute = err_of(ProfilingAlgorithm::BinaryBrute);
        let opt = err_of(ProfilingAlgorithm::BinaryOptimized);
        let r50 = err_of(ProfilingAlgorithm::random50());
        let r30 = err_of(ProfilingAlgorithm::random30());
        assert!(brute < 1.0, "brute error {brute}%");
        assert!(opt < 3.0, "optimized error {opt}%");
        assert!(r50 <= r30 + 1e-9, "random50 {r50} ≤ random30 {r30}");
    }

    #[test]
    fn cost_ordering_matches_paper() {
        let cost_of = |alg: ProfilingAlgorithm| {
            let mut src = source_of(saturating_truth);
            profile(
                &mut src,
                alg,
                &ProfilerConfig::default(),
                &Tracer::disabled(),
            )
            .expect("profiles")
            .cost
        };
        let brute = cost_of(ProfilingAlgorithm::BinaryBrute);
        let opt = cost_of(ProfilingAlgorithm::BinaryOptimized);
        let r50 = cost_of(ProfilingAlgorithm::random50());
        let r30 = cost_of(ProfilingAlgorithm::random30());
        assert!(opt < r30, "optimized {opt} is the cheapest (r30 {r30})");
        assert!(r30 < r50);
        assert!(
            r50 < brute || brute < 0.7,
            "brute is the most expensive of the smart ones"
        );
    }

    #[test]
    fn flat_application_profiles_cheaply() {
        // An interference-insensitive app: binary search terminates
        // immediately everywhere.
        let mut src = FnSource::new(8, 8, |_i, _j| 1.0);
        let result = profile(
            &mut src,
            ProfilingAlgorithm::BinaryBrute,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        assert!(
            result.cost <= (8.0 * 1.0) / 64.0 + 1e-9,
            "one measurement per row suffices, cost {}",
            result.cost
        );
        let truth = truth_matrix(|_, _| 1.0);
        assert_eq!(
            result.matrix.mean_abs_error_pct(&truth).expect("shape"),
            0.0
        );
    }

    #[test]
    fn insensitive_app_survives_optimized_degenerate_formula() {
        let mut src = FnSource::new(8, 8, |_i, _j| 1.0);
        let result = profile(
            &mut src,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        for i in 1..=8 {
            for j in 0..=8 {
                assert!((result.matrix.at(i, j) - 1.0).abs() < 0.06);
            }
        }
    }

    #[test]
    fn measurement_errors_propagate() {
        let mut src = FnSource::new(8, 8, |_i, _j| f64::NAN);
        let err = profile(
            &mut src,
            ProfilingAlgorithm::BinaryBrute,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::Profiling(_)));
    }

    #[test]
    fn bad_random_fraction_rejected() {
        let mut src = source_of(saturating_truth);
        assert!(profile(
            &mut src,
            ProfilingAlgorithm::RandomFraction(1.5),
            &ProfilerConfig::default(),
            &Tracer::disabled()
        )
        .is_err());
    }

    #[test]
    fn degenerate_space_rejected() {
        let mut src = FnSource::new(0, 8, |_i, _j| 1.0);
        assert!(profile(
            &mut src,
            ProfilingAlgorithm::Full,
            &ProfilerConfig::default(),
            &Tracer::disabled()
        )
        .is_err());
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(ProfilingAlgorithm::BinaryBrute.name(), "binary-brute");
        assert_eq!(
            ProfilingAlgorithm::BinaryOptimized.name(),
            "binary-optimized"
        );
        assert_eq!(ProfilingAlgorithm::random30().name(), "random-30%");
        assert_eq!(ProfilingAlgorithm::Full.name(), "full");
    }

    #[test]
    fn traced_profile_emits_one_probe_event_per_measurement() {
        let (tracer, recorder) = icm_obs::Tracer::recording(4096);
        let mut src = source_of(saturating_truth);
        let result = profile(
            &mut src,
            ProfilingAlgorithm::BinaryBrute,
            &ProfilerConfig::default(),
            &tracer,
        )
        .expect("profiles");
        let events = recorder.events();
        assert_eq!(events[0].name, "profile.begin");
        assert_eq!(events[0].str("algorithm"), Some("binary-brute"));
        let probes: Vec<_> = events.iter().filter(|e| e.name == "probe").collect();
        assert_eq!(probes.len(), result.measured.len());
        for (probe, &(i, j)) in probes.iter().zip(&result.measured) {
            assert_eq!(probe.num("pressure"), Some(i as f64));
            assert_eq!(probe.num("nodes"), Some(j as f64));
            let slowdown = probe.num("slowdown").expect("field");
            let fitted = probe.num("fitted").expect("field");
            let residual = probe.num("residual").expect("field");
            assert!((residual - (fitted - slowdown)).abs() < 1e-12);
            assert_eq!(fitted, result.matrix.at(i, j));
        }
        let end = events.last().expect("events");
        assert_eq!(end.name, "profile.end");
        assert_eq!(end.num("probes"), Some(result.measured.len() as f64));
        assert_eq!(end.num("cost"), Some(result.cost));
    }

    #[test]
    fn traced_profile_reports_floor_residuals() {
        // A sub-unity measurement is floored at 0.95 by the grid, so the
        // fitted value differs from the raw one — exactly what the
        // residual field must expose.
        let (tracer, recorder) = icm_obs::Tracer::recording(4096);
        let mut src = FnSource::new(2, 2, |_i, _j| 0.90);
        let _ = profile(
            &mut src,
            ProfilingAlgorithm::Full,
            &ProfilerConfig::default(),
            &tracer,
        )
        .expect("profiles");
        let probe = recorder
            .events()
            .into_iter()
            .find(|e| e.name == "probe")
            .expect("probe event");
        assert_eq!(probe.num("slowdown"), Some(0.90));
        assert_eq!(probe.num("fitted"), Some(0.95));
        assert!((probe.num("residual").expect("field") - 0.05).abs() < 1e-12);
    }

    #[test]
    fn tracing_does_not_change_profiling_results() {
        let run = |tracer: &icm_obs::Tracer| {
            let mut src = source_of(saturating_truth);
            profile(
                &mut src,
                ProfilingAlgorithm::BinaryOptimized,
                &ProfilerConfig::default(),
                tracer,
            )
            .expect("profiles")
        };
        let (tracer, _recorder) = icm_obs::Tracer::recording(4096);
        assert_eq!(run(&icm_obs::Tracer::disabled()), run(&tracer));
    }

    #[test]
    fn never_measures_a_setting_twice() {
        let mut calls = std::collections::HashSet::new();
        let mut duplicate = false;
        {
            let mut src = FnSource::new(8, 8, |i, j| {
                if !calls.insert((i, j)) {
                    duplicate = true;
                }
                saturating_truth(i, j)
            });
            let _ = profile(
                &mut src,
                ProfilingAlgorithm::BinaryBrute,
                &ProfilerConfig::default(),
                &Tracer::disabled(),
            )
            .expect("profiles");
        }
        assert!(!duplicate, "a setting was measured more than once");
    }
}
