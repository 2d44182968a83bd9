//! Delta-energy evaluation of placement searches.
//!
//! The paper's pressure model is *locally decomposable*: swapping the
//! occupants of two slots only changes the co-runner pressure on those
//! slots' two hosts, so every other workload's predicted runtime is
//! unchanged — bit for bit, because the untouched pressure vectors are
//! produced by the same operations in the same order. The
//! [`IncrementalObjective`] caches per-workload slot lists, pressure
//! vectors and predicted times for the committed state and, on each
//! probed swap, recomputes only the workloads resident on the two
//! affected hosts (at the paper's 8×2×4 shape: at most 4 of the
//! workloads' pressure vectors instead of all of them, and zero heap
//! allocation).
//!
//! The contract with the full path is *exact* f64 equality, not
//! approximate: a debug assertion in [`Objective::probe`] recomputes
//! every probe through [`Estimator::estimate`]-equivalent code and
//! compares bit patterns, and the test suite sweeps random move
//! sequences across problem shapes doing the same. At search level,
//! [`anneal_estimator`] is checked to return exactly what the engine
//! returns over a test-only objective that recomputes the goal from
//! scratch on every probe.
//!
//! The objective remembers nothing across probes beyond the committed
//! state: a neighbour the walk redraws before its next accepted move is
//! answered by the search engine's probe memo (see
//! [`crate::anneal_with`]) and never reaches [`Objective::probe`].

use crate::dense::{AppId, DenseMap};
use crate::error::PlacementError;
use crate::estimator::Estimator;
use crate::objective::{Eval, Objective};
use crate::state::PlacementState;

/// What an [`IncrementalObjective`] optimizes — the placement goals the
/// crate's entry points search for, expressed as data so they all share
/// one delta-evaluation engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchGoal {
    /// Minimize the weighted total normalized runtime (the §5.3 "best"
    /// placement, [`crate::find_placements`]).
    MinWeightedTotal,
    /// Maximize the weighted total (the §5.3 "worst" placement — run as
    /// minimization of the negated total).
    MaxWeightedTotal,
    /// Minimize predicted wasted node-seconds
    /// ([`crate::place_min_waste`]).
    MinWaste,
    /// Minimize the weighted total subject to the §5.2 QoS constraint on
    /// one target workload ([`crate::place_qos`]).
    Qos {
        /// Workload index the QoS guarantee applies to.
        target: usize,
        /// Maximum allowed normalized runtime of the target.
        max_normalized: f64,
    },
}

impl SearchGoal {
    fn validate(self, estimator: &Estimator<'_>) -> Result<(), PlacementError> {
        if let SearchGoal::Qos {
            target,
            max_normalized,
        } = self
        {
            let workloads = estimator.problem().workloads().len();
            if target >= workloads {
                return Err(PlacementError::Predictor(format!(
                    "QoS target index {target} out of range ({workloads} workloads)"
                )));
            }
            if !(max_normalized.is_finite() && max_normalized > 0.0) {
                return Err(PlacementError::Predictor(format!(
                    "QoS bound must be positive and finite, got {max_normalized}"
                )));
            }
        }
        Ok(())
    }
}

/// An [`Objective`] over an [`Estimator`] that evaluates swaps by
/// recomputing only the two affected hosts' pressure terms. Every
/// probe equals the full recompute bit for bit (exact `f64` equality),
/// which a debug assertion in `probe` and the test suite check.
pub struct IncrementalObjective<'a> {
    estimator: &'a Estimator<'a>,
    goal: SearchGoal,
    // Committed-state caches in flat stride-`span` layout (every
    // workload has exactly `span` units, a shape invariant): workload
    // `w` owns `units[w*span..(w+1)*span]` — its slots, ascending — and
    // the matching `pressures` range; `times` is per-workload.
    span: usize,
    units: Vec<usize>,
    pressures: Vec<f64>,
    times: DenseMap<AppId, f64>,
    // Speculative state for the probe awaiting accept/reject, in the
    // same flat layout at the same offsets: a touched workload's
    // candidate values live exactly where its committed values do, so
    // the `touched` list is the only side index.
    touched: Vec<AppId>,
    spec_pressures: Vec<f64>,
    spec_times: DenseMap<AppId, f64>,
    // Whether the touched workload's slot list changed (it occupied one
    // of the swapped slots). A mover's candidate unit list is *not*
    // materialized: it differs from the committed one by a single
    // remove/insert recorded in `spec_shift` as
    // `(old_pos, new_pos, dest)`, applied to `units` only on accept.
    spec_moved: DenseMap<AppId, bool>,
    spec_shift: DenseMap<AppId, (usize, usize, usize)>,
    // `stamp[w] == generation` marks `w` as touched by the current
    // probe — a dense O(1) membership test with no per-probe clearing.
    stamp: DenseMap<AppId, u64>,
    generation: u64,
    scores: Vec<f64>,
    // Per-workload constants snapshotted at reset: the predictors'
    // bubble scores (so pressure recomputation skips the virtual call
    // per co-runner), their `2^score` terms (`0.0` for inactive scores,
    // so the probe never runs `powf` — see
    // [`Estimator::combined_pressure_pow`]) and solo runtimes (for the
    // waste fold).
    score_of: Vec<f64>,
    pow_of: Vec<f64>,
    log_of: Vec<f64>,
    solo_of: Vec<f64>,
    /// Slot → host, precomputed so the probe never divides.
    host_of: Vec<usize>,
}

impl<'a> IncrementalObjective<'a> {
    /// Builds the objective, validating the goal against the estimator.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Predictor`] for an out-of-range QoS
    /// target or a degenerate QoS bound.
    pub fn new(estimator: &'a Estimator<'a>, goal: SearchGoal) -> Result<Self, PlacementError> {
        goal.validate(estimator)?;
        Ok(Self::prepared(estimator, goal))
    }

    /// Builds the objective for a goal already validated against this
    /// estimator.
    pub(crate) fn prepared(estimator: &'a Estimator<'a>, goal: SearchGoal) -> Self {
        let problem = estimator.problem();
        let workloads = problem.workloads().len();
        let slots = problem.slots();
        Self {
            estimator,
            goal,
            span: problem.slots_per_workload(),
            units: vec![0; slots],
            pressures: vec![0.0; slots],
            times: DenseMap::new(workloads, 0.0),
            touched: Vec::new(),
            spec_pressures: vec![0.0; slots],
            spec_times: DenseMap::new(workloads, 0.0),
            spec_moved: DenseMap::new(workloads, false),
            spec_shift: DenseMap::new(workloads, (0, 0, 0)),
            stamp: DenseMap::new(workloads, 0),
            generation: 0,
            scores: Vec::new(),
            score_of: Vec::new(),
            pow_of: Vec::new(),
            log_of: Vec::new(),
            solo_of: Vec::new(),
            host_of: (0..problem.slots())
                .map(|s| problem.host_of_slot(s))
                .collect(),
        }
    }

    /// The normalized time of `w` under the current evaluation —
    /// speculative if the running probe re-evaluated it, committed
    /// otherwise.
    fn time_of(&self, w: AppId, speculative: bool) -> f64 {
        if speculative && self.stamp[w] == self.generation {
            self.spec_times[w]
        } else {
            self.times[w]
        }
    }

    /// Folds the per-workload times into the goal's cost/violation —
    /// always over *all* workloads in problem order, with the exact
    /// operation sequence of the full recompute ([`Self::full_eval`]),
    /// so the result is bit-identical to it.
    fn fold(&self, speculative: bool) -> Eval {
        let workloads = self.times.len();
        let mut total = 0.0f64;
        match self.goal {
            SearchGoal::MinWeightedTotal
            | SearchGoal::MaxWeightedTotal
            | SearchGoal::Qos { .. } => {
                for i in 0..workloads {
                    total += self.time_of(AppId(i), speculative);
                }
            }
            SearchGoal::MinWaste => {
                let slots = self.estimator.problem().slots_per_workload() as f64;
                for i in 0..workloads {
                    let t = self.time_of(AppId(i), speculative);
                    total += slots * self.solo_of[i] * (t - 1.0).max(0.0);
                }
            }
        }
        match self.goal {
            SearchGoal::MinWeightedTotal | SearchGoal::MinWaste => Eval {
                cost: total,
                violation: 0.0,
            },
            SearchGoal::MaxWeightedTotal => Eval {
                cost: -total,
                violation: 0.0,
            },
            SearchGoal::Qos {
                target,
                max_normalized,
            } => Eval {
                cost: total,
                violation: (self.time_of(AppId(target), speculative) - max_normalized).max(0.0),
            },
        }
    }

    /// The full recompute of the goal on `state` through
    /// [`Estimator::estimate`] — the ground truth the delta path is
    /// asserted against.
    fn full_eval(&self, state: &PlacementState) -> Result<Eval, PlacementError> {
        let estimate = self.estimator.estimate(state)?;
        Ok(match self.goal {
            SearchGoal::MinWeightedTotal => Eval {
                cost: estimate.weighted_total,
                violation: 0.0,
            },
            SearchGoal::MaxWeightedTotal => Eval {
                cost: -estimate.weighted_total,
                violation: 0.0,
            },
            SearchGoal::MinWaste => Eval {
                cost: crate::energy::estimate_waste(self.estimator, state)?.total_wasted,
                violation: 0.0,
            },
            SearchGoal::Qos {
                target,
                max_normalized,
            } => Eval {
                cost: estimate.weighted_total,
                violation: (estimate.normalized_times[target] - max_normalized).max(0.0),
            },
        })
    }
}

impl Objective for IncrementalObjective<'_> {
    fn reset(&mut self, state: &PlacementState) -> Result<Eval, PlacementError> {
        self.generation += 1; // invalidate any speculative stamps
        self.score_of = self.estimator.bubble_scores();
        self.pow_of = self
            .score_of
            .iter()
            .map(|&s| if s > 0.0 { 2f64.powf(s) } else { 0.0 })
            .collect();
        self.log_of = self.pow_of.iter().map(|&p| p.log2()).collect();
        self.solo_of = (0..self.times.len())
            .map(|w| self.estimator.predictor(w).solo_seconds())
            .collect();
        let span = self.span;
        // Ascending-slot fill keeps every workload's unit range sorted.
        let mut fill = vec![0usize; self.times.len()];
        for (slot, &w) in state.assignment().iter().enumerate() {
            self.units[w * span + fill[w]] = slot;
            fill[w] += 1;
        }
        for w in 0..self.times.len() {
            let base = w * span;
            for i in base..base + span {
                let slot = self.units[i];
                self.pressures[i] =
                    self.estimator
                        .combined_pressure_at(state, slot, &mut self.scores);
            }
            let time = self
                .estimator
                .predictor(w)
                .predict_normalized(&self.pressures[base..base + span])?;
            self.times[AppId(w)] = time;
        }
        let eval = self.fold(false);
        debug_assert!(
            {
                let full = self.full_eval(state)?;
                eval.cost.to_bits() == full.cost.to_bits()
                    && eval.violation.to_bits() == full.violation.to_bits()
            },
            "incremental reset diverged from the full recompute"
        );
        Ok(eval)
    }

    /// Marks the workloads resident on the two affected hosts and
    /// rebuilds their speculative pressure vectors and times.
    fn probe(
        &mut self,
        state: &PlacementState,
        a: usize,
        b: usize,
    ) -> Result<Eval, PlacementError> {
        let problem = self.estimator.problem();
        let per_host = problem.slots_per_host();
        self.generation += 1;
        self.touched.clear();

        // Every workload resident on the two affected hosts gets its
        // pressure vector rebuilt: the movers' slot lists changed, and
        // their co-residents' co-runner score order changed.
        let host_a = self.host_of[a];
        let host_b = self.host_of[b];
        let generation = self.generation;
        {
            let stamp = &mut self.stamp;
            let touched = &mut self.touched;
            let mut mark_host = |host: usize| {
                let base = host * per_host;
                for slot in base..base + per_host {
                    let app = AppId(state.workload_at(slot));
                    if stamp[app] != generation {
                        stamp[app] = generation;
                        touched.push(app);
                    }
                }
            };
            mark_host(host_a);
            if host_b != host_a {
                mark_host(host_b);
            }
        }

        // The workload that moved a→b / b→a, in the *post-swap* state.
        let moved_to_b = state.workload_at(b);
        let moved_to_a = state.workload_at(a);
        let span = self.span;
        for k in 0..self.touched.len() {
            let app = self.touched[k];
            let w = app.0;
            let base = w * span;
            let moved = w == moved_to_b || w == moved_to_a;
            self.spec_moved[app] = moved;
            // Only the entries on the two swapped hosts can change: an
            // unaffected slot's co-runner set and order are untouched,
            // so its committed pressure is bit-identical to a recompute
            // and gets copied instead.
            if moved {
                // A mover's other slots sit on unaffected hosts (one
                // slot per host per workload, and swap validity rules
                // out the destination's host), so its sorted unit list
                // changes by exactly one element — remove the vacated
                // slot, insert the destination — and only the
                // destination's pressure entry is recomputed; the rest
                // shift over, bit-identical.
                let (vacated, dest) = if w == moved_to_b { (a, b) } else { (b, a) };
                let units = &self.units[base..base + span];
                let committed = &self.pressures[base..base + span];
                let old_pos = units
                    .iter()
                    .position(|&s| s == vacated)
                    .expect("mover occupied the vacated slot");
                let new_pos = units.iter().filter(|&&s| s != vacated && s < dest).count();
                let spec_p = &mut self.spec_pressures[base..base + span];
                if new_pos >= old_pos {
                    spec_p[..old_pos].copy_from_slice(&committed[..old_pos]);
                    spec_p[old_pos..new_pos].copy_from_slice(&committed[old_pos + 1..new_pos + 1]);
                    spec_p[new_pos + 1..].copy_from_slice(&committed[new_pos + 1..]);
                } else {
                    spec_p[..new_pos].copy_from_slice(&committed[..new_pos]);
                    spec_p[new_pos + 1..old_pos + 1].copy_from_slice(&committed[new_pos..old_pos]);
                    spec_p[old_pos + 1..].copy_from_slice(&committed[old_pos + 1..]);
                }
                self.spec_shift[app] = (old_pos, new_pos, dest);
                let dest_host = self.host_of[dest];
                self.spec_pressures[base + new_pos] = self.estimator.combined_pressure_pow(
                    state,
                    dest,
                    dest_host,
                    &self.pow_of,
                    &self.log_of,
                );
            } else {
                // Co-resident: same slots, so copy the committed range
                // and recompute only the affected hosts' entries.
                let units = &self.units[base..base + span];
                let spec_p = &mut self.spec_pressures[base..base + span];
                spec_p.copy_from_slice(&self.pressures[base..base + span]);
                for (p, &slot) in spec_p.iter_mut().zip(units) {
                    let host = self.host_of[slot];
                    if host == host_a || host == host_b {
                        *p = self.estimator.combined_pressure_pow(
                            state,
                            slot,
                            host,
                            &self.pow_of,
                            &self.log_of,
                        );
                    }
                }
            }
            let time = self
                .estimator
                .predictor(w)
                .predict_normalized(&self.spec_pressures[base..base + span])?;
            self.spec_times[app] = time;
        }

        let eval = self.fold(true);
        debug_assert!(
            {
                let full = self.full_eval(state)?;
                eval.cost.to_bits() == full.cost.to_bits()
                    && eval.violation.to_bits() == full.violation.to_bits()
            },
            "incremental probe diverged from the full recompute at swap ({a}, {b})"
        );
        Ok(eval)
    }

    fn accept(&mut self) {
        let span = self.span;
        for k in 0..self.touched.len() {
            let app = self.touched[k];
            let base = app.0 * span;
            if self.spec_moved[app] {
                // Apply the probe's recorded remove/insert to the
                // committed unit list.
                let (old_pos, new_pos, dest) = self.spec_shift[app];
                let units = &mut self.units[base..base + span];
                if new_pos >= old_pos {
                    units.copy_within(old_pos + 1..new_pos + 1, old_pos);
                } else {
                    units.copy_within(new_pos..old_pos, new_pos + 1);
                }
                units[new_pos] = dest;
            }
            self.pressures[base..base + span]
                .copy_from_slice(&self.spec_pressures[base..base + span]);
            self.times[app] = self.spec_times[app];
        }
        self.touched.clear();
    }

    fn reject(&mut self) {
        // Speculative entries are simply abandoned; the next probe
        // bumps the generation and overwrites the pools.
        self.touched.clear();
    }
}

/// Runs the annealing search over an estimator-backed
/// [`SearchGoal`] using delta-energy evaluation — the hot path behind
/// [`crate::place_qos`], [`crate::place_min_waste`] and
/// [`crate::find_placements`], exposed for callers that bring their own
/// [`crate::AnnealConfig`]. Results are bit-identical to running
/// [`crate::anneal_with`] over an objective that recomputes the goal
/// from scratch on every probe.
///
/// # Errors
///
/// Returns [`PlacementError::Predictor`] for an invalid QoS goal;
/// propagates predictor failures.
pub fn anneal_estimator(
    estimator: &Estimator<'_>,
    goal: SearchGoal,
    config: &crate::annealing::AnnealConfig,
    tracer: &icm_obs::Tracer,
) -> Result<crate::annealing::AnnealResult, PlacementError> {
    goal.validate(estimator)?;
    crate::annealing::anneal_with(
        estimator.problem(),
        IncrementalObjective::prepared(estimator, goal),
        config,
        tracer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annealing::{AcceptRule, AnnealConfig};
    use crate::energy::estimate_waste;
    use crate::estimator::tests::{fake_predictors, fake_problem, FakePredictor};
    use crate::estimator::RuntimePredictor;
    use crate::objective::reference::anneal_full_recompute;
    use crate::state::PlacementProblem;
    use icm_obs::Tracer;
    use icm_rng::Rng;

    fn goals_for(workloads: usize) -> Vec<SearchGoal> {
        vec![
            SearchGoal::MinWeightedTotal,
            SearchGoal::MaxWeightedTotal,
            SearchGoal::MinWaste,
            SearchGoal::Qos {
                target: 0,
                max_normalized: 1.25,
            },
            SearchGoal::Qos {
                target: workloads - 1,
                max_normalized: 1.05,
            },
        ]
    }

    /// Sweeps a random move sequence (accepting about half the moves)
    /// and checks the delta evaluation against the from-scratch one,
    /// bit for bit, at every step.
    fn sweep(estimator: &Estimator<'_>, goal: SearchGoal, seed: u64, moves: usize) {
        let problem = estimator.problem();
        let mut objective = IncrementalObjective::new(estimator, goal).expect("valid goal");
        let mut rng = Rng::from_seed(seed);
        let mut state = PlacementState::random(problem, &mut rng);
        let eval = objective.reset(&state).expect("reset");
        let full = objective.full_eval(&state).expect("full eval");
        assert_eq!(eval.cost.to_bits(), full.cost.to_bits());
        assert_eq!(eval.violation.to_bits(), full.violation.to_bits());
        let mut applied = 0;
        for _ in 0..moves {
            let Some((a, b)) = state.random_swap_indices(problem, &mut rng, 32) else {
                continue;
            };
            state.swap_in_place(a, b);
            let eval = objective.probe(&state, a, b).expect("probe");
            let full = objective.full_eval(&state).expect("full eval");
            assert_eq!(
                eval.cost.to_bits(),
                full.cost.to_bits(),
                "cost diverged under {goal:?} at swap ({a}, {b}): {} vs {}",
                eval.cost,
                full.cost
            );
            assert_eq!(
                eval.violation.to_bits(),
                full.violation.to_bits(),
                "violation diverged under {goal:?} at swap ({a}, {b})"
            );
            if rng.gen_bool(0.5) {
                objective.accept();
            } else {
                state.swap_in_place(a, b);
                objective.reject();
            }
            applied += 1;
        }
        assert!(applied > moves / 2, "sweep barely exercised the objective");
    }

    #[test]
    fn delta_evaluation_matches_full_recompute_on_the_paper_shape() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        for goal in goals_for(problem.workloads().len()) {
            for seed in [1u64, 42, 2016] {
                sweep(&estimator, goal, seed, 200);
            }
        }
    }

    #[test]
    fn delta_evaluation_matches_full_recompute_with_wide_hosts() {
        // 4 hosts × 3 slots: multi-co-runner hosts exercise the score
        // combination order.
        let problem =
            PlacementProblem::new(4, 3, vec!["a".into(), "b".into(), "c".into(), "d".into()])
                .expect("valid");
        let base = fake_predictors();
        let predictors = [
            base[0].clone(),
            base[1].clone(),
            FakePredictor {
                score: 0.7,
                sensitivity: 0.10,
                coupled: true,
            },
            base[3].clone(),
        ];
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        for goal in goals_for(problem.workloads().len()) {
            sweep(&estimator, goal, 7, 200);
        }
    }

    /// The search's probe memo keys a neighbour on its unordered slot
    /// pair, so `probe(a, b)` and `probe(b, a)` of one neighbour must be
    /// the same bits, under every goal, along random accept/reject
    /// chains.
    #[test]
    fn probes_are_symmetric_in_the_swapped_slots() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        for goal in goals_for(problem.workloads().len()) {
            for seed in [3u64, 2016] {
                let mut objective =
                    IncrementalObjective::new(&estimator, goal).expect("valid goal");
                let mut rng = Rng::from_seed(seed);
                let mut state = PlacementState::random(&problem, &mut rng);
                objective.reset(&state).expect("reset");
                for _ in 0..200 {
                    let Some((a, b)) = state.random_swap_indices(&problem, &mut rng, 32) else {
                        continue;
                    };
                    state.swap_in_place(a, b);
                    let forward = objective.probe(&state, a, b).expect("probe");
                    objective.reject();
                    let backward = objective.probe(&state, b, a).expect("probe");
                    assert_eq!(
                        (forward.cost.to_bits(), forward.violation.to_bits()),
                        (backward.cost.to_bits(), backward.violation.to_bits()),
                        "probe ({a}, {b}) != probe ({b}, {a}) under {goal:?}"
                    );
                    if rng.gen_bool(0.5) {
                        objective.accept();
                    } else {
                        state.swap_in_place(a, b);
                        objective.reject();
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_search_is_bit_identical_to_the_full_recompute_search() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        for accept in [
            AcceptRule::Greedy,
            AcceptRule::Metropolis {
                initial_temperature: 0.5,
                cooling: 0.999,
            },
        ] {
            let config = AnnealConfig {
                iterations: 800,
                accept,
                ..AnnealConfig::default()
            };
            let incremental = anneal_estimator(
                &estimator,
                SearchGoal::MinWeightedTotal,
                &config,
                &Tracer::disabled(),
            )
            .expect("runs");
            let full = anneal_full_recompute(
                &problem,
                |s: &PlacementState| Ok(estimator.estimate(s)?.weighted_total),
                |_| Ok(0.0),
                &config,
                &Tracer::disabled(),
            )
            .expect("runs");
            assert_eq!(incremental, full, "paths diverged under {accept:?}");
        }
        // The waste goal agrees with its full recompute too.
        let config = AnnealConfig {
            iterations: 500,
            ..AnnealConfig::default()
        };
        let incremental = anneal_estimator(
            &estimator,
            SearchGoal::MinWaste,
            &config,
            &Tracer::disabled(),
        )
        .expect("runs");
        let full = anneal_full_recompute(
            &problem,
            |s: &PlacementState| Ok(estimate_waste(&estimator, s)?.total_wasted),
            |_| Ok(0.0),
            &config,
            &Tracer::disabled(),
        )
        .expect("runs");
        assert_eq!(incremental, full);
        // And the QoS goal against its cost/violation pair.
        let bound = 1.25;
        let incremental = anneal_estimator(
            &estimator,
            SearchGoal::Qos {
                target: 0,
                max_normalized: bound,
            },
            &config,
            &Tracer::disabled(),
        )
        .expect("runs");
        let full = anneal_full_recompute(
            &problem,
            |s: &PlacementState| Ok(estimator.estimate(s)?.weighted_total),
            |s: &PlacementState| Ok((estimator.estimate(s)?.normalized_times[0] - bound).max(0.0)),
            &config,
            &Tracer::disabled(),
        )
        .expect("runs");
        assert_eq!(incremental, full);
    }

    #[test]
    fn invalid_qos_goals_are_rejected() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let out_of_range = IncrementalObjective::new(
            &estimator,
            SearchGoal::Qos {
                target: 99,
                max_normalized: 1.2,
            },
        );
        assert!(matches!(out_of_range, Err(PlacementError::Predictor(_))));
        let bad_bound = anneal_estimator(
            &estimator,
            SearchGoal::Qos {
                target: 0,
                max_normalized: f64::NAN,
            },
            &AnnealConfig::default(),
            &Tracer::disabled(),
        );
        assert!(matches!(bad_bound, Err(PlacementError::Predictor(_))));
    }
}

#[cfg(test)]
mod timing {
    //! Ignored by default: a rough wall-clock split of the annealer's
    //! per-iteration cost (run with `--release -- --ignored --nocapture`).
    use super::*;
    use crate::annealing::AnnealConfig;
    use crate::state::PlacementProblem;
    use icm_obs::Tracer;
    use icm_rng::Rng;
    use std::hint::black_box;
    use std::time::Instant;

    struct Synthetic {
        score: f64,
        sensitivity: f64,
    }

    impl crate::estimator::RuntimePredictor for Synthetic {
        fn predict_normalized(&self, pressures: &[f64]) -> Result<f64, PlacementError> {
            let max = pressures.iter().cloned().fold(0.0f64, f64::max);
            let mean = pressures.iter().sum::<f64>() / pressures.len() as f64;
            Ok(1.0 + self.sensitivity * (0.7 * max + 0.3 * mean))
        }
        fn bubble_score(&self) -> f64 {
            self.score
        }
        fn solo_seconds(&self) -> f64 {
            100.0
        }
    }

    #[test]
    #[ignore = "wall-clock instrumentation, not an assertion"]
    fn per_iteration_cost_split() {
        let problem =
            PlacementProblem::paper_default(vec!["a".into(), "b".into(), "c".into(), "d".into()])
                .expect("valid");
        let preds = [
            Synthetic {
                score: 4.3,
                sensitivity: 0.12,
            },
            Synthetic {
                score: 6.6,
                sensitivity: 0.03,
            },
            Synthetic {
                score: 0.2,
                sensitivity: 0.05,
            },
            Synthetic {
                score: 3.9,
                sensitivity: 0.15,
            },
        ];
        let refs: Vec<&dyn crate::estimator::RuntimePredictor> =
            preds.iter().map(|p| p as _).collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");

        let mut rng = Rng::from_seed(3);
        let mut state = PlacementState::random(&problem, &mut rng);
        let swaps: Vec<(usize, usize)> = (0..4096)
            .map(|_| {
                state
                    .random_swap_indices(&problem, &mut rng, 64)
                    .expect("dense problems always admit a swap")
            })
            .collect();

        let mut obj =
            IncrementalObjective::new(&estimator, SearchGoal::MinWeightedTotal).expect("valid");
        obj.reset(&state).expect("reset");

        let n = 2_000_000usize;
        let t = Instant::now();
        let mut acc = 0.0;
        for i in 0..n {
            let (a, b) = swaps[i & 4095];
            state.swap_in_place(a, b);
            let e = obj.probe(black_box(&state), a, b).expect("probe");
            acc += e.cost;
            state.swap_in_place(a, b);
            obj.reject();
        }
        println!(
            "probe+reject: {:.1} ns/iter (acc {acc})",
            t.elapsed().as_nanos() as f64 / n as f64
        );

        let t = Instant::now();
        let mut acc2 = 0.0;
        for i in 0..n {
            let (a, b) = swaps[i & 4095];
            state.swap_in_place(a, b);
            acc2 += state.workload_at(a) as f64;
            state.swap_in_place(a, b);
        }
        println!(
            "swap pair only: {:.1} ns/iter (acc {acc2})",
            t.elapsed().as_nanos() as f64 / n as f64
        );

        let pressures = [0.2f64, 3.1, 0.0, 4.4];
        let t = Instant::now();
        let mut acc3 = 0.0;
        for _ in 0..n {
            acc3 += estimator
                .predictor(1)
                .predict_normalized(black_box(&pressures))
                .expect("predicts");
        }
        println!(
            "predict_normalized: {:.1} ns/call (acc {acc3})",
            t.elapsed().as_nanos() as f64 / n as f64
        );

        let pow_of: Vec<f64> = [4.3f64, 6.6, 0.2, 3.9]
            .iter()
            .map(|&s| 2f64.powf(s))
            .collect();
        let log_of: Vec<f64> = pow_of.iter().map(|p| p.log2()).collect();
        let t = Instant::now();
        let mut acc4 = 0.0;
        for i in 0..n {
            let slot = i & 15;
            acc4 += estimator.combined_pressure_pow(
                black_box(&state),
                slot,
                slot / 2,
                &pow_of,
                &log_of,
            );
        }
        println!(
            "combined_pressure_pow: {:.1} ns/call (acc {acc4})",
            t.elapsed().as_nanos() as f64 / n as f64
        );

        let mut rng2 = Rng::from_seed(9);
        let t = Instant::now();
        let mut picks = 0usize;
        for _ in 0..n {
            if state.random_swap_indices(&problem, &mut rng2, 32).is_some() {
                picks += 1;
            }
        }
        println!(
            "pick: {:.1} ns/iter ({picks} found)",
            t.elapsed().as_nanos() as f64 / n as f64
        );

        let cfg = AnnealConfig {
            iterations: 400_000,
            ..AnnealConfig::default()
        };
        let t = Instant::now();
        let r = anneal_estimator(
            &estimator,
            SearchGoal::MinWeightedTotal,
            &cfg,
            &Tracer::disabled(),
        )
        .expect("runs");
        println!(
            "full anneal: {:.1} ns/iter (cost {})",
            t.elapsed().as_nanos() as f64 / cfg.iterations as f64,
            r.cost
        );
    }
}
