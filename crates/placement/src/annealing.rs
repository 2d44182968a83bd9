//! The stochastic placement search of §5.1: start from a random mapping,
//! repeatedly swap two slots holding different workloads, and keep the
//! swap when it helps — with an optional Metropolis acceptance rule for
//! full simulated annealing (ablation A2 in `DESIGN.md`; the paper's
//! description accepts only improvements).
//!
//! The search engine prices each candidate by calling one evaluation
//! closure on it, with the candidate's swap applied in place and undone
//! instead of cloning the assignment. Every call runs exactly one walk,
//! on the calling thread, from the RNG stream of `config.seed`.

use icm_obs::{QuantileSketch, Tracer, Value};
use icm_rng::Rng;

use crate::error::PlacementError;
use crate::objective::Eval;
use crate::state::{PlacementConstraints, PlacementProblem, PlacementState};

/// The plateau tolerance shared by move acceptance and best-state
/// tracking: two violations within this distance are treated as equal,
/// so a plateau-equal cheaper state is never missed to f64 noise.
const PLATEAU_EPS: f64 = 1e-12;

/// Attempts per iteration to find a valid random swap; an iteration
/// that finds none only cools.
const SWAP_ATTEMPTS: usize = 32;

/// Acceptance rule for candidate swaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AcceptRule {
    /// Accept only strict improvements (the paper's described behaviour —
    /// stochastic hill climbing).
    Greedy,
    /// Metropolis criterion: always accept improvements; accept a
    /// worsening of Δ with probability `exp(−Δ / t)`, with `t` decaying
    /// geometrically from `initial_temperature` by `cooling` per
    /// iteration — every iteration, regardless of feasibility or
    /// acceptance, so the schedule depends only on the iteration count.
    Metropolis {
        /// Starting temperature (objective units).
        initial_temperature: f64,
        /// Per-iteration geometric cooling factor in `(0, 1)`.
        cooling: f64,
    },
}

/// The JSON body of [`AcceptRule::Metropolis`].
struct Metropolis {
    initial_temperature: f64,
    cooling: f64,
}
icm_json::impl_json!(struct Metropolis { initial_temperature, cooling });

impl icm_json::ToJson for AcceptRule {
    fn write_json(&self, out: &mut String) {
        match *self {
            AcceptRule::Greedy => out.push_str("\"Greedy\""),
            AcceptRule::Metropolis {
                initial_temperature,
                cooling,
            } => {
                let body = Metropolis {
                    initial_temperature,
                    cooling,
                };
                icm_json::write_object(out, [("Metropolis", &body)]);
            }
        }
    }
}

impl icm_json::FromJson for AcceptRule {
    fn read_json(r: &mut icm_json::Reader<'_>) -> Result<Self, icm_json::JsonError> {
        icm_json::read_variant(r, "AcceptRule", |name, body| match (name, body) {
            ("Greedy", None) => Ok(AcceptRule::Greedy),
            ("Metropolis", Some(r)) => {
                let Metropolis {
                    initial_temperature,
                    cooling,
                } = icm_json::FromJson::read_json(r)?;
                Ok(AcceptRule::Metropolis {
                    initial_temperature,
                    cooling,
                })
            }
            _ => Err(icm_json::unknown_variant("AcceptRule", name)),
        })
    }
}

/// Search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Number of candidate swaps to consider.
    pub iterations: usize,
    /// RNG seed of the search's one stream.
    pub seed: u64,
    /// Acceptance rule.
    pub accept: AcceptRule,
}

icm_json::impl_json!(struct AnnealConfig { iterations, seed, accept });

impl Default for AnnealConfig {
    fn default() -> Self {
        Self {
            iterations: 4000,
            seed: 0xA11E,
            accept: AcceptRule::Greedy,
        }
    }
}

/// Search outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealResult {
    /// The best state found.
    pub state: PlacementState,
    /// Its objective value (lower is better).
    pub cost: f64,
    /// Whether the best state satisfies the feasibility predicate.
    pub feasible: bool,
    /// Number of candidates priced, the start state included; a memo
    /// hit counts like an evaluation the closure made.
    pub evaluations: usize,
    /// Number of accepted swaps.
    pub accepted: usize,
    /// Iteration (1-based) at which the returned best state was last
    /// improved; `0` means the start state was never beaten. The
    /// convergence metric of Fig. 10.
    pub best_iteration: usize,
}

icm_json::impl_json!(struct AnnealResult {
    state,
    cost,
    feasible,
    evaluations,
    accepted,
    best_iteration = 0
});

fn rule_name(accept: &AcceptRule) -> &'static str {
    match accept {
        AcceptRule::Greedy => "greedy",
        AcceptRule::Metropolis { .. } => "metropolis",
    }
}

fn cool(accept: &AcceptRule, temperature: &mut f64) {
    if let AcceptRule::Metropolis { cooling, .. } = *accept {
        *temperature *= cooling;
    }
}

/// The search loop: walks `config.iterations` candidate swaps, each
/// priced by `evaluate` on the swapped state and kept only if accepted,
/// with the byte-exact RNG draw order the clone-per-candidate loop
/// always had. The temperature cools exactly once per iteration —
/// including iterations that found no valid swap or rejected on
/// feasibility — so the schedule is a pure function of the iteration
/// count, never of the acceptance trajectory.
///
/// A candidate priced since the last accept is answered from the memo
/// and never reaches `evaluate` again, which is sound because `evaluate`
/// is a pure function of the assignment. Decisions, RNG draws, events
/// and sketch samples are those of the unmemoized walk.
///
/// `warm` resumes from a start state under constraints (a re-anneal);
/// without it the walk starts from a random placement.
fn search(
    problem: &PlacementProblem,
    mut evaluate: impl FnMut(&PlacementState) -> Result<Eval, PlacementError>,
    config: &AnnealConfig,
    tracer: &Tracer,
    warm: Option<(&PlacementState, &PlacementConstraints)>,
) -> Result<AnnealResult, PlacementError> {
    // Wall-time side channel only: one histogram sample per search, no
    // event, no trace perturbation.
    let _search_scope = tracer.wall_scope("anneal.search");
    let mut rng = Rng::from_seed(config.seed);
    let (mut current, constraints, rule) = match warm {
        Some((start, c)) => (start.clone(), Some(c), "re-anneal"),
        None => (
            PlacementState::random(problem, &mut rng),
            None,
            rule_name(&config.accept),
        ),
    };
    let record = tracer.enabled();
    let start = evaluate(&current)?;
    let span = record.then(|| {
        tracer.span(
            "anneal",
            &[
                ("rule", Value::from(rule)),
                ("iterations", Value::from(config.iterations)),
                ("seed", Value::from(config.seed)),
                ("start_cost", Value::from(start.cost)),
                ("start_violation", Value::from(start.violation)),
            ],
        )
    });
    // Candidate costs are sketched locally and merged into telemetry
    // once per search, so no candidate touches the shared handle.
    let mut sketch = tracer.telemetry().is_some().then(QuantileSketch::new);
    if let Some(s) = sketch.as_mut() {
        s.observe(start.cost);
    }
    let mut current_cost = start.cost;
    let mut current_violation = start.violation;
    let mut evaluations = 1usize;
    let mut accepted = 0usize;

    let mut best = current.clone();
    let mut best_cost = current_cost;
    let mut best_violation = current_violation;
    let mut best_iteration = 0usize;

    let mut temperature = match config.accept {
        AcceptRule::Metropolis {
            initial_temperature,
            ..
        } => initial_temperature,
        AcceptRule::Greedy => 0.0,
    };

    // Slot→host table for the pick's validity checks, hoisted out of
    // the loop so no iteration divides.
    let slots = problem.slots();
    let host_of: Vec<usize> = (0..slots).map(|s| problem.host_of_slot(s)).collect();
    // The memo: cell `min·slots + max` holds a candidate's `Eval` while
    // its stamp is the generation, which each accept bumps.
    let memoized = slots * slots <= 65_536;
    let mut memo = vec![(0u64, Eval::default()); if memoized { slots * slots } else { 0 }];
    let mut generation = 1u64;

    for iteration in 1..=config.iterations {
        let Some((a, b)) =
            current.random_swap_indices(problem, &host_of, &mut rng, SWAP_ATTEMPTS, constraints)
        else {
            cool(&config.accept, &mut temperature);
            continue;
        };
        let cell = memoized.then(|| a.min(b) * slots + a.max(b));
        let eval = match cell.filter(|&c| memo[c].0 == generation) {
            Some(c) => memo[c].1,
            None => {
                current.swap_in_place(a, b);
                let eval = evaluate(&current)?;
                current.swap_in_place(a, b);
                if let Some(c) = cell {
                    memo[c] = (generation, eval);
                }
                eval
            }
        };
        evaluations += 1;
        if let Some(s) = sketch.as_mut() {
            s.observe(eval.cost);
        }

        let improves = eval.cost < current_cost;
        let accept = if current_violation > 0.0 {
            // Climb toward feasibility first (§5.2): reduce the
            // violation; on a violation plateau (common with max-coupled
            // targets, where only removing the *last* bad co-runner
            // helps) walk sideways randomly so the search can cross it.
            eval.violation < current_violation - PLATEAU_EPS
                || ((eval.violation - current_violation).abs() <= PLATEAU_EPS
                    && (improves || rng.gen_f64() < 0.5))
        } else if eval.violation > 0.0 {
            false
        } else {
            match config.accept {
                AcceptRule::Greedy => improves,
                AcceptRule::Metropolis { .. } => {
                    improves
                        || rng.gen_f64()
                            < (-(eval.cost - current_cost) / temperature.max(1e-12)).exp()
                }
            }
        };

        if accept {
            current.swap_in_place(a, b);
            generation += 1;
            current_cost = eval.cost;
            current_violation = eval.violation;
            accepted += 1;
            // Best tracking uses the same plateau tolerance as
            // acceptance, so a cheaper state on an equal-violation
            // plateau is never dropped to sub-epsilon violation noise.
            let better_feasibility = current_violation < best_violation - PLATEAU_EPS;
            let plateau_cheaper = (current_violation - best_violation).abs() <= PLATEAU_EPS
                && current_cost < best_cost;
            if better_feasibility || plateau_cheaper {
                best.copy_assignment_from(&current);
                best_cost = current_cost;
                best_violation = current_violation;
                best_iteration = iteration;
            }
        }

        cool(&config.accept, &mut temperature);

        if record {
            tracer.event(
                "anneal_iter",
                &[
                    ("iter", Value::from(iteration)),
                    ("cost", Value::from(eval.cost)),
                    ("violation", Value::from(eval.violation)),
                    ("accepted", Value::from(accept)),
                    ("current", Value::from(current_cost)),
                    ("best", Value::from(best_cost)),
                    ("temperature", Value::from(temperature)),
                ],
            );
        }
    }

    if let Some(s) = &sketch {
        tracer.telemetry_merge_sketch("anneal.cost", s);
    }
    if let Some(span) = span {
        span.end_with(&[
            ("cost", Value::from(best_cost)),
            ("feasible", Value::from(best_violation <= 0.0)),
            ("evaluations", Value::from(evaluations)),
            ("accepted", Value::from(accepted)),
            ("best_iteration", Value::from(best_iteration)),
            ("final_temperature", Value::from(temperature)),
        ]);
    }

    Ok(AnnealResult {
        state: best,
        cost: best_cost,
        feasible: best_violation <= 0.0,
        evaluations,
        accepted,
        best_iteration,
    })
}

/// Minimizes an evaluation closure over valid placements — the one
/// search engine behind every entry point ([`crate::anneal_estimator`],
/// the `place_*` entry points, the manager's and the daemon's fleet
/// searches).
///
/// `evaluate` prices a candidate state; its
/// [`Eval::violation`](crate::Eval::violation)
/// quantifies how badly a state breaks the caller's constraint (`0` =
/// feasible, larger = worse) — e.g. for QoS it is the excess of the
/// target's predicted time over the allowed bound. This gives the search
/// a gradient toward feasibility, which a boolean constraint cannot: from
/// an infeasible state, swaps that reduce the violation are accepted
/// (ties broken by cost); from a feasible state, only feasible
/// neighbours are considered and accepted per the [`AcceptRule`],
/// exactly the paper's §5.2 loop. The best feasible state seen is
/// returned when one exists, otherwise the least-violating state.
///
/// The search starts from a random placement drawn from
/// `Rng::from_seed(config.seed)` and runs on the calling thread. It
/// prices each neighbour of a committed state once: a redrawn neighbour
/// is answered from a memo, so `evaluate` must be a pure function of the
/// assignment (scratch buffers and caches are fine).
///
/// With an enabled `tracer` the search is wrapped in an `anneal` span,
/// every evaluated candidate emits an `anneal_iter` event (objective,
/// violation, acceptance decision, temperature), and the span end
/// carries the convergence summary (best cost, iterations-to-best,
/// acceptance count, final temperature). Same-seed runs produce
/// byte-identical traces.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn anneal_with(
    problem: &PlacementProblem,
    evaluate: impl FnMut(&PlacementState) -> Result<Eval, PlacementError>,
    config: &AnnealConfig,
    tracer: &Tracer,
) -> Result<AnnealResult, PlacementError> {
    search(problem, evaluate, config, tracer, None)
}

/// Incremental re-optimization from a warm start: [`anneal_with`]
/// resumed at `start` (never a random restart) under per-app
/// pin/exclude [`PlacementConstraints`], drawing fresh swap randomness
/// from `config.seed`. Exclusion breaches are added to `evaluate`'s
/// violation, giving the annealer a gradient that vacates excluded
/// `(workload, host)` pairs; pinned workloads' slots are frozen. With no
/// improvement found the warm start itself is returned, so a bounded
/// budget (the manager runs a few hundred iterations, not thousands) can
/// only help.
///
/// The returned [`AnnealResult::feasible`] covers caller feasibility
/// *and* the constraints: it is `true` only when `evaluate`'s violation
/// is zero and no exclusion is breached.
///
/// # Errors
///
/// Returns [`PlacementError::Shape`] for out-of-range constraints;
/// propagates evaluation failures.
pub fn re_anneal_with(
    problem: &PlacementProblem,
    mut evaluate: impl FnMut(&PlacementState) -> Result<Eval, PlacementError>,
    start: &PlacementState,
    constraints: &PlacementConstraints,
    config: &AnnealConfig,
    tracer: &Tracer,
) -> Result<AnnealResult, PlacementError> {
    constraints.check(problem)?;
    let constrained = |state: &PlacementState| {
        let mut eval = evaluate(state)?;
        eval.violation += constraints.violation(problem, state);
        Ok(eval)
    };
    search(
        problem,
        constrained,
        config,
        tracer,
        Some((start, constraints)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::tests::{fake_predictors, fake_problem};
    use crate::estimator::{Estimator, RuntimePredictor};
    use crate::goal::{anneal_estimator, SearchGoal};

    /// The weighted total of `estimator` as the cost, under a hand-built
    /// violation landscape.
    fn with_violation<'a>(
        estimator: &'a Estimator<'a>,
        violation: impl Fn(&PlacementState) -> f64 + 'a,
    ) -> impl FnMut(&PlacementState) -> Result<Eval, PlacementError> + 'a {
        move |state| {
            Ok(Eval {
                cost: estimator.estimate(state)?.weighted_total,
                violation: violation(state),
            })
        }
    }

    /// The production search for the weighted-total goal.
    fn min_total(
        estimator: &Estimator<'_>,
        config: &AnnealConfig,
        tracer: &Tracer,
    ) -> Result<AnnealResult, PlacementError> {
        anneal_estimator(estimator, SearchGoal::MinWeightedTotal, config, tracer)
    }

    /// The production warm-start search for the weighted-total goal.
    fn re_min_total(
        estimator: &Estimator<'_>,
        start: &PlacementState,
        constraints: &PlacementConstraints,
        config: &AnnealConfig,
        tracer: &Tracer,
    ) -> Result<AnnealResult, PlacementError> {
        re_anneal_with(
            estimator.problem(),
            |state| SearchGoal::MinWeightedTotal.eval(estimator, state),
            start,
            constraints,
            config,
            tracer,
        )
    }

    #[test]
    fn greedy_search_improves_over_random() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");

        let config = AnnealConfig {
            iterations: 1500,
            ..AnnealConfig::default()
        };
        let result = min_total(&estimator, &config, &Tracer::disabled()).expect("search runs");
        // Greedy hill climbing guarantees it never leaves its own start
        // worse off; with the max-coupled sensitive workload in this
        // fixture it can stall in a local optimum (see
        // `metropolis_escapes_greedy_local_optimum`), so the start — not
        // the random-state mean — is the sound baseline.
        let mut rng = Rng::from_seed(config.seed);
        let start = PlacementState::random(&problem, &mut rng);
        let start_cost = estimator
            .estimate(&start)
            .expect("estimates")
            .weighted_total;
        assert!(
            result.cost < start_cost,
            "search ({}) must improve on its own start ({start_cost})",
            result.cost
        );
        assert!(result.accepted > 0);
        assert!(result.evaluations > 1);
    }

    #[test]
    fn search_separates_aggressor_from_sensitive() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        // The sensitive workload couples on the *max* co-runner pressure,
        // so pure hill climbing herds aggressor units onto it (each such
        // move strictly improves everyone else while the max is already
        // saturated) and cannot climb back out. Use the Metropolis
        // extension, which crosses that barrier reliably.
        let result = min_total(
            &estimator,
            &AnnealConfig {
                iterations: 3000,
                accept: AcceptRule::Metropolis {
                    initial_temperature: 0.5,
                    cooling: 0.999,
                },
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("search runs");
        // In the found placement, the sensitive workload (0) must never
        // share a host with the heavy aggressor (1).
        for slot in result.state.slots_of(0) {
            assert_ne!(
                result.state.corunner_at(&problem, slot),
                Some(1),
                "sensitive workload still co-located with the aggressor"
            );
        }
    }

    #[test]
    fn feasibility_constraint_respected_when_reachable() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        // Constraint: workload 0 normalized time ≤ 1.3 (needs to avoid
        // the aggressor; feasible).
        let result = anneal_estimator(
            &estimator,
            SearchGoal::Qos {
                target: 0,
                max_normalized: 1.3,
            },
            &AnnealConfig {
                iterations: 3000,
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("search runs");
        assert!(
            result.feasible,
            "a feasible placement exists and must be found"
        );
        let est = estimator.estimate(&result.state).expect("estimates");
        assert!(est.normalized_times[0] <= 1.3);
    }

    #[test]
    fn impossible_constraint_reports_infeasible() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let result = anneal_with(
            &problem,
            with_violation(&estimator, |_| 1.0),
            &AnnealConfig {
                iterations: 200,
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("search runs");
        assert!(!result.feasible);
    }

    #[test]
    fn metropolis_escapes_greedy_local_optimum() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let greedy = min_total(
            &estimator,
            &AnnealConfig {
                iterations: 3000,
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("runs");
        let metropolis = min_total(
            &estimator,
            &AnnealConfig {
                iterations: 3000,
                accept: AcceptRule::Metropolis {
                    initial_temperature: 0.5,
                    cooling: 0.999,
                },
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("runs");
        // Metropolis crosses the herding barrier (see
        // `search_separates_aggressor_from_sensitive`) that strict
        // improvement cannot, so it ends at least as good as greedy and
        // inside the optimum's basin.
        assert!(
            metropolis.cost <= greedy.cost + 1e-9,
            "metropolis ({}) must not lose to greedy ({})",
            metropolis.cost,
            greedy.cost
        );
        assert!(
            metropolis.cost < 4.5,
            "metropolis ({}) must reach the separated-placement basin",
            metropolis.cost
        );
    }

    #[test]
    fn search_is_seed_deterministic() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let run = |seed| {
            min_total(
                &estimator,
                &AnnealConfig {
                    iterations: 500,
                    seed,
                    ..AnnealConfig::default()
                },
                &Tracer::disabled(),
            )
            .expect("runs")
        };
        assert_eq!(run(5).state, run(5).state);
        // Different seeds explore differently (almost surely different
        // accepted counts or states).
        let a = run(5);
        let b = run(6);
        assert!(a.state != b.state || a.accepted != b.accepted);
    }

    #[test]
    fn cooling_advances_once_per_iteration_regardless_of_trajectory() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let initial = 0.7;
        let cooling = 0.995;
        let iterations = 120;
        let expected = (0..iterations).fold(initial, |t, _| t * cooling);
        let config = AnnealConfig {
            iterations,
            accept: AcceptRule::Metropolis {
                initial_temperature: initial,
                cooling,
            },
            ..AnnealConfig::default()
        };
        // Three acceptance regimes that historically each skipped cooling
        // on some iterations: a feasible search (cooling only happened on
        // doubly-feasible candidates), a permanently infeasible one
        // (feasibility climbing skipped it entirely), and one where no
        // valid swap is ever found (every workload pinned).
        let final_temperature =
            |violation: fn(&PlacementState) -> f64, pinned: Option<&PlacementConstraints>| {
                let (tracer, recorder) = icm_obs::Tracer::recording(8192);
                let evaluate = with_violation(&estimator, violation);
                match pinned {
                    None => anneal_with(&problem, evaluate, &config, &tracer),
                    Some(constraints) => {
                        let start = PlacementState::random(&problem, &mut Rng::from_seed(1));
                        re_anneal_with(&problem, evaluate, &start, constraints, &config, &tracer)
                    }
                }
                .expect("runs");
                let events = recorder.events();
                let end = events.last().expect("events");
                assert_eq!(end.name, "anneal.end");
                let temperature = end.num("final_temperature").expect("field");
                (temperature, end.num("evaluations").expect("field"))
            };
        let (feasible, _) = final_temperature(|_| 0.0, None);
        let (infeasible, _) = final_temperature(|_| 1.0, None);
        let mut all_pinned = PlacementConstraints::new();
        for workload in 0..problem.workloads().len() {
            all_pinned.pin(workload);
        }
        let (swapless, evaluations) = final_temperature(|_| 0.0, Some(&all_pinned));
        assert_eq!(evaluations, 1.0, "a pinned walk priced a candidate");
        assert_eq!(
            feasible.to_bits(),
            expected.to_bits(),
            "feasible run cooled {feasible}, schedule says {expected}"
        );
        assert_eq!(
            infeasible.to_bits(),
            expected.to_bits(),
            "infeasible run cooled {infeasible}, schedule says {expected}"
        );
        assert_eq!(
            swapless.to_bits(),
            expected.to_bits(),
            "swapless run cooled {swapless}, schedule says {expected}"
        );
    }

    #[test]
    fn plateau_equal_cheaper_states_update_the_best() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        // Violations sit on a sub-epsilon plateau (two levels 5e-13
        // apart, never *exactly* equal across the levels), so best-state
        // tracking that demands bitwise-equal violations before comparing
        // costs would ignore most cheaper states. The best must be the
        // cheapest state the walk ever accepted (or the start).
        let (tracer, recorder) = icm_obs::Tracer::recording(16384);
        let result = anneal_with(
            &problem,
            with_violation(&estimator, |s| {
                1.0 + 5e-13 * ((s.workload_at(0) % 2) as f64)
            }),
            &AnnealConfig {
                iterations: 300,
                ..AnnealConfig::default()
            },
            &tracer,
        )
        .expect("runs");
        let events = recorder.events();
        assert_eq!(events[0].name, "anneal.begin");
        let mut cheapest = events[0].num("start_cost").expect("field");
        let mut levels = std::collections::BTreeSet::new();
        for event in events.iter().filter(|e| e.name == "anneal_iter") {
            levels.insert(event.num("violation").expect("field").to_bits());
            if event.field("accepted") == Some(&icm_obs::Value::Bool(true)) {
                cheapest = cheapest.min(event.num("current").expect("field"));
            }
        }
        assert!(levels.len() > 1, "walk never crossed the plateau levels");
        assert!(
            (result.cost - cheapest).abs() <= 1e-12,
            "best ({}) missed the cheapest accepted plateau state ({cheapest})",
            result.cost
        );
    }

    #[test]
    fn traced_search_records_objective_trajectory() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let (tracer, recorder) = icm_obs::Tracer::recording(8192);
        let config = AnnealConfig {
            iterations: 400,
            accept: AcceptRule::Metropolis {
                initial_temperature: 0.5,
                cooling: 0.999,
            },
            ..AnnealConfig::default()
        };
        let result = min_total(&estimator, &config, &tracer).expect("runs");
        let events = recorder.events();
        assert_eq!(events[0].name, "anneal.begin");
        assert_eq!(events[0].str("rule"), Some("metropolis"));
        let iters: Vec<_> = events.iter().filter(|e| e.name == "anneal_iter").collect();
        assert_eq!(iters.len(), result.evaluations - 1);
        let accepted = iters
            .iter()
            .filter(|e| e.field("accepted") == Some(&icm_obs::Value::Bool(true)))
            .count();
        assert_eq!(accepted, result.accepted);
        // The running best in the trace is monotone non-increasing and
        // ends at the result's cost.
        let mut last_best = f64::INFINITY;
        for e in &iters {
            let best = e.num("best").expect("field");
            assert!(best <= last_best + 1e-12);
            last_best = best;
        }
        assert!((last_best - result.cost).abs() < 1e-12);
        let end = events.last().expect("events");
        assert_eq!(end.name, "anneal.end");
        assert_eq!(
            end.num("best_iteration"),
            Some(result.best_iteration as f64)
        );
        assert_eq!(end.num("accepted"), Some(result.accepted as f64));
    }

    #[test]
    fn tracing_does_not_change_the_search() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let config = AnnealConfig {
            iterations: 300,
            ..AnnealConfig::default()
        };
        let plain = min_total(&estimator, &config, &Tracer::disabled()).expect("runs");
        let (tracer, _recorder) = icm_obs::Tracer::recording(8192);
        let traced = min_total(&estimator, &config, &tracer).expect("runs");
        assert_eq!(plain, traced);
    }

    #[test]
    fn best_iteration_tracks_last_improvement() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let result = min_total(
            &estimator,
            &AnnealConfig {
                iterations: 1500,
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("runs");
        assert!(result.best_iteration >= 1, "some swap must have helped");
        assert!(result.best_iteration <= 1500);
        // Round-trip including the new field; legacy JSON still parses.
        let back: AnnealResult =
            icm_json::from_str(&icm_json::to_string(&result)).expect("round-trips");
        assert_eq!(back, result);
    }

    #[test]
    fn re_anneal_with_no_improvement_returns_the_warm_start() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        // First find a good state, then re-anneal from it with a tiny
        // budget: the result must never be worse than the warm start.
        let good = min_total(
            &estimator,
            &AnnealConfig {
                iterations: 1500,
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("runs");
        let warm = re_min_total(
            &estimator,
            &good.state,
            &PlacementConstraints::new(),
            &AnnealConfig {
                iterations: 50,
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("runs");
        assert!(
            warm.cost <= good.cost + 1e-12,
            "re-anneal ({}) lost ground on its warm start ({})",
            warm.cost,
            good.cost
        );
        // A zero-iteration budget returns the start state verbatim —
        // incremental, never a restart.
        let frozen = re_min_total(
            &estimator,
            &good.state,
            &PlacementConstraints::new(),
            &AnnealConfig {
                iterations: 0,
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("runs");
        assert_eq!(frozen.state, good.state);
        assert_eq!(frozen.evaluations, 1);
    }

    #[test]
    fn re_anneal_vacates_an_excluded_host_and_respects_pins() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let mut rng = Rng::from_seed(99);
        let start = PlacementState::random(&problem, &mut rng);
        // Bar workload 0 from every host it currently occupies (a crash
        // took them out from under it) and pin workload 3 in place.
        let mut constraints = PlacementConstraints::new();
        let crashed = start.hosts_of(&problem, 0);
        for &host in &crashed {
            constraints.exclude(0, host);
        }
        constraints.pin(3);
        let pinned_slots = start.slots_of(3);
        assert!(constraints.breaches(&problem, &start) > 0);
        let result = re_min_total(
            &estimator,
            &start,
            &constraints,
            &AnnealConfig {
                iterations: 2000,
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("runs");
        assert!(result.feasible, "excluded host was never vacated");
        assert_eq!(constraints.breaches(&problem, &result.state), 0);
        for host in result.state.hosts_of(&problem, 0) {
            assert!(!crashed.contains(&host), "workload 0 still on host {host}");
        }
        assert_eq!(
            result.state.slots_of(3),
            pinned_slots,
            "pinned workload moved"
        );
    }

    #[test]
    fn re_anneal_is_seed_deterministic_and_traced() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let mut rng = Rng::from_seed(5);
        let start = PlacementState::random(&problem, &mut rng);
        let mut constraints = PlacementConstraints::new();
        constraints.exclude(1, 0);
        let config = AnnealConfig {
            iterations: 300,
            ..AnnealConfig::default()
        };
        let run = |tracer: &Tracer| {
            re_min_total(&estimator, &start, &constraints, &config, tracer).expect("runs")
        };
        let a = run(&Tracer::disabled());
        let b = run(&Tracer::disabled());
        assert_eq!(a, b, "same-seed re-anneals diverged");
        // Traced: identical result, and the span is tagged re-anneal so
        // summaries can tell warm restarts from cold searches.
        let (tracer, recorder) = icm_obs::Tracer::recording(8192);
        let traced = run(&tracer);
        assert_eq!(traced, a);
        let events = recorder.events();
        assert_eq!(events[0].name, "anneal.begin");
        assert_eq!(events[0].str("rule"), Some("re-anneal"));
    }

    #[test]
    fn re_anneal_rejects_out_of_range_constraints() {
        let problem = fake_problem();
        let mut rng = Rng::from_seed(5);
        let start = PlacementState::random(&problem, &mut rng);
        let mut constraints = PlacementConstraints::new();
        constraints.exclude(0, 999);
        let result = re_anneal_with(
            &problem,
            |_: &PlacementState| Ok(Eval::default()),
            &start,
            &constraints,
            &AnnealConfig::default(),
            &Tracer::disabled(),
        );
        assert!(matches!(result, Err(PlacementError::Shape(_))));
    }

    #[test]
    fn objective_errors_propagate() {
        let problem = fake_problem();
        let result = anneal_with(
            &problem,
            |_: &PlacementState| Err(PlacementError::Predictor("boom".into())),
            &AnnealConfig::default(),
            &Tracer::disabled(),
        );
        assert!(result.is_err());
    }
}
