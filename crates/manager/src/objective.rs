//! The fleet-wide placement objective: predicted seconds of every live
//! application under its co-runner pressures, plus a penalty for
//! occupying hosts under drift suspicion.
//!
//! [`FleetObjective`] is the one implementation every fleet search runs
//! — the manager's initial placement and re-anneals, and `icm-server`'s
//! `place` requests. A test-only reference formulation, `fleet_cost`,
//! builds each application's context from scratch; the pooled objective
//! is asserted bit-for-bit against it.

use std::collections::BTreeSet;

use icm_placement::{Eval, PlacementError, PlacementState};

use crate::fleet::Fleet;

/// Objective penalty (simulated seconds) per occupied host currently
/// under drift suspicion: steers re-annealing away from hosts whose
/// residents mispredicted, without pretending to know the cause.
const SUSPICION_COST_S: f64 = 50.0;

/// Sorted hosts and co-runner context of live workload `i` in `state`:
/// per-host co-runner pressure (bubble scores of other live residents)
/// and the co-runner signature key for the online model.
pub(crate) fn context_of(
    fleet: &Fleet,
    state: &PlacementState,
    live: &[bool],
    i: usize,
) -> (Vec<f64>, String) {
    let problem = fleet.problem();
    let hosts = fleet.hosts_of(state, i);
    let mut pressures = Vec::with_capacity(hosts.len());
    let mut corunners: BTreeSet<&str> = BTreeSet::new();
    for &h in &hosts {
        let mut pressure = 0.0;
        for (j, app) in fleet.apps().iter().enumerate() {
            if j == i || !live[j] {
                continue;
            }
            if state.hosts_of(problem, j).contains(&h) {
                pressure += app.online.base().bubble_score();
                corunners.insert(app.name.as_str());
            }
        }
        pressures.push(pressure);
    }
    let key = if corunners.is_empty() {
        "none".to_owned()
    } else {
        corunners.into_iter().collect::<Vec<_>>().join("+")
    };
    (pressures, key)
}

/// Fleet-wide predicted cost of a candidate state: predicted seconds of
/// every live application under its co-runner pressures, plus the
/// suspicion penalty for occupying recently drifted hosts.
///
/// The reference formulation [`FleetObjective`] is asserted against in
/// tests — the searches themselves run the pooled objective.
#[cfg(test)]
fn fleet_cost(
    fleet: &Fleet,
    live: &[bool],
    suspicion: &[f64],
    state: &PlacementState,
) -> Result<f64, PlacementError> {
    let mut total = 0.0;
    for (i, app) in fleet.apps().iter().enumerate() {
        if !live[i] {
            continue;
        }
        let (pressures, key) = context_of(fleet, state, live, i);
        let predicted = app
            .online
            .predict_for(&key, &pressures)
            .map_err(|e| PlacementError::Predictor(e.to_string()))?;
        total += predicted * app.online.base().solo_seconds();
        for &h in &fleet.hosts_of(state, i) {
            total += suspicion[h] * SUSPICION_COST_S;
        }
    }
    Ok(total)
}

/// The fleet-cost evaluation every fleet search runs — the manager's
/// initial placement and re-anneals, and the daemon's `place` requests:
/// the exact arithmetic of `fleet_cost` (same terms, same order —
/// asserted bit-for-bit in tests), but with pooled per-host/per-app
/// scratch and a co-runner-signature cache instead of fresh
/// `Vec`/`BTreeSet`/`String` allocations per candidate. One instance
/// per search, passed to the search as `|state| objective.eval(state)`.
///
/// Every evaluation prices every live application; the search's memo
/// spares it redrawn neighbours. The scratch and the signature cache
/// never change an answer, so [`eval`](Self::eval) is a pure function
/// of the assignment, as the memo requires.
pub struct FleetObjective<'a> {
    fleet: &'a Fleet,
    live: &'a [bool],
    suspicion: &'a [f64],
    /// Live residents of each host, ascending app index.
    residents: Vec<Vec<usize>>,
    /// Hosts of each app, ascending (slot order implies host order).
    app_hosts: Vec<Vec<usize>>,
    /// Pressure vector scratch for the app under evaluation.
    pressures: Vec<f64>,
    /// Co-runner signature strings keyed by the co-runner app-index
    /// bitmask; only usable for fleets of ≤ 128 applications.
    key_cache: std::collections::BTreeMap<u128, String>,
}

impl<'a> FleetObjective<'a> {
    /// An objective over `fleet` pricing the applications marked in
    /// `live` (indexed like [`Fleet::apps`]) plus a penalty of 50
    /// simulated seconds × `suspicion[h]` per host each occupies. A
    /// daemon's placement query passes every application live and zero
    /// suspicion.
    pub fn new(fleet: &'a Fleet, live: &'a [bool], suspicion: &'a [f64]) -> Self {
        let hosts = fleet.problem().hosts();
        let apps = fleet.apps().len();
        Self {
            fleet,
            live,
            suspicion,
            residents: vec![Vec::new(); hosts],
            app_hosts: vec![Vec::new(); apps],
            pressures: Vec::new(),
            key_cache: std::collections::BTreeMap::new(),
        }
    }

    /// The co-runner signature for a co-runner set given as an app-index
    /// bitmask: distinct names, lexicographically sorted, joined with
    /// `+` — exactly the key [`context_of`] builds.
    fn key_for(&mut self, mask: u128) -> &str {
        let fleet = self.fleet;
        self.key_cache.entry(mask).or_insert_with(|| {
            let mut names: BTreeSet<&str> = BTreeSet::new();
            let mut bits = mask;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                names.insert(fleet.apps()[j].name.as_str());
            }
            if names.is_empty() {
                "none".to_owned()
            } else {
                names.into_iter().collect::<Vec<_>>().join("+")
            }
        })
    }

    /// Prices `state`: the fleet cost, never a violation.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Predictor`] when an application's
    /// online model fails to predict.
    pub fn eval(&mut self, state: &PlacementState) -> Result<Eval, PlacementError> {
        let problem = self.fleet.problem();
        let per_host = problem.slots_per_host();
        for list in &mut self.residents {
            list.clear();
        }
        for list in &mut self.app_hosts {
            list.clear();
        }
        // Idle filler workloads (indices past the real applications)
        // carry no model and no pressure — exactly as in [`context_of`],
        // which only ever iterates the real fleet.
        let real = self.fleet.apps().len();
        for (slot, &w) in state.assignment().iter().enumerate() {
            let host = slot / per_host;
            if w < real && self.live[w] {
                self.residents[host].push(w);
            }
            if w < real {
                self.app_hosts[w].push(host);
            }
        }
        // Slot order puts each host's residents in slot order, not app
        // order; the pressure sum below must add scores in ascending app
        // index to stay bit-identical to the reference formulation.
        for list in &mut self.residents {
            list.sort_unstable();
        }

        let cacheable = self.fleet.apps().len() <= 128;
        let mut total = 0.0;
        for i in 0..self.fleet.apps().len() {
            if !self.live[i] {
                continue;
            }
            let mut mask: u128 = 0;
            self.pressures.clear();
            for k in 0..self.app_hosts[i].len() {
                let host = self.app_hosts[i][k];
                let mut pressure = 0.0;
                for &j in &self.residents[host] {
                    if j == i {
                        continue;
                    }
                    pressure += self.fleet.apps()[j].online.base().bubble_score();
                    if cacheable {
                        mask |= 1u128 << j;
                    }
                }
                self.pressures.push(pressure);
            }
            let app = &self.fleet.apps()[i];
            let predicted = if cacheable {
                let mut pressures = std::mem::take(&mut self.pressures);
                let key = self.key_for(mask);
                let predicted = app.online.predict_for(key, &pressures);
                pressures.clear();
                self.pressures = pressures;
                predicted
            } else {
                let (pressures, key) = context_of(self.fleet, state, self.live, i);
                app.online.predict_for(&key, &pressures)
            }
            .map_err(|e| PlacementError::Predictor(e.to_string()))?;
            total += predicted * app.online.base().solo_seconds();
            for &host in &self.app_hosts[i] {
                total += self.suspicion[host] * SUSPICION_COST_S;
            }
        }
        Ok(Eval {
            cost: total,
            violation: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icm_core::model::ModelBuilder;
    use icm_core::OnlineModel;
    use icm_obs::Tracer;
    use icm_placement::{anneal_with, AnnealConfig};
    use icm_rng::Rng;
    use icm_workloads::{Catalog, TestbedBuilder};

    use crate::fleet::ManagedApp;

    const SPAN: usize = 4;

    /// Profiled paper applications on the 8×2 cluster. Two of them leave
    /// two idle filler workloads — the case the pooled objective must
    /// skip exactly as [`context_of`] does; three is the daemon's fleet.
    fn fleet_fixture(names: &[&str]) -> Fleet {
        let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(2016).build();
        let apps = names
            .iter()
            .map(|&name| {
                let model = ModelBuilder::new(name)
                    .hosts(SPAN)
                    .policy_samples(6)
                    .solo_repeats(1)
                    .score_repeats(1)
                    .seed(0xFEED)
                    .build(&mut tb)
                    .expect("model builds");
                ManagedApp::new(name, 1, OnlineModel::new(model))
            })
            .collect();
        Fleet::new(8, 2, SPAN, apps).expect("fleet packs")
    }

    /// Every evaluation along seeded swap chains prices the state exactly
    /// as the reference, for each live/suspicion pattern — including the
    /// daemon's query (all live, zero suspicion) on the daemon's
    /// three-application fleet.
    #[test]
    fn pooled_objective_matches_the_reference_cost_bit_for_bit() {
        let mut rng = Rng::from_seed(0xF1EE7);
        for names in [&["M.milc", "H.KM"][..], &["M.milc", "M.Gems", "H.KM"]] {
            let fleet = fleet_fixture(names);
            let problem = fleet.problem();
            for (live, suspicion) in &patterns(&fleet) {
                let mut objective = FleetObjective::new(&fleet, live, suspicion);
                let reference = |state: &PlacementState| {
                    fleet_cost(&fleet, live, suspicion, state).expect("reference cost")
                };
                for _ in 0..10 {
                    for state in swap_chain(problem, &mut rng, 10) {
                        let eval = objective.eval(&state).expect("pooled cost");
                        let expected = reference(&state);
                        assert_eq!(
                            eval.cost.to_bits(),
                            expected.to_bits(),
                            "pooled {} != reference {expected}",
                            eval.cost
                        );
                        assert_eq!(eval.violation, 0.0);
                    }
                }
            }
        }
    }

    /// Every live/suspicion pattern the fleet tests price under: all
    /// live or the first application shed, times no suspicion or a
    /// per-host ramp.
    fn patterns(fleet: &Fleet) -> Vec<(Vec<bool>, Vec<f64>)> {
        let n = fleet.apps().len();
        let hosts = fleet.problem().hosts();
        let mut dead_first = vec![true; n];
        dead_first[0] = false;
        let ramp: Vec<f64> = (0..hosts).map(|h| h as f64 * 0.125).collect();
        let mut out = Vec::new();
        for live in [vec![true; n], dead_first] {
            for suspicion in [vec![0.0; hosts], ramp.clone()] {
                out.push((live.clone(), suspicion));
            }
        }
        out
    }

    /// A random start and `moves` uniformly drawn valid swaps from it:
    /// the chain of states the walk visits.
    fn swap_chain(
        problem: &icm_placement::PlacementProblem,
        rng: &mut Rng,
        moves: usize,
    ) -> Vec<PlacementState> {
        let slots = problem.slots() as u64;
        let mut chain = vec![PlacementState::random(problem, rng)];
        while chain.len() <= moves {
            let a = (rng.next_u64() % slots) as usize;
            let b = (rng.next_u64() % slots) as usize;
            if let Some(next) = chain[chain.len() - 1].swap(problem, a, b) {
                chain.push(next);
            }
        }
        chain
    }

    /// The search memo answers a redrawn neighbour with the bits it was
    /// first priced at, so an evaluation must not depend on what the
    /// objective evaluated before: along seeded swap chains, one
    /// long-lived objective prices each state in chain order, in reverse
    /// and as its first evaluation exactly alike, under every
    /// live/suspicion pattern.
    #[test]
    fn eval_is_a_pure_function_of_the_state() {
        let mut rng = Rng::from_seed(0x5EED);
        for names in [&["M.milc", "H.KM"][..], &["M.milc", "M.Gems", "H.KM"]] {
            let fleet = fleet_fixture(names);
            for (live, suspicion) in &patterns(&fleet) {
                let chain = swap_chain(fleet.problem(), &mut rng, 60);
                let bits = |eval: Eval| (eval.cost.to_bits(), eval.violation.to_bits());
                let mut objective = FleetObjective::new(&fleet, live, suspicion);
                let mut price = |state: &PlacementState| bits(objective.eval(state).expect("cost"));
                let forward: Vec<_> = chain.iter().map(&mut price).collect();
                let mut backward: Vec<_> = chain.iter().rev().map(&mut price).collect();
                backward.reverse();
                assert_eq!(forward, backward, "order changed an evaluation");
                for (state, expected) in chain.iter().zip(&forward) {
                    let mut fresh = FleetObjective::new(&fleet, live, suspicion);
                    assert_eq!(bits(fresh.eval(state).expect("cost")), *expected);
                }
            }
        }
    }

    /// The searches the manager and the daemon run: for several seeds
    /// and both suspicion patterns, the pooled search's reported cost is
    /// exactly the reference cost of the state it returns.
    #[test]
    fn pooled_search_cost_re_evaluates_under_the_reference() {
        let fleet = fleet_fixture(&["M.milc", "H.KM"]);
        let n = fleet.apps().len();
        let hosts = fleet.problem().hosts();
        let live = vec![true; n];
        let suspicion_patterns = [vec![0.0; hosts], {
            (0..hosts).map(|h| h as f64 * 0.125).collect()
        }];
        for suspicion in &suspicion_patterns {
            for seed in [77, 78, 2016] {
                let config = AnnealConfig {
                    iterations: 400,
                    seed,
                    ..AnnealConfig::default()
                };
                let mut objective = FleetObjective::new(&fleet, &live, suspicion);
                let pooled = anneal_with(
                    fleet.problem(),
                    |state| objective.eval(state),
                    &config,
                    &Tracer::disabled(),
                )
                .expect("pooled search");
                let reference =
                    fleet_cost(&fleet, &live, suspicion, &pooled.state).expect("reference cost");
                assert_eq!(
                    pooled.cost.to_bits(),
                    reference.to_bits(),
                    "seed {seed}: pooled {} != reference {reference}",
                    pooled.cost
                );
                assert!(pooled.feasible);
            }
        }
    }
}
