use std::collections::BTreeSet;

use icm_rng::{Rng, Shuffle};

use crate::error::PlacementError;

/// Shape of a placement problem: a cluster of `hosts` hosts, each with
/// `slots_per_host` co-location slots, filled by `workloads.len()`
/// workload instances that each occupy the same number of slots.
///
/// This mirrors §5.1 of the paper: 8 hosts × 16 cores, four applications
/// of 16 VMs each; a *slot* is the paper's scheduling unit of 4 VMs of
/// one application on one host, so each host has 2 slots and each
/// workload owns 4.
///
/// # Example
///
/// ```
/// use icm_placement::PlacementProblem;
///
/// let problem = PlacementProblem::paper_default(vec![
///     "M.milc".into(), "C.libq".into(), "H.KM".into(), "N.cg".into(),
/// ]).expect("4 workloads fill 8×2 slots");
/// assert_eq!(problem.slots(), 16);
/// assert_eq!(problem.slots_per_workload(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementProblem {
    hosts: usize,
    slots_per_host: usize,
    workloads: Vec<String>,
}

icm_json::impl_json!(struct PlacementProblem { hosts, slots_per_host, workloads });

impl PlacementProblem {
    /// Creates a problem, validating that the workloads exactly fill the
    /// slots.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Shape`] if any dimension is zero or the
    /// slot count is not divisible by the workload count.
    pub fn new(
        hosts: usize,
        slots_per_host: usize,
        workloads: Vec<String>,
    ) -> Result<Self, PlacementError> {
        if hosts == 0 || slots_per_host == 0 || workloads.is_empty() {
            return Err(PlacementError::Shape(format!(
                "degenerate problem: {hosts} hosts × {slots_per_host} slots, {} workloads",
                workloads.len()
            )));
        }
        let slots = hosts * slots_per_host;
        if !slots.is_multiple_of(workloads.len()) {
            return Err(PlacementError::Shape(format!(
                "{slots} slots not divisible by {} workloads",
                workloads.len()
            )));
        }
        if slots / workloads.len() > hosts {
            return Err(PlacementError::Shape(format!(
                "each workload would need {} slots but only {hosts} hosts exist \
                 (one slot per host per workload)",
                slots / workloads.len()
            )));
        }
        Ok(Self {
            hosts,
            slots_per_host,
            workloads,
        })
    }

    /// The paper's configuration: 8 hosts, 2 slots per host, four
    /// workload instances.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Shape`] unless exactly four workloads
    /// are given.
    pub fn paper_default(workloads: Vec<String>) -> Result<Self, PlacementError> {
        if workloads.len() != 4 {
            return Err(PlacementError::Shape(format!(
                "the paper's placement mixes have 4 workloads, got {}",
                workloads.len()
            )));
        }
        Self::new(8, 2, workloads)
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Slots per host.
    pub fn slots_per_host(&self) -> usize {
        self.slots_per_host
    }

    /// Total slots.
    pub fn slots(&self) -> usize {
        self.hosts * self.slots_per_host
    }

    /// Slots each workload occupies.
    pub fn slots_per_workload(&self) -> usize {
        self.slots() / self.workloads.len()
    }

    /// The workload instance names (duplicates allowed — e.g. mix HM3
    /// runs two instances of `M.Gems`).
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// Host of a slot index.
    pub fn host_of_slot(&self, slot: usize) -> usize {
        slot / self.slots_per_host
    }
}

/// A concrete assignment of workload instances to slots.
///
/// Invariants (enforced on construction and preserved by
/// [`swap`](PlacementState::swap)):
///
/// * every workload occupies exactly `slots_per_workload` slots, and
/// * no workload occupies two slots of the same host (the paper places
///   at most one 4-VM unit of an application per host).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementState {
    /// `assignment[slot]` = workload index.
    assignment: Vec<usize>,
}

icm_json::impl_json!(struct PlacementState { assignment });

impl PlacementState {
    /// Builds a state from an explicit assignment vector.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::InvalidAssignment`] if the vector has
    /// the wrong length, references an unknown workload, gives a workload
    /// the wrong number of slots, or doubles a workload up on one host.
    pub fn new(problem: &PlacementProblem, assignment: Vec<usize>) -> Result<Self, PlacementError> {
        if assignment.len() != problem.slots() {
            return Err(PlacementError::InvalidAssignment(format!(
                "expected {} slots, got {}",
                problem.slots(),
                assignment.len()
            )));
        }
        let w = problem.workloads().len();
        let mut counts = vec![0usize; w];
        for &idx in &assignment {
            if idx >= w {
                return Err(PlacementError::InvalidAssignment(format!(
                    "workload index {idx} out of range (have {w})"
                )));
            }
            counts[idx] += 1;
        }
        for (idx, &count) in counts.iter().enumerate() {
            if count != problem.slots_per_workload() {
                return Err(PlacementError::InvalidAssignment(format!(
                    "workload {idx} has {count} slots, expected {}",
                    problem.slots_per_workload()
                )));
            }
        }
        for host in 0..problem.hosts() {
            let base = host * problem.slots_per_host();
            let slots = &assignment[base..base + problem.slots_per_host()];
            for (a, &wa) in slots.iter().enumerate() {
                for &wb in &slots[a + 1..] {
                    if wa == wb {
                        return Err(PlacementError::InvalidAssignment(format!(
                            "workload {wa} occupies two slots of host {host}"
                        )));
                    }
                }
            }
        }
        Ok(Self { assignment })
    }

    /// Draws a uniformly random *valid* state.
    pub fn random(problem: &PlacementProblem, rng: &mut Rng) -> Self {
        loop {
            let mut slots: Vec<usize> = (0..problem.workloads().len())
                .flat_map(|w| std::iter::repeat_n(w, problem.slots_per_workload()))
                .collect();
            slots.shuffle(rng);
            if let Ok(state) = Self::new(problem, slots) {
                return state;
            }
        }
    }

    /// The raw assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Workload index in a slot.
    pub fn workload_at(&self, slot: usize) -> usize {
        self.assignment[slot]
    }

    /// Slot indices occupied by a workload, in slot order. The order
    /// defines the workload's per-unit "host positions" for pressure
    /// vectors.
    pub fn slots_of(&self, workload: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &w)| w == workload)
            .map(|(slot, _)| slot)
            .collect()
    }

    /// Hosts occupied by a workload, in slot order.
    pub fn hosts_of(&self, problem: &PlacementProblem, workload: usize) -> Vec<usize> {
        self.slots_of(workload)
            .into_iter()
            .map(|slot| problem.host_of_slot(slot))
            .collect()
    }

    /// The workload co-located with the occupant of `slot` on its host,
    /// if any (the first one, which is the only one when hosts have two
    /// slots; use [`corunners_at`](Self::corunners_at) for larger hosts).
    pub fn corunner_at(&self, problem: &PlacementProblem, slot: usize) -> Option<usize> {
        self.corunners_at(problem, slot).into_iter().next()
    }

    /// All workloads co-located with the occupant of `slot` on its host,
    /// in slot order — the inputs to multi-app score combination when
    /// hosts have more than two slots.
    pub fn corunners_at(&self, problem: &PlacementProblem, slot: usize) -> Vec<usize> {
        let host = problem.host_of_slot(slot);
        let base = host * problem.slots_per_host();
        (base..base + problem.slots_per_host())
            .filter(|&s| s != slot)
            .map(|s| self.assignment[s])
            .collect()
    }

    /// Attempts to swap the workloads in two slots, returning the new
    /// state if the swap is valid (different workloads, no same-host
    /// doubling).
    pub fn swap(&self, problem: &PlacementProblem, a: usize, b: usize) -> Option<Self> {
        if a == b || self.assignment[a] == self.assignment[b] {
            return None;
        }
        let mut next = self.assignment.clone();
        next.swap(a, b);
        Self::new(problem, next).ok()
    }

    /// Whether swapping slots `a` and `b` would produce a valid state,
    /// decided without allocating or re-validating the whole assignment:
    /// the workloads must differ and neither may already occupy another
    /// slot of its destination host. `host_of` is the slot→host table
    /// (`host_of[s] == problem.host_of_slot(s)`), precomputed so the
    /// annealer's per-iteration check never divides. Agrees with
    /// [`swap`](Self::swap)`.is_some()` for every slot pair.
    fn swap_is_valid(&self, per_host: usize, host_of: &[usize], a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let wa = self.assignment[a];
        let wb = self.assignment[b];
        if wa == wb {
            return false;
        }
        let base_b = host_of[b] * per_host;
        for s in base_b..base_b + per_host {
            if s != a && s != b && self.assignment[s] == wa {
                return false;
            }
        }
        let base_a = host_of[a] * per_host;
        for s in base_a..base_a + per_host {
            if s != a && s != b && self.assignment[s] == wb {
                return false;
            }
        }
        true
    }

    /// Transposes two slots in place, without validity checking — the
    /// annealer's move/undo primitive (applying the same transposition
    /// twice restores the state exactly). Callers must have drawn the
    /// pair with [`random_swap_indices`](Self::random_swap_indices).
    pub(crate) fn swap_in_place(&mut self, a: usize, b: usize) {
        self.assignment.swap(a, b);
    }

    /// Copies another state's assignment into this one without
    /// reallocating — the annealer's best-state snapshot primitive.
    /// Both states must belong to the same problem.
    pub(crate) fn copy_assignment_from(&mut self, other: &Self) {
        self.assignment.copy_from_slice(&other.assignment);
    }

    /// Draws the slot indices of a random valid swap, if one exists
    /// within `attempts` tries. Each attempt draws two slots; a pair
    /// touching a workload pinned by `constraints`, or one
    /// [`swap`](Self::swap) would refuse, counts as a failed attempt.
    /// `host_of` is the slot→host table of `problem`.
    pub(crate) fn random_swap_indices(
        &self,
        problem: &PlacementProblem,
        host_of: &[usize],
        rng: &mut Rng,
        attempts: usize,
        constraints: Option<&PlacementConstraints>,
    ) -> Option<(usize, usize)> {
        let slots = problem.slots();
        let per_host = problem.slots_per_host();
        for _ in 0..attempts {
            let a = rng.gen_range(0..slots);
            let b = rng.gen_range(0..slots);
            if constraints.is_some_and(|c| !c.permits_swap(self, a, b)) {
                continue;
            }
            if self.swap_is_valid(per_host, host_of, a, b) {
                return Some((a, b));
            }
        }
        None
    }
}

/// Per-app constraints for incremental re-placement
/// ([`re_anneal_with`](crate::re_anneal_with)):
///
/// * **pin** — a pinned workload's slots never participate in swaps, so
///   its placement is frozen exactly as the warm start left it (e.g.
///   healthy apps the manager refuses to disturb);
/// * **exclude** — a `(workload, host)` pair the search must vacate,
///   expressed as a violation term so the annealer has a gradient toward
///   constraint-satisfying states (e.g. an app barred from a crashed
///   host).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementConstraints {
    pinned: BTreeSet<usize>,
    excluded: BTreeSet<(usize, usize)>,
}

impl PlacementConstraints {
    /// No constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes a workload's slots: no swap may touch them.
    pub fn pin(&mut self, workload: usize) -> &mut Self {
        self.pinned.insert(workload);
        self
    }

    /// Bars `workload` from occupying any slot of `host`.
    pub fn exclude(&mut self, workload: usize, host: usize) -> &mut Self {
        self.excluded.insert((workload, host));
        self
    }

    /// Whether a workload is pinned.
    pub fn is_pinned(&self, workload: usize) -> bool {
        self.pinned.contains(&workload)
    }

    /// Whether `(workload, host)` is an excluded pair.
    pub fn is_excluded(&self, workload: usize, host: usize) -> bool {
        self.excluded.contains(&(workload, host))
    }

    /// Whether no constraint is registered at all.
    pub fn is_empty(&self) -> bool {
        self.pinned.is_empty() && self.excluded.is_empty()
    }

    /// Validates every referenced workload and host index against the
    /// problem shape.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Shape`] on an out-of-range index.
    pub fn check(&self, problem: &PlacementProblem) -> Result<(), PlacementError> {
        let workloads = problem.workloads().len();
        for &w in &self.pinned {
            if w >= workloads {
                return Err(PlacementError::Shape(format!(
                    "pinned workload {w} out of range (have {workloads})"
                )));
            }
        }
        for &(w, h) in &self.excluded {
            if w >= workloads {
                return Err(PlacementError::Shape(format!(
                    "excluded workload {w} out of range (have {workloads})"
                )));
            }
            if h >= problem.hosts() {
                return Err(PlacementError::Shape(format!(
                    "excluded host {h} out of range (have {})",
                    problem.hosts()
                )));
            }
        }
        Ok(())
    }

    /// Whether swapping slots `a` and `b` is permitted (neither slot
    /// holds a pinned workload). Exclusions are deliberately *not*
    /// checked here — they are priced by [`violation`](Self::violation)
    /// so the search can pass through breaching states on its way out of
    /// one.
    pub fn permits_swap(&self, state: &PlacementState, a: usize, b: usize) -> bool {
        !self.is_pinned(state.workload_at(a)) && !self.is_pinned(state.workload_at(b))
    }

    /// Number of exclusion breaches in a state: slots whose workload
    /// occupies a host it is barred from.
    pub fn breaches(&self, problem: &PlacementProblem, state: &PlacementState) -> usize {
        if self.excluded.is_empty() {
            return 0;
        }
        state
            .assignment()
            .iter()
            .enumerate()
            .filter(|&(slot, &w)| self.is_excluded(w, problem.host_of_slot(slot)))
            .count()
    }

    /// Exclusion breaches as a violation term (1.0 per breaching slot),
    /// on the same scale as the annealer's feasibility objective.
    pub fn violation(&self, problem: &PlacementProblem, state: &PlacementState) -> f64 {
        self.breaches(problem, state) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> PlacementProblem {
        PlacementProblem::paper_default(vec!["A".into(), "B".into(), "C".into(), "D".into()])
            .expect("valid")
    }

    fn rng() -> Rng {
        Rng::from_seed(1)
    }

    fn host_of(p: &PlacementProblem) -> Vec<usize> {
        (0..p.slots()).map(|s| p.host_of_slot(s)).collect()
    }

    /// The historical draw the picker must reproduce: two slots per
    /// attempt, kept when the constraints permit them and
    /// [`PlacementState::swap`] accepts them.
    fn reference_pick(
        state: &PlacementState,
        p: &PlacementProblem,
        rng: &mut Rng,
        attempts: usize,
        constraints: &PlacementConstraints,
    ) -> Option<(usize, usize)> {
        for _ in 0..attempts {
            let a = rng.gen_range(0..p.slots());
            let b = rng.gen_range(0..p.slots());
            if constraints.permits_swap(state, a, b) && state.swap(p, a, b).is_some() {
                return Some((a, b));
            }
        }
        None
    }

    #[test]
    fn paper_default_shape() {
        let p = problem();
        assert_eq!(p.hosts(), 8);
        assert_eq!(p.slots(), 16);
        assert_eq!(p.slots_per_workload(), 4);
        assert_eq!(p.host_of_slot(0), 0);
        assert_eq!(p.host_of_slot(15), 7);
    }

    #[test]
    fn shape_validation() {
        assert!(PlacementProblem::new(0, 2, vec!["A".into()]).is_err());
        assert!(PlacementProblem::new(8, 2, vec![]).is_err());
        assert!(PlacementProblem::new(8, 2, vec!["A".into(), "B".into(), "C".into()]).is_err());
        assert!(PlacementProblem::paper_default(vec!["A".into()]).is_err());
        // 2 workloads over 8×2 slots → 8 slots each, fits exactly one per
        // host: allowed.
        assert!(PlacementProblem::new(8, 2, vec!["A".into(), "B".into()]).is_ok());
        // 1 workload over 8×2 → 16 slots but only 8 hosts → would double.
        assert!(PlacementProblem::new(8, 2, vec!["A".into()]).is_err());
    }

    #[test]
    fn random_states_are_valid_and_diverse() {
        let p = problem();
        let mut rng = rng();
        let a = PlacementState::random(&p, &mut rng);
        let b = PlacementState::random(&p, &mut rng);
        assert_ne!(a, b, "two random draws should differ");
        for state in [a, b] {
            for w in 0..4 {
                assert_eq!(state.slots_of(w).len(), 4);
                let hosts = state.hosts_of(&p, w);
                let mut sorted = hosts.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 4, "workload {w} doubled on a host");
            }
        }
    }

    #[test]
    fn explicit_assignment_validation() {
        let p = problem();
        // Interleaved: host i gets workloads (i%4, (i+1)%4) — valid.
        let good: Vec<usize> = (0..8).flat_map(|h| [h % 4, (h + 1) % 4]).collect();
        assert!(PlacementState::new(&p, good).is_ok());
        // Same workload twice on host 0.
        let mut bad: Vec<usize> = (0..8).flat_map(|h| [h % 4, (h + 1) % 4]).collect();
        bad[1] = bad[0];
        assert!(PlacementState::new(&p, bad).is_err());
        // Wrong counts.
        assert!(PlacementState::new(&p, vec![0; 16]).is_err());
        // Wrong length.
        assert!(PlacementState::new(&p, vec![0, 1]).is_err());
        // Out-of-range index.
        let mut oob: Vec<usize> = (0..8).flat_map(|h| [h % 4, (h + 1) % 4]).collect();
        oob[0] = 9;
        assert!(PlacementState::new(&p, oob).is_err());
    }

    #[test]
    fn corunner_lookup() {
        let p = problem();
        let state = PlacementState::new(&p, (0..8).flat_map(|h| [h % 4, (h + 1) % 4]).collect())
            .expect("valid");
        assert_eq!(state.corunner_at(&p, 0), Some(1)); // host 0: [0, 1]
        assert_eq!(state.corunner_at(&p, 1), Some(0));
        assert_eq!(state.corunner_at(&p, 2), Some(2)); // host 1: [1, 2]
    }

    #[test]
    fn swap_preserves_validity() {
        let p = problem();
        let mut rng = rng();
        let state = PlacementState::random(&p, &mut rng);
        let mut found = 0;
        for a in 0..p.slots() {
            for b in 0..p.slots() {
                if let Some(next) = state.swap(&p, a, b) {
                    found += 1;
                    // Re-validating must succeed.
                    PlacementState::new(&p, next.assignment().to_vec()).expect("valid");
                }
            }
        }
        assert!(found > 0, "some swaps must be possible");
    }

    #[test]
    fn swap_rejects_same_workload() {
        let p = problem();
        let state = PlacementState::new(&p, (0..8).flat_map(|h| [h % 4, (h + 1) % 4]).collect())
            .expect("valid");
        // Slots 0 and 8 both hold workload 0 (host 0 and host 4).
        assert_eq!(state.workload_at(0), state.workload_at(8));
        assert!(state.swap(&p, 0, 8).is_none());
        assert!(state.swap(&p, 3, 3).is_none());
    }

    #[test]
    fn swap_is_valid_agrees_with_swap_everywhere() {
        // Paper shape plus a 3-slot-per-host shape (same-host swaps and
        // multi-co-runner doubling checks both exercised).
        let shapes = vec![
            problem(),
            PlacementProblem::new(2, 3, vec!["a".into(), "b".into(), "c".into()]).expect("valid"),
        ];
        let mut rng = rng();
        for p in &shapes {
            let host_of = host_of(p);
            for _ in 0..5 {
                let state = PlacementState::random(p, &mut rng);
                for a in 0..p.slots() {
                    for b in 0..p.slots() {
                        assert_eq!(
                            state.swap_is_valid(p.slots_per_host(), &host_of, a, b),
                            state.swap(p, a, b).is_some(),
                            "swap ({a}, {b}) disagreement on {:?}",
                            state.assignment()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn swap_in_place_is_its_own_undo() {
        let p = problem();
        let mut rng = rng();
        let original = PlacementState::random(&p, &mut rng);
        let mut state = original.clone();
        let (a, b) = original
            .random_swap_indices(&p, &host_of(&p), &mut rng, 64, None)
            .expect("a swap exists");
        state.swap_in_place(a, b);
        assert_ne!(state, original);
        PlacementState::new(&p, state.assignment().to_vec()).expect("still valid");
        state.swap_in_place(a, b);
        assert_eq!(state, original);
    }

    #[test]
    fn random_swap_indices_draw_the_reference_stream() {
        let p = problem();
        let host_of = host_of(&p);
        let state = PlacementState::random(&p, &mut rng());
        let none = PlacementConstraints::new();
        let mut pin = PlacementConstraints::new();
        pin.pin(2);
        for (constraints, reference) in [(None, &none), (Some(&none), &none), (Some(&pin), &pin)] {
            let mut rng_a = Rng::from_seed(77);
            let mut rng_b = Rng::from_seed(77);
            for _ in 0..30 {
                assert_eq!(
                    state.random_swap_indices(&p, &host_of, &mut rng_a, 8, constraints),
                    reference_pick(&state, &p, &mut rng_b, 8, reference),
                    "picks diverged under {constraints:?}"
                );
                assert_eq!(
                    rng_a, rng_b,
                    "word consumption diverged under {constraints:?}"
                );
            }
        }
    }

    #[test]
    fn random_swap_indices_eventually_find_one() {
        let p = problem();
        let mut rng = rng();
        let state = PlacementState::random(&p, &mut rng);
        let (a, b) = state
            .random_swap_indices(&p, &host_of(&p), &mut rng, 64, None)
            .expect("a swap exists");
        assert!(state.swap(&p, a, b).is_some());
    }

    #[test]
    fn constraints_validate_pin_and_exclude_indices() {
        let p = problem();
        let mut ok = PlacementConstraints::new();
        ok.pin(3).exclude(0, 7);
        assert!(ok.check(&p).is_ok());
        assert!(ok.is_pinned(3) && !ok.is_pinned(0));
        assert!(ok.is_excluded(0, 7) && !ok.is_excluded(0, 6));
        assert!(!ok.is_empty());
        assert!(PlacementConstraints::new().is_empty());
        let mut bad_workload = PlacementConstraints::new();
        bad_workload.pin(4);
        assert!(bad_workload.check(&p).is_err());
        let mut bad_host = PlacementConstraints::new();
        bad_host.exclude(0, 8);
        assert!(bad_host.check(&p).is_err());
    }

    #[test]
    fn constrained_swap_never_touches_pinned_workloads() {
        let p = problem();
        let host_of = host_of(&p);
        let state = PlacementState::new(&p, (0..8).flat_map(|h| [h % 4, (h + 1) % 4]).collect())
            .expect("valid");
        let mut constraints = PlacementConstraints::new();
        constraints.pin(0);
        let pinned_slots = state.slots_of(0);
        let mut rng = rng();
        for _ in 0..50 {
            let (a, b) = state
                .random_swap_indices(&p, &host_of, &mut rng, 64, Some(&constraints))
                .expect("unpinned swaps exist");
            let next = state.swap(&p, a, b).expect("a valid swap");
            assert_eq!(next.slots_of(0), pinned_slots, "pinned workload moved");
        }
        // Pinning everything leaves no legal swap.
        let mut all = PlacementConstraints::new();
        for w in 0..4 {
            all.pin(w);
        }
        assert!(state
            .random_swap_indices(&p, &host_of, &mut rng, 64, Some(&all))
            .is_none());
    }

    #[test]
    fn exclusion_breaches_count_offending_slots() {
        let p = problem();
        // Host h holds workloads (h % 4, (h + 1) % 4): host 0 = [0, 1].
        let state = PlacementState::new(&p, (0..8).flat_map(|h| [h % 4, (h + 1) % 4]).collect())
            .expect("valid");
        let mut constraints = PlacementConstraints::new();
        constraints.exclude(0, 0).exclude(1, 0);
        assert_eq!(constraints.breaches(&p, &state), 2);
        assert_eq!(constraints.violation(&p, &state), 2.0);
        let mut clear = PlacementConstraints::new();
        clear.exclude(2, 0);
        assert_eq!(clear.breaches(&p, &state), 0, "host 0 holds no workload 2");
    }

    #[test]
    fn serde_round_trip() {
        let p = problem();
        let state = PlacementState::random(&p, &mut rng());
        let json = icm_json::to_string(&state);
        let back: PlacementState = icm_json::from_str(&json).expect("deserialize");
        assert_eq!(state, back);
    }
}
