//! `endure`: the endurance world — its fleet, crash driver and ambient
//! drift — stepped for a long fixed horizon, checkpointed every
//! [`CHECKPOINT_EVERY`] ticks and restored from its newest checkpoint
//! every [`RESTORE_EVERY`] checkpoints, continuing from the restored
//! world. One operation is one tick together with any checkpoint or
//! restore that follows it, because a live run pays those inline.
//!
//! A run steps several fresh worlds of its seed, one per round, each
//! for [`ROUND_TICKS`] ticks, so each round is the same work and must
//! end in the same world.

use std::path::Path;
use std::time::{Duration, Instant};

use icm_experiments::endurance::World;
use icm_experiments::ExpConfig;
use icm_json::fs::SnapshotStore;
use icm_manager::snapshot::WorldSnapshot;
use icm_manager::ActionKind;
use icm_obs::Tracer as EventTracer;

use crate::trace::Tracer;
use crate::{Check, Outcome};

/// The horizon of each round. The snapshot grows by about 1.5 KB per
/// tick, so a round's last checkpoints encode about 1.6 MB; a round
/// also has at least ten ticks beyond its 99th percentile.
pub const ROUND_TICKS: u64 = 1_100;
/// Rounds per second of requested run time.
const ROUNDS_PER_S: f64 = 0.7;
/// Ticks between checkpoints.
pub const CHECKPOINT_EVERY: u64 = 25;
/// Checkpoints between restores.
pub const RESTORE_EVERY: u64 = 4;
/// Checkpoint generations kept on disk.
const KEEP_GENERATIONS: usize = 3;
/// World constructions timed per round; the reported set-up time is
/// their median over all rounds.
const SETUP_REPS: usize = 10;

/// Rounds a run of `seconds` makes.
pub fn rounds(seconds: u64) -> usize {
    ((seconds as f64 * ROUNDS_PER_S).round() as usize).max(2)
}

/// Builds the world the experiment builds for `seed`, stretched to
/// `ticks` — the only setting the benchmark overrides.
pub fn world(seed: u64, ticks: u64) -> Result<World, String> {
    let mut world = World::new(&ExpConfig { seed, fast: false }, &EventTracer::disabled())
        .map_err(|e| e.to_string())?;
    world.config.ticks = ticks;
    Ok(world)
}

/// Every crash window the driver scheduled so far, as `(host, from_run)`.
pub fn crash_schedule(world: &World) -> Vec<(usize, u64)> {
    world.testbed.fault_plan().map_or_else(Vec::new, |plan| {
        plan.crash_windows
            .iter()
            .map(|w| (w.host, w.from_run))
            .collect()
    })
}

/// Runs `rounds` rounds of `ticks` ticks each, with checkpoints under
/// `state`. `corrupt` flips one byte of a restored snapshot before the
/// round-trip check compares it.
pub fn run(
    seed: u64,
    rounds: usize,
    ticks: u64,
    state: &Path,
    tracer: &mut Tracer,
    corrupt: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut first: Option<Round> = None;
    let mut identical = true;
    let mut round_trips_exact = true;
    let mut horizons_reached = true;
    for round in 0..rounds {
        let dir = state.join(format!("round-{round}"));
        let record = run_round(seed, ticks, &dir, tracer, corrupt && round == 0, &mut out)?;
        let _ = std::fs::remove_dir_all(&dir);
        round_trips_exact &= record.round_trips_exact;
        horizons_reached &= record.ticks == ticks;
        match &first {
            Some(first) => identical &= first.final_snapshot == record.final_snapshot,
            None => first = Some(record),
        }
    }
    let first = first.expect("at least one round");
    out.checks.push(Check::new(
        "endure.restore_round_trip",
        round_trips_exact && first.restores > 0,
        format!(
            "{} restored worlds per round re-snapshot to the bytes they came from",
            first.restores
        ),
    ));
    out.checks.push(Check::new(
        "endure.horizon_reached",
        horizons_reached,
        format!("every round stepped {ticks} ticks"),
    ));
    out.checks.push(Check::new(
        "endure.rounds_identical",
        identical,
        format!("{rounds} same-seed rounds end in byte-identical worlds"),
    ));
    out.counts = first.counts;
    Ok(out)
}

/// What one round did.
struct Round {
    ticks: u64,
    restores: u64,
    round_trips_exact: bool,
    final_snapshot: String,
    counts: Vec<(&'static str, f64)>,
}

/// One round: world constructions, then the horizon with its inline
/// checkpoints and restores.
fn run_round(
    seed: u64,
    ticks: u64,
    state: &Path,
    tracer: &mut Tracer,
    corrupt: bool,
    out: &mut Outcome,
) -> Result<Round, String> {
    let events = EventTracer::disabled();
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        let span = tracer.begin("world.new");
        let begin = Instant::now();
        world = Some(self::world(seed, ticks)?);
        out.setup_s.push(begin.elapsed().as_secs_f64());
        tracer.end(span);
    }
    let mut world = world.expect("at least one world");
    let _ = std::fs::remove_dir_all(state);
    let store = SnapshotStore::open(state).map_err(|e| e.to_string())?;

    let mut stepped = 0u64;
    let mut checkpoints = 0u64;
    let mut restores = 0u64;
    let mut round_trips_exact = true;
    let mut snapshot_bytes = 0usize;
    let mut op_ms = Vec::with_capacity(ticks as usize);
    let mut excluded = Duration::ZERO;
    let work = Instant::now();
    while !world.run.is_done(&world.config) {
        out.attempted += 1;
        stepped += 1;
        let begin = Instant::now();
        let span = tracer.begin("manager.tick");
        world.step(&events).map_err(|e| e.to_string())?;
        tracer.end(span);
        let tick = world.run.next_tick() - 1;
        let mut check_time = Duration::ZERO;
        if tick.is_multiple_of(CHECKPOINT_EVERY) {
            let span = tracer.begin("manager.snapshot");
            let snapshot = world.snapshot(&events, None, 0);
            tracer.end(span);
            let span = tracer.begin("json.encode");
            let text = snapshot.to_text();
            tracer.end(span);
            let span = tracer.begin("fs.save");
            store.save(text.as_bytes()).map_err(|e| e.to_string())?;
            tracer.end(span);
            let span = tracer.begin("fs.prune");
            store.prune(KEEP_GENERATIONS).map_err(|e| e.to_string())?;
            tracer.end(span);
            checkpoints += 1;
            snapshot_bytes = text.len();
            if checkpoints.is_multiple_of(RESTORE_EVERY) {
                let span = tracer.begin("fs.load");
                let (_, bytes) = store
                    .load_latest()
                    .map_err(|e| e.to_string())?
                    .ok_or("the store holds no checkpoint")?;
                tracer.end(span);
                let span = tracer.begin("json.decode");
                let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
                let snapshot = WorldSnapshot::parse(&text).map_err(|e| e.to_string())?;
                tracer.end(span);
                let span = tracer.begin("manager.restore");
                world = World::restore(snapshot, &events).map_err(|e| e.to_string())?;
                tracer.end(span);
                restores += 1;

                let held = Instant::now();
                let mut expected = text.into_bytes();
                if corrupt {
                    expected[0] ^= 1;
                }
                round_trips_exact &=
                    world.snapshot(&events, None, 0).to_text().as_bytes() == expected;
                check_time = held.elapsed();
            }
        }
        excluded += check_time;
        op_ms.push((begin.elapsed() - check_time).as_secs_f64() * 1e3);
        out.ok += 1;
    }
    let pass_s = (work.elapsed() - excluded).as_secs_f64();
    out.work_s += pass_s;
    out.pass_s.push(pass_s);
    out.op_ms.push(op_ms);

    let final_snapshot = world.snapshot(&events, None, 0).to_text();
    let crashes = crash_schedule(&world).len();
    let outcome = world
        .run
        .clone()
        .into_outcome(&world.testbed, &world.fleet, &world.config);
    let counts = vec![
        ("endure.ticks", outcome.ticks as f64),
        ("endure.crashes", crashes as f64),
        ("endure.detections", outcome.detections.len() as f64),
        (
            "endure.migrations",
            outcome.action_count(ActionKind::Migrate) as f64,
        ),
        (
            "endure.reanneals",
            outcome.action_count(ActionKind::ReAnneal) as f64,
        ),
        (
            "endure.sheds",
            outcome.action_count(ActionKind::Shed) as f64,
        ),
        (
            "endure.circuit_breaks",
            outcome.action_count(ActionKind::CircuitBreak) as f64,
        ),
        ("endure.checkpoints", checkpoints as f64),
        ("endure.restores", restores as f64),
        ("endure.snapshot_bytes", snapshot_bytes as f64),
        ("endure.sim_seconds", outcome.sim_seconds),
    ];
    Ok(Round {
        ticks: stepped,
        restores,
        round_trips_exact,
        final_snapshot,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, ticks: u64) -> Vec<(usize, u64)> {
        let events = EventTracer::disabled();
        let mut world = world(seed, ticks).expect("builds");
        while !world.run.is_done(&world.config) {
            world.step(&events).expect("steps");
        }
        crash_schedule(&world)
    }

    #[test]
    fn the_crash_schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(2016, 40);
        assert!(!a.is_empty(), "the driver injects crashes");
        assert_eq!(a, schedule(2016, 40));
        assert_ne!(a, schedule(2017, 40));
    }
}
