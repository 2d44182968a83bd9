//! Savestate contract, end to end: a checkpointed endurance run that is
//! killed mid-flight (a real `abort()` in a child process — no flushes,
//! no destructors) and resumed from its newest good snapshot must
//! produce the same final world, the same structured result, and a
//! byte-identical event trace as the uninterrupted same-seed run.
//!
//! Also: damaged snapshot generations — torn writes, flipped bytes,
//! unknown format versions, missing fields — must fall back to the
//! previous good generation with a typed error trail, never a panic.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::process::Command;

use icm::experiments::endurance::{self, World};
use icm::experiments::ExpConfig;
use icm::json::fs::SnapshotStore;
use icm_manager::snapshot::{SnapshotFormatError, WorldSnapshot};
use icm_obs::{JsonlSink, ProvenanceRecord, Tracer};
use icm_simcluster::{CrashWindow, FaultPlan};

fn fast_cfg() -> ExpConfig {
    ExpConfig {
        seed: 2016,
        fast: true,
    }
}

/// A scratch directory unique to this test process, cleaned on a best-
/// effort basis (a re-run with the same pid overwrites it anyway).
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icm-savestate-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Loads one specific generation from a checkpoint directory.
fn read_generation(dir: &Path, generation: u64) -> WorldSnapshot {
    let store = SnapshotStore::open(dir).expect("store opens");
    let bytes = store.load(generation).expect("generation loads");
    let text = String::from_utf8(bytes).expect("utf-8 payload");
    WorldSnapshot::parse(&text).expect("payload parses")
}

/// Serializes a snapshot with its trace position cleared, so snapshots
/// from runs tracing into different files can be compared for world
/// equality.
fn world_text(mut snapshot: WorldSnapshot) -> String {
    snapshot.trace_path = None;
    snapshot.trace_bytes = 0;
    snapshot.to_text()
}

/// Not a test of its own: the crash half of the kill-and-resume drill.
/// When spawned by [`a_killed_run_resumes_byte_identically`] (signalled
/// via environment), it checkpoints every 2 ticks and `abort()`s after
/// tick 5 — the closest `#![forbid(unsafe_code)]` gets to SIGKILL. When
/// run as part of the normal suite it is a no-op.
#[test]
fn savestate_child_runs_and_aborts() {
    let Ok(dir) = std::env::var("ICM_SAVESTATE_DIR") else {
        return;
    };
    let trace = std::env::var("ICM_SAVESTATE_TRACE").expect("trace path env");
    let tracer = Tracer::jsonl_file(Path::new(&trace)).expect("trace file");
    let outcome = endurance::drive(
        &fast_cfg(),
        &tracer,
        None,
        Some((Path::new(&dir), 2)),
        Some(5),
        Some(Path::new(&trace)),
    );
    unreachable!("drive must abort at tick 5, yet returned {outcome:?}");
}

#[test]
fn a_killed_run_resumes_byte_identically() {
    let base = scratch("kill-resume");
    let kill_dir = base.join("ckpt");
    let kill_trace = base.join("killed-trace.jsonl");

    // Crash drill: run the checkpointing child in its own process and
    // let it abort mid-run, taking whatever it had buffered with it.
    let exe = std::env::current_exe().expect("test binary path");
    let status = Command::new(exe)
        .args(["savestate_child_runs_and_aborts", "--exact"])
        .env("ICM_SAVESTATE_DIR", &kill_dir)
        .env("ICM_SAVESTATE_TRACE", &kill_trace)
        .status()
        .expect("child spawns");
    assert!(!status.success(), "the child must die mid-run");

    // Resume from the newest good generation: checkpoints landed after
    // ticks 2 and 4, the kill hit after tick 5.
    let (generation, snapshot) = endurance::load_resumable(&kill_dir).expect("resumable");
    assert_eq!(generation, 2, "two checkpoints before the kill");
    assert_eq!(snapshot.run.next_tick(), 5);

    // The dead process may have flushed events past the checkpoint;
    // rewind the trace to the checkpointed offset and continue it.
    let file = OpenOptions::new()
        .write(true)
        .open(&kill_trace)
        .expect("trace reopens");
    file.set_len(snapshot.trace_bytes).expect("trace truncates");
    drop(file);
    let tracer = Tracer::with_sink(JsonlSink::append(&kill_trace).expect("append sink"));
    tracer.restore_state(&snapshot.tracer);
    let resumed = endurance::drive(
        &fast_cfg(),
        &tracer,
        Some(snapshot),
        Some((&kill_dir, 2)),
        None,
        Some(&kill_trace),
    )
    .expect("resumed run finishes");
    tracer.flush();

    // The uninterrupted reference, same seed, same checkpoint cadence.
    let ref_dir = base.join("ref-ckpt");
    let ref_trace = base.join("ref-trace.jsonl");
    let tracer = Tracer::jsonl_file(&ref_trace).expect("trace file");
    let reference = endurance::drive(
        &fast_cfg(),
        &tracer,
        None,
        Some((&ref_dir, 2)),
        None,
        Some(&ref_trace),
    )
    .expect("reference run finishes");
    tracer.flush();

    // Structured results: identical, byte for byte.
    assert_eq!(resumed, reference);
    assert_eq!(
        icm::json::to_string(&resumed),
        icm::json::to_string(&reference)
    );

    // Event traces: the resumed file is the byte-identical whole.
    let killed_bytes = std::fs::read(&kill_trace).expect("killed trace");
    let ref_bytes = std::fs::read(&ref_trace).expect("reference trace");
    assert!(!ref_bytes.is_empty(), "the trace must carry events");
    assert_eq!(
        killed_bytes, ref_bytes,
        "resumed trace must be the byte-identical suffix-completed trace"
    );

    // Final world: the tick-6 checkpoint both runs wrote is the same
    // world (trace position aside — the files differ by name only).
    assert_eq!(
        world_text(read_generation(&kill_dir, 3)),
        world_text(read_generation(&ref_dir, 3)),
    );

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn damaged_generations_fall_back_to_the_previous_good_snapshot() {
    let base = scratch("corruption");
    let dir = base.join("ckpt");

    // An untraced checkpointed run: generations 1, 2, 3 land after
    // ticks 2, 4, 6 of the 8-tick fast horizon.
    endurance::drive(
        &fast_cfg(),
        &Tracer::disabled(),
        None,
        Some((&dir, 2)),
        None,
        None,
    )
    .expect("checkpointed run finishes");
    let (generation, newest) = endurance::load_resumable(&dir).expect("loads");
    assert_eq!(generation, 3);
    assert_eq!(newest.run.next_tick(), 7);

    let store = SnapshotStore::open(&dir).expect("store opens");

    // This run's newest payload as the previous format version wrote
    // it (version 3 models carried `"tie_tolerance":0.25`): refused by
    // that version, and the previous generation wins.
    let text = String::from_utf8(store.load(3).expect("loads")).expect("utf-8");
    assert!(
        text.contains("\"profiling_cost\":"),
        "the payload holds models"
    );
    let older = text.replacen("\"version\":4", "\"version\":3", 1).replace(
        "\"profiling_cost\":",
        "\"tie_tolerance\":0.25,\"profiling_cost\":",
    );
    assert_eq!(
        WorldSnapshot::parse(&older).expect_err("refused"),
        SnapshotFormatError::UnknownVersion(3)
    );
    store.save(older.as_bytes()).expect("saves gen 4");
    assert_eq!(endurance::load_resumable(&dir).expect("falls back").0, 3);

    // Unknown format version in a perfectly intact store frame: the
    // payload check rejects it, the previous generation wins.
    store.save(b"{\"version\":9}").expect("saves gen 5");
    assert_eq!(endurance::load_resumable(&dir).expect("falls back").0, 3);

    // Right version, missing fields: same fallback.
    store.save(b"{\"version\":4}").expect("saves gen 6");
    assert_eq!(endurance::load_resumable(&dir).expect("falls back").0, 3);

    // One flipped byte mid-payload: the checksum rejects generation 3.
    let gen3 = dir.join("gen-000003.icmsnap");
    let mut bytes = std::fs::read(&gen3).expect("reads");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&gen3, &bytes).expect("writes damage");
    let (generation, fallback) = endurance::load_resumable(&dir).expect("falls back");
    assert_eq!(generation, 2);
    assert_eq!(fallback.run.next_tick(), 5);

    // A torn (truncated) generation 2: fall through to generation 1.
    let gen2 = dir.join("gen-000002.icmsnap");
    let len = std::fs::metadata(&gen2).expect("meta").len();
    let file = OpenOptions::new().write(true).open(&gen2).expect("opens");
    file.set_len(len / 2).expect("truncates");
    drop(file);
    assert_eq!(endurance::load_resumable(&dir).expect("falls back").0, 1);

    // Nothing left: a typed error that lists every failed generation.
    std::fs::write(dir.join("gen-000001.icmsnap"), b"garbage").expect("writes");
    let err = endurance::load_resumable(&dir).expect_err("nothing usable");
    let message = err.to_string();
    for generation in 1..=6 {
        assert!(
            message.contains(&format!("generation {generation}")),
            "error must list generation {generation}: {message}"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}

/// What the history cache had to get right between two checks: records
/// that were encoded at one check and then changed before the next.
#[derive(Debug, Default)]
struct Edited {
    /// Encoded records whose report card resolved afterwards.
    resolved: usize,
    /// Encoded records a recovery settled afterwards.
    settled: usize,
}

/// Oracle for the run-history cache: every `every` ticks the streamed
/// savestate, which splices each record's cached text, must hold
/// the history exactly as an encode of the live records writes it, with
/// no cache at all. Every `restore_every`-th check rebuilds the world
/// from that text, so the cache also restarts empty mid-run. `step`
/// advances the world one tick.
fn history_matches_uncached(
    mut world: World,
    every: u64,
    restore_every: u64,
    step: impl Fn(&mut World, &Tracer),
) -> Edited {
    let tracer = Tracer::disabled();
    let mut edited = Edited::default();
    let mut sealed: Vec<ProvenanceRecord> = Vec::new();
    let mut checks = 0u64;
    while !world.run.is_done(&world.config) {
        step(&mut world, &tracer);
        let tick = world.run.next_tick() - 1;
        if !tick.is_multiple_of(every) {
            continue;
        }
        let text = world.snapshot(&tracer, None, 0).to_text();
        // The outcome hands the records over in plain vectors, which
        // carry no cache.
        let outcome = world
            .run
            .clone()
            .into_outcome(&world.testbed, &world.fleet, &world.config);
        let history = format!(
            r#""detections":{},"actions":{},"provenance":{},"start_stats":"#,
            icm_json::to_string(&outcome.detections),
            icm_json::to_string(&outcome.actions),
            icm_json::to_string(&outcome.provenance),
        );
        assert!(
            text.contains(&history),
            "the savestate's history left its uncached encoding at tick {tick}"
        );
        let provenance = outcome.provenance;
        let open = provenance.iter().take_while(|r| r.resolved).count();
        assert!(
            provenance[open..].iter().all(|r| !r.resolved),
            "resolved provenance must be a prefix at tick {tick}"
        );
        for (before, now) in sealed.iter().zip(&provenance) {
            edited.resolved += usize::from(!before.resolved && now.resolved);
            edited.settled += usize::from(before.outcome.is_none() && now.outcome.is_some());
        }
        sealed = provenance;
        checks += 1;
        if checks.is_multiple_of(restore_every) {
            let parsed = WorldSnapshot::parse(&text).expect("savestate parses");
            world = World::restore(parsed, &tracer).expect("restores");
        }
    }
    edited
}

/// Snapshots store seeds as JSON numbers, exact up to 2^53 (the CLIs
/// refuse larger seeds): a world at the largest accepted seed must
/// snapshot, parse and restore to byte-identical text, and resume.
///
/// The same holds for that text with a key this version does not know
/// in its manager config (the `"migration_cost_s":30` an earlier layout
/// stored there): decoding ignores it, so it restores to this version's
/// bytes.
#[test]
fn a_world_at_seed_two_to_the_53_restores_byte_identically() {
    let cfg = ExpConfig {
        seed: icm_json::MAX_EXACT_INT,
        fast: true,
    };
    let tracer = Tracer::disabled();
    let mut world = World::new(&cfg, &tracer).expect("world builds");
    for _ in 0..3 {
        world.step(&tracer).expect("steps");
    }
    let text = world.snapshot(&tracer, None, 0).to_text();
    assert!(text.contains("9007199254740992"), "the seed is stored");
    world.step(&tracer).expect("steps");
    let next = world.snapshot(&tracer, None, 0).to_text();

    let config = text
        .find("\"config\":{\"ticks\":")
        .expect("the manager config is stored")
        + "\"config\":{".len();
    let older = format!(
        "{}\"migration_cost_s\":30,{}",
        &text[..config],
        &text[config..]
    );
    for input in [&text, &older] {
        let parsed = WorldSnapshot::parse(input).expect("parses");
        let mut restored = World::restore(parsed, &tracer).expect("restores");
        assert_eq!(restored.snapshot(&tracer, None, 0).to_text(), text);
        restored.step(&tracer).expect("resumes");
        assert_eq!(restored.snapshot(&tracer, None, 0).to_text(), next);
    }
}

#[test]
fn streamed_savestates_equal_their_trees_on_a_long_endurance_world() {
    let cfg = ExpConfig {
        seed: 7,
        fast: false,
    };
    let mut world = World::new(&cfg, &Tracer::disabled()).expect("world builds");
    world.config.ticks = 300;
    let edited = history_matches_uncached(world, 10, 5, |world, tracer| {
        world.step(tracer).expect("steps");
    });
    assert!(
        edited.resolved > 0,
        "no cached record was resolved: {edited:?}"
    );
}

/// The fast endurance fleet without ambient drift or the crash driver,
/// over 120 ticks under scripted crash windows and stragglers: a
/// straggler kill fails its tick, so the re-anneal it triggers stays
/// unsettled until a later tick's recovery.
fn recovering_world() -> World {
    let mut world = World::new(&fast_cfg(), &Tracer::disabled()).expect("world builds");
    world.config.ticks = 120;
    world.config.environment = None;
    let hosts = world.testbed.cluster().hosts();
    let first = world.testbed.peek_run();
    world.testbed.set_fault_plan(Some(FaultPlan {
        straggler_prob: 0.2,
        straggler_severity: 2.0,
        crash_windows: (0..12)
            .map(|k| CrashWindow {
                host: k % hosts,
                from_run: first + 3 + 10 * k as u64,
                until_run: first + 5 + 10 * k as u64,
            })
            .collect(),
        ..FaultPlan::default()
    }));
    world
}

/// Steps a [`recovering_world`] one tick, without the crash driver.
fn step_recovering(world: &mut World, tracer: &Tracer) {
    world
        .run
        .step(&mut world.testbed, &mut world.fleet, &world.config, tracer)
        .expect("steps");
}

/// The oracle checks after every tick of a [`recovering_world`].
#[test]
fn streamed_savestates_equal_their_trees_through_recoveries() {
    let edited = history_matches_uncached(recovering_world(), 1, 25, step_recovering);
    assert!(
        edited.settled > 0,
        "no cached record was settled: {edited:?}"
    );
    assert!(
        edited.resolved > 0,
        "no cached record was resolved: {edited:?}"
    );
}

/// A snapshot shares the world's history, app catalog and base models,
/// copy-on-write: holding one while the world steps on through
/// provenance settlements must leave it encoding its capture-time
/// bytes, whether its first encode comes at capture or after the steps.
/// The reference bytes come from a twin world stepped the same way, so
/// they share no cache with the held snapshot.
#[test]
fn a_held_snapshot_keeps_its_capture_time_bytes() {
    // Three records are unresolved and unsettled after tick 43.
    const CAPTURE_TICK: u64 = 43;
    let tracer = Tracer::disabled();
    let prefix = || {
        let mut world = recovering_world();
        while world.run.next_tick() <= CAPTURE_TICK {
            step_recovering(&mut world, &tracer);
        }
        world
    };
    let provenance = |world: &World| {
        let run = world.run.clone();
        run.into_outcome(&world.testbed, &world.fleet, &world.config)
            .provenance
    };
    let expected = prefix().snapshot(&tracer, None, 0).to_text();
    for encode_at_capture in [true, false] {
        let mut world = prefix();
        let held = world.snapshot(&tracer, None, 0);
        let captured = provenance(&world);
        if encode_at_capture {
            assert_eq!(held.to_text(), expected);
        }
        while !world.run.is_done(&world.config) {
            step_recovering(&mut world, &tracer);
            // Fill the shared caches from the live side, as checkpoints do.
            world.snapshot(&tracer, None, 0).to_text();
        }
        assert!(world.run.next_tick() > CAPTURE_TICK + 50);
        let now = provenance(&world);
        let changed = |edit: fn(&ProvenanceRecord, &ProvenanceRecord) -> bool| {
            captured
                .iter()
                .zip(&now)
                .filter(|(a, b)| edit(a, b))
                .count()
        };
        let resolved = changed(|then, now| !then.resolved && now.resolved);
        let settled = changed(|then, now| then.outcome.is_none() && now.outcome.is_some());
        assert!(resolved > 0, "no held record was resolved afterwards");
        assert!(settled > 0, "no held record was settled afterwards");
        assert_eq!(
            held.to_text(),
            expected,
            "encoded at capture: {encode_at_capture}"
        );
    }
}
