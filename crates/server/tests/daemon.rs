//! End-to-end daemon tests: the robustness envelope exercised through
//! the same engine the binary runs, plus a *process-level* crash drill
//! that really aborts a child process mid-stream and proves recovery.

use std::path::{Path, PathBuf};

use icm_json::fs::SnapshotStore;
use icm_json::Json;
use icm_server::frame::Frame;
use icm_server::server::{Server, ServerSnapshot};
use icm_server::world::ServerConfig;
use icm_server::{ServerError, SERVER_SNAPSHOT_VERSION};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icm-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn feed(server: &mut Server, line: &str) -> Vec<Json> {
    server
        .handle_frame(&Frame::Line(line.to_owned()))
        .expect("frame handled")
        .iter()
        .map(|l| icm_json::parse(l).expect("reply parses"))
        .collect()
}

fn status_of(reply: &Json) -> &str {
    reply.get("status").and_then(Json::as_str).expect("status")
}

fn fast_config() -> ServerConfig {
    let mut config = ServerConfig::new(2016, true);
    config.sync = false;
    config
}

#[test]
fn interactive_requests_round_trip_without_persistence() {
    let mut server = Server::start(fast_config(), None).expect("starts");
    // Interactive (no at_ms) requests are served before the next frame.
    let replies = feed(
        &mut server,
        r#"{"id":"p1","kind":"predict","app":"M.milc","corunners":["H.KM"]}"#,
    );
    assert_eq!(replies.len(), 1);
    assert_eq!(status_of(&replies[0]), "ok");
    assert_eq!(
        replies[0].get("degraded").and_then(Json::as_bool),
        Some(false)
    );
    let predicted = replies[0]
        .get("payload")
        .and_then(|p| p.get("predicted"))
        .and_then(Json::as_f64)
        .expect("prediction");
    assert!(predicted >= 1.0, "co-located runtime dilates: {predicted}");

    let replies = feed(
        &mut server,
        r#"{"id":"o1","kind":"observe","app":"M.milc","corunners":["H.KM"],"normalized":1.31}"#,
    );
    assert_eq!(status_of(&replies[0]), "ok");

    let replies = feed(
        &mut server,
        r#"{"id":"pl1","kind":"place","iterations":120,"deadline_ms":500}"#,
    );
    assert_eq!(status_of(&replies[0]), "ok");
    assert!(
        replies[0]
            .get("payload")
            .and_then(|p| p.get("cost"))
            .and_then(Json::as_f64)
            .expect("cost")
            > 0.0
    );

    let replies = feed(&mut server, r#"{"id":"t1","kind":"tick"}"#);
    assert_eq!(status_of(&replies[0]), "ok");

    let replies = feed(&mut server, r#"{"id":"s1","kind":"status"}"#);
    assert_eq!(status_of(&replies[0]), "ok");
    let completed = replies[0]
        .get("payload")
        .and_then(|p| p.get("completed"))
        .and_then(Json::as_f64)
        .expect("completed");
    assert_eq!(completed, 5.0);

    // Malformed frames get typed errors and never poison the loop.
    let replies = feed(&mut server, "this is not json");
    assert_eq!(status_of(&replies[0]), "error");
    assert_eq!(
        replies[0].get("code").and_then(Json::as_str),
        Some("malformed_json")
    );
    let replies = feed(
        &mut server,
        r#"{"id":"u1","kind":"predict","app":"nope","corunners":[]}"#,
    );
    assert_eq!(
        replies[0].get("code").and_then(Json::as_str),
        Some("unknown_app")
    );

    // Shutdown drains, then refuses.
    let replies = feed(&mut server, r#"{"id":"x1","kind":"shutdown"}"#);
    assert_eq!(status_of(&replies[0]), "ok");
    assert!(server.shutting_down());
    let replies = feed(&mut server, r#"{"id":"late","kind":"status"}"#);
    assert_eq!(
        replies[0].get("code").and_then(Json::as_str),
        Some("shutting_down")
    );
}

#[test]
fn bursts_shed_typed_overloads_and_admitted_requests_meet_deadlines() {
    let mut server = Server::start(fast_config(), None).expect("starts");
    let capacity = server.config().queue_capacity;
    let burst = capacity + 6;
    let mut statuses: Vec<Json> = Vec::new();
    for i in 0..burst {
        statuses.extend(feed(
            &mut server,
            &format!(
                r#"{{"id":"b{i}","kind":"predict","app":"M.milc","corunners":[],"deadline_ms":50,"at_ms":1000}}"#
            ),
        ));
    }
    // Everything so far queued or shed — drain with a later arrival.
    statuses.extend(feed(
        &mut server,
        r#"{"id":"drain","kind":"status","at_ms":5000}"#,
    ));
    statuses.extend(
        server
            .finish()
            .expect("drains")
            .iter()
            .map(|l| icm_json::parse(l).unwrap()),
    );
    let shed: Vec<&Json> = statuses
        .iter()
        .filter(|r| status_of(r) == "overloaded")
        .collect();
    let ok: Vec<&Json> = statuses.iter().filter(|r| status_of(r) == "ok").collect();
    assert_eq!(shed.len(), burst - capacity, "typed sheds beyond capacity");
    for reply in &shed {
        assert!(
            reply
                .get("retry_after_us")
                .and_then(Json::as_f64)
                .expect("retry horizon")
                > 0.0
        );
    }
    // Every admitted request completed inside its declared budget.
    assert_eq!(ok.len(), capacity + 1, "admitted burst + drain status");
    for reply in &ok {
        if reply.get("id").and_then(Json::as_str) == Some("drain") {
            continue;
        }
        let latency = reply
            .get("latency_us")
            .and_then(Json::as_f64)
            .expect("latency");
        assert!(latency <= 50_000.0, "within the 50ms budget: {latency}");
    }
    assert_eq!(server.counters().shed, (burst - capacity) as u64);
}

#[test]
fn saturation_serves_degraded_answers_and_deadlines_refuse_late_work() {
    let mut server = Server::start(fast_config(), None).expect("starts");
    // Warm the cache with a fresh interactive prediction.
    let replies = feed(
        &mut server,
        r#"{"id":"warm","kind":"predict","app":"M.milc","corunners":["H.KM"]}"#,
    );
    assert_eq!(status_of(&replies[0]), "ok");
    // Saturate the backlog with placement work, then ask again: the
    // high-priority predict is served first, sees the saturated queue,
    // and answers from the cache, marked degraded.
    let mut replies = Vec::new();
    for i in 0..4 {
        replies.extend(feed(
            &mut server,
            &format!(
                r#"{{"id":"w{i}","kind":"place","iterations":500,"priority":1,"deadline_ms":900,"at_ms":1000}}"#
            ),
        ));
    }
    replies.extend(feed(
        &mut server,
        r#"{"id":"hot","kind":"predict","app":"M.milc","corunners":["H.KM"],"priority":5,"deadline_ms":50,"at_ms":1000}"#,
    ));
    replies.extend(
        server
            .finish()
            .expect("drains")
            .iter()
            .map(|l| icm_json::parse(l).unwrap()),
    );
    let hot = replies
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some("hot"))
        .expect("hot reply");
    assert_eq!(status_of(hot), "ok");
    assert_eq!(hot.get("degraded").and_then(Json::as_bool), Some(true));
    assert_eq!(
        hot.get("payload")
            .and_then(|p| p.get("cached"))
            .and_then(Json::as_bool),
        Some(true)
    );
    assert!(server.counters().degraded >= 1);

    // A tight deadline that cannot cover queue wait + service is
    // refused before any work is burned.
    let mut replies = Vec::new();
    for i in 0..4 {
        replies.extend(feed(
            &mut server,
            &format!(
                r#"{{"id":"z{i}","kind":"place","iterations":500,"deadline_ms":900,"at_ms":20000}}"#
            ),
        ));
    }
    replies.extend(feed(
        &mut server,
        r#"{"id":"late","kind":"predict","app":"M.milc","corunners":[],"priority":0,"deadline_ms":1,"at_ms":20000}"#,
    ));
    replies.extend(
        server
            .finish()
            .expect("drains")
            .iter()
            .map(|l| icm_json::parse(l).unwrap()),
    );
    let late = replies
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some("late"))
        .expect("late reply");
    assert_eq!(status_of(late), "deadline_exceeded");
    assert!(
        late.get("needed_us")
            .and_then(Json::as_f64)
            .expect("needed")
            > late
                .get("budget_us")
                .and_then(Json::as_f64)
                .expect("budget")
    );
}

#[test]
fn the_circuit_opens_when_a_degraded_answer_would_rest_on_defaulted_cells() {
    let mut server = Server::start(fast_config(), None).expect("starts");
    let row = r#"["Defaulted","Defaulted","Defaulted","Defaulted","Defaulted"]"#;
    let grid_text = format!(r#"{{"n":8,"m":4,"cells":[{}]}}"#, [row; 8].join(","));
    let grid: icm_core::QualityGrid = icm_json::from_str(&grid_text).expect("grid parses");
    for app in server.fleet_mut().apps_mut() {
        app.quality = Some(grid.clone());
    }
    // Fresh predictions still serve (marked with their quality)…
    let replies = feed(
        &mut server,
        r#"{"id":"warm","kind":"predict","app":"M.milc","corunners":["H.KM"]}"#,
    );
    assert_eq!(status_of(&replies[0]), "ok");
    assert_eq!(
        replies[0]
            .get("payload")
            .and_then(|p| p.get("quality"))
            .and_then(Json::as_str),
        Some("defaulted")
    );
    // …but the degraded path refuses to lean on them.
    let mut replies = Vec::new();
    for i in 0..4 {
        replies.extend(feed(
            &mut server,
            &format!(
                r#"{{"id":"w{i}","kind":"place","iterations":500,"priority":1,"deadline_ms":900,"at_ms":1000}}"#
            ),
        ));
    }
    replies.extend(feed(
        &mut server,
        r#"{"id":"hot","kind":"predict","app":"M.milc","corunners":["H.KM"],"priority":5,"deadline_ms":50,"at_ms":1000}"#,
    ));
    replies.extend(
        server
            .finish()
            .expect("drains")
            .iter()
            .map(|l| icm_json::parse(l).unwrap()),
    );
    let hot = replies
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some("hot"))
        .expect("hot reply");
    assert_eq!(status_of(hot), "error");
    assert_eq!(hot.get("code").and_then(Json::as_str), Some("circuit_open"));
}

// ---------------------------------------------------------------------
// The process-level crash drill.
//
// A child process (this same test binary, re-executed with an env
// marker) serves a fixed scripted stream against a state directory and
// `abort()`s after N committed replies — no unwinding, no flushing, no
// goodbye. The parent then reruns the child on the same directory to
// completion and proves the journal byte-identical to an uninterrupted
// run's. This is `kill -9` by another name, without the signal-
// delivery race.
// ---------------------------------------------------------------------

const CHILD_STATE: &str = "ICM_DAEMON_CHILD_STATE";
const CHILD_KILL_AFTER: &str = "ICM_DAEMON_CHILD_KILL_AFTER";

/// The scripted stream the crash drill serves: bursts that overload the
/// queue, malformed and damaged frames, observations that move the
/// model, and enough traffic to cross several checkpoints. Each round
/// ends with an unstamped request, which is served as it arrives, so
/// the queue drains at that frame's edge and a checkpoint can land.
fn drill_frames() -> Vec<Frame> {
    let mut frames = Vec::new();
    for round in 0u64..6 {
        let at = 1_000 + round * 400;
        for i in 0..4 {
            frames.push(Frame::Line(format!(
                r#"{{"id":"r{round}-{i}","kind":"predict","app":"M.milc","corunners":["H.KM"],"priority":{i},"deadline_ms":80,"at_ms":{at}}}"#
            )));
        }
        frames.push(Frame::Line(format!(
            r#"{{"id":"o{round}","kind":"observe","app":"M.milc","corunners":["H.KM"],"normalized":1.2{round},"at_ms":{at}}}"#,
        )));
        if round % 2 == 0 {
            frames.push(Frame::Line("{broken json".to_owned()));
            frames.push(Frame::InvalidUtf8);
            frames.push(Frame::Oversized(200_000));
        }
        frames.push(Frame::Line(format!(
            r#"{{"id":"s{round}","kind":"status","at_ms":{}}}"#,
            at + 300
        )));
        frames.push(Frame::Line(format!(
            r#"{{"id":"u{round}","kind":"predict","app":"H.KM","corunners":["M.milc"]}}"#
        )));
    }
    frames
}

fn run_drill_child(state: &Path, kill_after: Option<u64>) {
    let mut config = ServerConfig::new(2016, true);
    config.sync = false; // abort() keeps kernel-buffered writes; only power loss would not
    config.checkpoint_every = 5;
    config.keep_checkpoints = 2;
    let mut server = Server::start(config, Some(state)).expect("child starts");
    // A recovered life resumes the script where the dead one stopped —
    // frames up to `consumed_frames` live in the intake log and were
    // already re-applied by recovery.
    let consumed = server.consumed_frames() as usize;
    for frame in drill_frames().into_iter().skip(consumed) {
        server.handle_frame(&frame).expect("child serves");
        if let Some(limit) = kill_after {
            if server.committed() >= limit {
                std::process::abort();
            }
        }
    }
    server.finish().expect("child drains");
}

/// Child hook: when the env marker is set, this "test" is the crash
/// drill's child process. Without the marker it does nothing.
#[test]
fn crash_drill_child() {
    let Ok(state) = std::env::var(CHILD_STATE) else {
        return;
    };
    let kill_after = std::env::var(CHILD_KILL_AFTER)
        .ok()
        .map(|v| v.parse().expect("kill-after parses"));
    run_drill_child(Path::new(&state), kill_after);
}

fn spawn_child(state: &Path, kill_after: Option<u64>) -> std::process::Output {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--exact", "crash_drill_child", "--nocapture"])
        .env(CHILD_STATE, state)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    match kill_after {
        Some(n) => cmd.env(CHILD_KILL_AFTER, n.to_string()),
        None => cmd.env_remove(CHILD_KILL_AFTER),
    };
    cmd.output().expect("child runs")
}

#[test]
fn kill_dash_nine_loses_no_acknowledged_reply() {
    let reference = scratch("drill-ref");
    let crashed = scratch("drill-crash");

    // Uninterrupted reference run.
    let out = spawn_child(&reference, None);
    assert!(out.status.success(), "reference child failed: {out:?}");

    // Crashed run: abort mid-stream, then resume on the same state.
    let out = spawn_child(&crashed, Some(12));
    assert!(!out.status.success(), "the child must die mid-stream");
    let partial = std::fs::read(crashed.join("journal.log")).expect("partial journal");
    assert!(!partial.is_empty(), "the crashed run committed replies");
    // Recovery must restore a checkpoint, not only replay from frame 0.
    let generations = std::fs::read_dir(crashed.join("checkpoints"))
        .expect("the killed life made a checkpoint dir")
        .count();
    assert!(generations >= 1, "the killed life left no checkpoint");
    let out = spawn_child(&crashed, None);
    assert!(out.status.success(), "recovery failed: {out:?}");

    // No acknowledged reply was lost, none was altered: the recovered
    // journal is byte-identical to the uninterrupted run's.
    let a = std::fs::read(reference.join("journal.log")).expect("reference journal");
    let b = std::fs::read(crashed.join("journal.log")).expect("recovered journal");
    assert!(!a.is_empty());
    assert_eq!(a, b, "journals diverge after kill -9 + recovery");
    assert!(
        b.len() >= partial.len(),
        "recovery never shrinks committed history"
    );
    assert!(
        b.starts_with(&partial[..partial.len().saturating_sub(200)]),
        "recovered journal extends the crashed prefix"
    );

    // Checkpoint pruning bounded the store in both lives.
    let generations = std::fs::read_dir(crashed.join("checkpoints"))
        .expect("checkpoint dir")
        .count();
    assert!(
        (1..=3).contains(&generations),
        "pruning keeps the store bounded, got {generations}"
    );

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&crashed);
}

/// Unstamped requests are served as they arrive, so the queue is empty
/// at every frame edge and checkpoints land mid-stream.
fn unstamped_frames() -> Vec<Frame> {
    (0..8)
        .flat_map(|r| {
            [
                format!(r#"{{"id":"p{r}","kind":"predict","app":"M.milc","corunners":["H.KM"]}}"#),
                format!(r#"{{"id":"o{r}","kind":"observe","app":"H.KM","corunners":["M.milc"],"normalized":1.1{r}}}"#),
                format!(r#"{{"id":"t{r}","kind":"tick","deadline_ms":120000}}"#),
                "{broken json".to_owned(),
                format!(r#"{{"id":"s{r}","kind":"status"}}"#),
            ]
        })
        .map(Frame::Line)
        .collect()
}

fn serve(server: &mut Server, frames: &[Frame]) {
    for frame in frames {
        server.handle_frame(frame).expect("serves");
    }
}

/// The newest usable checkpoint in a daemon's state directory, through
/// the same walk recovery takes.
fn newest_checkpoint(dir: &Path) -> (u64, ServerSnapshot) {
    let store = SnapshotStore::open(&dir.join("checkpoints")).expect("store opens");
    store
        .load_newest(|bytes| {
            ServerSnapshot::parse(&String::from_utf8(bytes).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())
        })
        .expect("walks")
        .expect("a usable generation")
}

/// A daemon whose newest checkpoint is unusable — torn, or a
/// well-formed payload of an unknown format version — recovers from the
/// previous generation: it replays the longer intake suffix, verifies
/// the longer journal suffix, and completes the same journal as an
/// uninterrupted run.
#[test]
fn a_damaged_newest_checkpoint_falls_back_to_the_previous_generation() {
    let config = || {
        let mut config = ServerConfig::new(2016, true);
        config.sync = false;
        config.checkpoint_every = 5;
        config
    };
    let frames = unstamped_frames();
    let reference = scratch("fallback-ref");
    let mut server = Server::start(config(), Some(&reference)).expect("starts");
    serve(&mut server, &frames);
    server.finish().expect("drains");
    let expected = std::fs::read(reference.join("journal.log")).expect("reference journal");

    for damage in ["torn", "unknown-version"] {
        let dir = scratch(&format!("fallback-{damage}"));
        let mut server = Server::start(config(), Some(&dir)).expect("starts");
        serve(&mut server, &frames[..frames.len() / 2]);
        drop(server); // the kill: nothing drains

        let store = SnapshotStore::open(&dir.join("checkpoints")).expect("store opens");
        let generations = store.generations().expect("lists");
        assert!(generations.len() >= 2, "{damage}: {generations:?}");
        let newest = generations[generations.len() - 1];
        let path = dir.join(format!("checkpoints/gen-{newest:06}.icmsnap"));
        if damage == "torn" {
            let bytes = std::fs::read(&path).expect("reads");
            std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("tears");
        } else {
            // Same generation number, intact framing, another version,
            // written by a store that opens after the removal.
            let text = String::from_utf8(store.load(newest).expect("loads")).expect("utf-8");
            std::fs::remove_file(&path).expect("removes");
            let store = SnapshotStore::open(&dir.join("checkpoints")).expect("store reopens");
            let renumbered = store
                .save(
                    text.replacen(
                        &format!("\"version\":{SERVER_SNAPSHOT_VERSION}"),
                        "\"version\":99",
                        1,
                    )
                    .as_bytes(),
                )
                .expect("saves");
            assert_eq!(renumbered, newest);
        }
        let (fallback, _) = newest_checkpoint(&dir);
        assert_eq!(fallback, generations[generations.len() - 2], "{damage}");

        let mut server = Server::start(config(), Some(&dir)).expect("recovers");
        let consumed = server.consumed_frames() as usize;
        assert_eq!(consumed, frames.len() / 2, "{damage}");
        serve(&mut server, &frames[consumed..]);
        server.finish().expect("drains");
        let journal = std::fs::read(dir.join("journal.log")).expect("journal");
        assert!(journal == expected, "{damage}: recovered journal diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&reference);
}

/// Damage in the middle of either log is not a torn tail: the restart
/// is refused with an error naming that log, and the log is left as it
/// is.
#[test]
fn mid_file_damage_in_either_log_is_refused_naming_the_log() {
    let frames = unstamped_frames();
    for name in ["journal.log", "intake.log"] {
        let dir = scratch(&format!("refuse-{name}"));
        let mut server = Server::start(fast_config(), Some(&dir)).expect("starts");
        serve(&mut server, &frames[..frames.len() / 2]);
        drop(server); // the kill: nothing drains
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).expect("reads");
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x20;
        std::fs::write(&path, &bytes).expect("damages");
        let err = Server::start(fast_config(), Some(&dir))
            .err()
            .expect("a damaged log is refused");
        let message = err.to_string();
        assert!(message.contains(name), "{message}");
        assert!(message.contains("mid-file damage"), "{message}");
        assert_eq!(
            std::fs::read(&path).expect("reads"),
            bytes,
            "{name} was changed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Checkpoints of the older store framing (`icmsnap v1`) are refused,
/// not read: with no other generation the restart fails naming the
/// checkpoint directory and the version.
#[test]
fn a_daemon_with_only_v1_checkpoints_is_refused_naming_them() {
    let dir = scratch("v1-checkpoints");
    let mut config = fast_config();
    config.checkpoint_every = 5;
    let mut server = Server::start(config.clone(), Some(&dir)).expect("starts");
    serve(&mut server, &unstamped_frames()[..12]);
    drop(server);
    let store = SnapshotStore::open(&dir.join("checkpoints")).expect("store opens");
    let generations = store.generations().expect("lists");
    assert!(!generations.is_empty());
    for generation in generations {
        let path = dir.join(format!("checkpoints/gen-{generation:06}.icmsnap"));
        let mut bytes = std::fs::read(&path).expect("reads");
        assert_eq!(&bytes[..11], b"icmsnap v2 ");
        bytes[9] = b'1';
        std::fs::write(&path, &bytes).expect("rewrites");
    }
    let message = Server::start(config, Some(&dir))
        .err()
        .expect("v1 checkpoints are refused")
        .to_string();
    assert!(message.contains("checkpoints"), "{message}");
    assert!(
        message.contains("unknown snapshot store version 1"),
        "{message}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `sync: false` changes durability, never bytes: a daemon that skips
/// every fsync — journal, intake log and checkpoints — killed after it
/// has checkpointed, recovers from that checkpoint and completes the
/// journal an uninterrupted `sync: true` daemon commits.
#[test]
fn an_unsynced_daemon_recovers_from_its_checkpoint_to_the_synced_journal() {
    let config = |sync| {
        let mut config = ServerConfig::new(2016, true);
        config.sync = sync;
        config.checkpoint_every = 5;
        config
    };
    let frames = unstamped_frames();
    let reference = scratch("unsynced-ref");
    let mut server = Server::start(config(true), Some(&reference)).expect("starts");
    serve(&mut server, &frames);
    server.finish().expect("drains");
    let expected = std::fs::read(reference.join("journal.log")).expect("reference journal");

    let dir = scratch("unsynced");
    let half = frames.len() / 2;
    let mut server = Server::start(config(false), Some(&dir)).expect("starts");
    serve(&mut server, &frames[..half]);
    drop(server); // the kill: nothing drains
    let (generation, checkpoint) = newest_checkpoint(&dir);
    assert!(
        checkpoint.intake_seq > 0 && checkpoint.journal_seq > 0,
        "the killed life checkpointed mid-stream (generation {generation})"
    );

    let mut server = Server::start(config(false), Some(&dir)).expect("recovers");
    assert_eq!(server.consumed_frames() as usize, half);
    serve(&mut server, &frames[half..]);
    server.finish().expect("drains");
    let journal = std::fs::read(dir.join("journal.log")).expect("journal");
    assert!(
        journal == expected,
        "the unsynced daemon's journal diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference);
}

/// The restart rule: a restarted daemon checkpoints and syncs as its
/// own configuration says, while the checkpoint keeps what shapes
/// replies. A `checkpoint_every 6, sync false` daemon killed after it
/// has checkpointed, restarted with `checkpoint_every 2, sync true`,
/// completes the uninterrupted journal, and every generation it writes
/// records its own cadence and sync. A restart naming another seed is
/// refused with the field's name.
#[test]
fn a_restarted_daemon_takes_its_cadence_and_sync_from_its_own_config() {
    let config = |checkpoint_every, sync| {
        let mut config = ServerConfig::new(2016, true);
        config.checkpoint_every = checkpoint_every;
        config.sync = sync;
        config
    };
    let frames = unstamped_frames();
    let reference = scratch("restart-ref");
    let mut server = Server::start(config(6, false), Some(&reference)).expect("starts");
    serve(&mut server, &frames);
    server.finish().expect("drains");
    let expected = std::fs::read(reference.join("journal.log")).expect("reference journal");

    let dir = scratch("restart");
    let half = frames.len() / 2;
    let mut server = Server::start(config(6, false), Some(&dir)).expect("starts");
    serve(&mut server, &frames[..half]);
    drop(server); // the kill: nothing drains
    let (killed_newest, checkpoint) = newest_checkpoint(&dir);
    assert!(checkpoint.journal_seq > 0, "the killed life checkpointed");

    let mut other_seed = config(2, true);
    other_seed.seed = 7;
    let err = Server::start(other_seed, Some(&dir))
        .err()
        .expect("another seed is refused");
    assert!(
        matches!(&err, ServerError::ConfigMismatch { field, .. } if field == "seed"),
        "{err}"
    );

    let mut server = Server::start(config(2, true), Some(&dir)).expect("recovers");
    assert_eq!(server.config().checkpoint_every, 2);
    assert!(server.config().sync);
    assert_eq!(server.consumed_frames() as usize, half);
    serve(&mut server, &frames[half..]);
    server.finish().expect("drains");
    let journal = std::fs::read(dir.join("journal.log")).expect("journal");
    assert!(
        journal == expected,
        "the restarted daemon's journal diverged"
    );

    let store = SnapshotStore::open(&dir.join("checkpoints")).expect("store opens");
    let written: Vec<u64> = store
        .generations()
        .expect("lists")
        .into_iter()
        .filter(|&g| g > killed_newest)
        .collect();
    assert!(!written.is_empty(), "the restarted life checkpointed");
    for generation in written {
        let text = String::from_utf8(store.load(generation).expect("loads")).expect("utf-8");
        assert!(
            text.contains(r#""checkpoint_every":2"#) && text.contains(r#""sync":true"#),
            "generation {generation} records another config"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference);
}

#[test]
fn same_seed_reruns_commit_byte_identical_journals() {
    let a = scratch("det-a");
    let b = scratch("det-b");
    for dir in [&a, &b] {
        let mut config = ServerConfig::new(2016, true);
        config.sync = false;
        config.checkpoint_every = 7;
        let mut server = Server::start(config, Some(dir)).expect("starts");
        for frame in drill_frames() {
            server.handle_frame(&frame).expect("serves");
        }
        server.finish().expect("drains");
    }
    let journal_a = std::fs::read(a.join("journal.log")).expect("journal a");
    let journal_b = std::fs::read(b.join("journal.log")).expect("journal b");
    assert!(!journal_a.is_empty());
    assert_eq!(journal_a, journal_b, "same seed, same frames, same bytes");
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

/// `place` replies are pinned byte for byte: the search, its seed
/// derivation and its objective's arithmetic may be rebuilt, but a
/// same-seed daemon must keep answering with exactly these lines.
#[test]
fn place_replies_are_pinned_byte_for_byte() {
    let mut server = Server::start(ServerConfig::new(2016, true), None).expect("starts");
    let requests = [
        r#"{"id":"pl1","kind":"place","iterations":120}"#,
        r#"{"id":"pl2","kind":"place","iterations":400}"#,
        r#"{"id":"pl3","kind":"place"}"#,
    ];
    let expected = [
        r#"{"id":"pl1","status":"ok","degraded":false,"latency_us":2200,"payload":{"cost":544.8805970810304,"evaluations":121,"best_iteration":0}}"#,
        r#"{"id":"pl2","status":"ok","degraded":false,"latency_us":5000,"payload":{"cost":544.8805970810304,"evaluations":401,"best_iteration":6}}"#,
        r#"{"id":"pl3","status":"ok","degraded":false,"latency_us":5000,"payload":{"cost":544.8805970810304,"evaluations":401,"best_iteration":16}}"#,
    ];
    for (request, expected) in requests.iter().zip(expected) {
        let replies = server
            .handle_frame(&Frame::Line((*request).to_owned()))
            .expect("frame handled");
        assert_eq!(replies, [expected], "reply to {request}");
    }
}

/// The search-quality floor of the daemon's one-walk `place` search: on
/// the full (non-fast) daemon world, 50 independent 400-iteration
/// fleet searches, seeded the way the daemon seeds successive `place`
/// requests, must each land within 1% of the cheapest of the 50.
#[test]
fn place_searches_land_within_one_percent_of_the_best_of_fifty() {
    use icm_manager::objective::FleetObjective;
    use icm_placement::{anneal_with, AnnealConfig};
    use icm_server::world::build_world;

    for seed in [1u64, 42] {
        let (_, fleet, _, _) = build_world(&ServerConfig::new(seed, false)).expect("world builds");
        let all_live = vec![true; fleet.apps().len()];
        let no_suspicion = vec![0.0; fleet.problem().hosts()];
        let costs: Vec<f64> = (1..=50u64)
            .map(|admitted| {
                let config = AnnealConfig {
                    iterations: 400,
                    seed: seed.wrapping_add(admitted.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    ..AnnealConfig::default()
                };
                let mut objective = FleetObjective::new(&fleet, &all_live, &no_suspicion);
                anneal_with(
                    fleet.problem(),
                    |s| objective.eval(s),
                    &config,
                    &icm_obs::Tracer::disabled(),
                )
                .expect("search runs")
                .cost
            })
            .collect();
        let best = costs.iter().copied().fold(f64::INFINITY, f64::min);
        for (k, cost) in costs.iter().enumerate() {
            assert!(
                *cost <= best * 1.01,
                "world seed {seed}, search {}: cost {cost} is more than 1% above the best {best}",
                k + 1
            );
        }
    }
}

/// A daemon payload that declares the previous format version is
/// refused by that version, not decoded, and a daemon whose only
/// checkpoint is such a generation refuses to start, naming the
/// checkpoint directory.
#[test]
fn snapshots_refuse_unknown_versions() {
    use icm_server::server::ServerSnapshotError;
    let err = ServerSnapshot::parse(r#"{"version":99}"#).expect_err("refused");
    assert_eq!(err, ServerSnapshotError::UnknownVersion(99));
    assert!(err.to_string().contains("(this build reads 3)"), "{err}");
    let err = ServerSnapshot::parse(r#"{"version":3}"#).expect_err("refused");
    assert!(matches!(err, ServerSnapshotError::Payload(_)), "{err}");

    // A real payload in the previous layout: version 2, whose models
    // carried `"tie_tolerance":0.25`.
    let server = Server::start(fast_config(), None).expect("starts");
    let text = icm_json::to_string(&server.snapshot());
    assert!(text.starts_with(r#"{"version":3,"#), "the version leads");
    assert!(
        text.contains(r#""profiling_cost":"#),
        "the payload holds models"
    );
    let older = text
        .replacen(r#""version":3"#, r#""version":2"#, 1)
        .replace(
            r#""profiling_cost":"#,
            r#""tie_tolerance":0.25,"profiling_cost":"#,
        );
    let err = ServerSnapshot::parse(&older).expect_err("refused");
    assert_eq!(err, ServerSnapshotError::UnknownVersion(2));

    let dir = scratch("old-version");
    let checkpoints = dir.join("checkpoints");
    SnapshotStore::open(&checkpoints)
        .expect("store opens")
        .save(older.as_bytes())
        .expect("saves");
    let err = Server::start(fast_config(), Some(&dir))
        .err()
        .expect("an old-version checkpoint is refused");
    let message = err.to_string();
    assert!(
        message.contains(&checkpoints.display().to_string()),
        "the refusal names the checkpoint directory: {message}"
    );
    assert!(message.contains("format version 2"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot shares the daemon's history, app catalog and base models,
/// copy-on-write: holding one across frames that change corrections and
/// history must leave it encoding its capture-time bytes, whether its
/// first encode comes before those frames or after them. The reference
/// bytes come from a twin daemon fed the same frames, so they share no
/// cache with the held snapshot.
#[test]
fn a_held_snapshot_keeps_its_capture_time_bytes() {
    let tick = |k: u64| format!(r#"{{"id":"t{k}","kind":"tick","deadline_ms":120000}}"#);
    let start = || {
        let mut server = Server::start(fast_config(), None).expect("starts");
        // Crossed models mispredict, so the manager detects and reacts:
        // the ticks add history records and settle earlier ones.
        let apps = server.fleet_mut().apps_mut();
        let online = apps[0].online.clone();
        apps[0].online = apps[1].online.clone();
        apps[1].online = online;
        for k in 0..3 {
            assert_eq!(status_of(&feed(&mut server, &tick(k))[0]), "ok");
        }
        server
    };
    let expected = icm_json::to_string(&start().snapshot());
    let provenance = |text: &str| {
        let snapshot = icm_json::parse(text).expect("parses");
        let run = snapshot.get("world").and_then(|w| w.get("run"));
        let records = run.and_then(|r| r.get("provenance"));
        records
            .and_then(Json::as_array)
            .expect("provenance")
            .to_vec()
    };
    let held_provenance = provenance(&expected);
    assert!(!held_provenance.is_empty(), "the prefix made history");
    for encode_at_capture in [true, false] {
        let mut server = start();
        let held = server.snapshot();
        if encode_at_capture {
            assert_eq!(icm_json::to_string(&held), expected);
        }
        for k in 0..12u32 {
            let observe = format!(
                r#"{{"id":"o{k}","kind":"observe","app":"M.milc","corunners":["H.KM"],"normalized":{}}}"#,
                1.5 + 0.1 * f64::from(k)
            );
            assert_eq!(status_of(&feed(&mut server, &observe)[0]), "ok");
            assert_eq!(
                status_of(&feed(&mut server, &tick(3 + u64::from(k)))[0]),
                "ok"
            );
            // Fill the shared caches from the live side, as checkpoints do.
            icm_json::to_string(&server.snapshot());
        }
        let live = provenance(&icm_json::to_string(&server.snapshot()));
        assert!(
            live.len() > held_provenance.len(),
            "the frames added history"
        );
        assert!(
            held_provenance
                .iter()
                .zip(&live)
                .any(|(then, now)| then != now),
            "the frames changed a record the snapshot holds"
        );
        assert_eq!(
            icm_json::to_string(&held),
            expected,
            "encoded at capture: {encode_at_capture}"
        );
    }
}
