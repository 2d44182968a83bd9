//! `serve`: a seeded request script rendered to bytes, read back through
//! the daemon's `FrameReader`, and fed to one `Server` built from the
//! default configuration — persistent state, periodic checkpoints — with
//! one kill and recovery midway.
//!
//! One setting is overridden: the per-commit fsync of the journal and
//! intake log (`sync`). With it on, every frame costs two fsyncs, and on
//! a shared virtual disk their latency swings by half between runs
//! minutes apart, which no run length averages away. Checkpoints still
//! fsync: they are written through `atomic_write` regardless.
//!
//! Placement requests name no `iterations`, so each searches with the
//! daemon's default budget (400 iterations per lane, the size the
//! repository's own server bench sends).
//!
//! One client runs a closed loop: it sends a frame, waits for
//! `handle_frame` to return, then sends the next. Steady requests carry
//! no arrival stamp, so the server serves each before reading on.
//! Overload bursts are the exception: the client pipelines a burst of
//! same-instant stamped requests deeper than the queue, so the excess
//! sheds typed and the queued rest drains on the next frame. One
//! operation is one `handle_frame` call.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use icm_json::fs::SnapshotStore;
use icm_json::Json;
use icm_server::protocol::MAX_PLACE_ITERATIONS;
use icm_server::server::{
    OBSERVE_COST_US, PLACE_BASE_COST_US, PLACE_PER_ITERATION_COST_US, PREDICT_FULL_COST_US,
    REJECT_COST_US, STATUS_COST_US, TICK_COST_US,
};
use icm_server::{Frame, FrameReader, LineJournal, Server, ServerConfig};

use crate::rng::SplitMix64;
use crate::trace::Tracer;
use crate::{Check, Outcome};

/// Frames in the script.
const SCRIPT_FRAMES: usize = 5_000;
/// Passes over the script per second of requested run time. Each pass
/// runs against a fresh daemon: checkpoint size grows with the ticks a
/// daemon has served, so checkpoint traffic grows with the square of a
/// script's length, and many passes over one script measure more frames
/// with bounded checkpoints. Every pass must commit the same journal.
const PASSES_PER_S: f64 = 1.8;
/// Cold starts timed per pass; the reported set-up time is the median
/// over all of them.
const SETUP_REPS: usize = 4;
/// The script is dealt in decks of this many frames, each holding one
/// overload burst and the single-frame requests of [`DECK_MIX`], with
/// predictions filling the rest, shuffled by the seed. Every seed thus
/// sends the same mix and only its order and arguments vary.
const DECK_FRAMES: usize = 200;
/// Single-frame requests in each deck other than predictions: 3%
/// refused, 5% place, 5% tick, 5% status, 10% observe.
const DECK_MIX: [(Kind, usize); 5] = [
    (Kind::Refused, 6),
    (Kind::Place, 10),
    (Kind::Tick, 10),
    (Kind::Status, 10),
    (Kind::Observe, 20),
];
/// A line this long exceeds the daemon's frame bound.
const OVERSIZED_BYTES: usize = 70_000;

/// Passes a run of `seconds` makes.
pub fn passes(seconds: u64) -> usize {
    ((seconds as f64 * PASSES_PER_S).round() as usize).max(2)
}

/// What the client meant a frame to be; it names the frame's span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A fresh prediction.
    Predict,
    /// An observation fed back into an online model.
    Observe,
    /// A bounded placement search.
    Place,
    /// One supervised manager tick.
    Tick,
    /// A status query.
    Status,
    /// A frame built to be refused: damaged framing, malformed JSON, an
    /// unknown application, or a deadline below the request's cost.
    Refused,
    /// A stamped prediction inside an overload burst.
    Burst,
}

impl Kind {
    /// The span a frame of this kind is recorded under.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Predict => "server.predict",
            Kind::Observe => "server.observe",
            Kind::Place => "server.place",
            Kind::Tick => "server.tick",
            Kind::Status => "server.status",
            Kind::Refused => "server.refused",
            Kind::Burst => "server.burst",
        }
    }
}

/// One scripted frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptFrame {
    /// What the frame is meant to exercise.
    pub kind: Kind,
    /// The request id a reply must echo; `None` for frames too damaged
    /// to carry one.
    pub id: Option<String>,
}

/// The rendered request script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// The bytes a client would write, newline-delimited.
    pub bytes: Vec<u8>,
    /// One entry per frame in `bytes`.
    pub frames: Vec<ScriptFrame>,
}

/// Builds the request script: a pure function of its arguments.
///
/// Steady requests carry no `at_ms` stamp. Bursts are stamped past an
/// upper bound of the server's virtual clock (the sum of every earlier
/// request's priced cost), so a burst never arrives in the past.
pub fn build_script(seed: u64, frames: usize, queue_capacity: usize, apps: &[String]) -> Script {
    let mut rng = SplitMix64::new(seed ^ 0x5E7E_5C12_1F7B_0001);
    let mut script = Script {
        bytes: Vec::new(),
        frames: Vec::new(),
    };
    let mut clock_bound_us: u64 = 0;
    let mut deck = Vec::with_capacity(DECK_FRAMES);
    while script.frames.len() < frames {
        let burst = queue_capacity + 2 + rng.below(5) as usize;
        deck.clear();
        deck.push(Kind::Burst);
        for &(kind, count) in &DECK_MIX {
            deck.extend(std::iter::repeat_n(kind, count));
        }
        let predictions = DECK_FRAMES.saturating_sub(deck.len() - 1 + burst);
        deck.extend(std::iter::repeat_n(Kind::Predict, predictions));
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &kind in &deck {
            let n = script.frames.len();
            if n == frames {
                break;
            }
            if kind == Kind::Burst && n + burst > frames {
                continue;
            }
            let id = format!("f{n}");
            clock_bound_us = push_step(
                &mut script,
                &mut rng,
                kind,
                &id,
                burst,
                clock_bound_us,
                apps,
            );
        }
    }
    script
}

/// Appends one step of the script — a burst of `burst` frames, or one
/// frame — and returns the new upper bound of the virtual clock.
fn push_step(
    script: &mut Script,
    rng: &mut SplitMix64,
    kind: Kind,
    id: &str,
    burst: usize,
    mut clock_bound_us: u64,
    apps: &[String],
) -> u64 {
    match kind {
        Kind::Burst => {
            let n = script.frames.len();
            let at_ms = clock_bound_us / 1_000 + 1;
            for i in 0..burst {
                let id = format!("f{}", n + i);
                let app = &apps[rng.below(apps.len() as u64) as usize];
                let priority = rng.below(4);
                push_line(
                    script,
                    Kind::Burst,
                    Some(&id),
                    &format!(
                        r#"{{"id":"{id}","kind":"predict","app":"{app}","corunners":[],"priority":{priority},"at_ms":{at_ms}}}"#
                    ),
                );
            }
            clock_bound_us = at_ms * 1_000 + burst as u64 * PREDICT_FULL_COST_US;
        }
        Kind::Refused => {
            clock_bound_us += REJECT_COST_US;
            match rng.below(5) {
                0 => push_line(script, kind, None, r#"{"id":"f","kind":"#),
                1 => push_line(script, kind, None, &"x".repeat(OVERSIZED_BYTES)),
                2 => {
                    script
                        .bytes
                        .extend_from_slice(b"\xff\xfe{\"id\":\"bad\"}\n");
                    script.frames.push(ScriptFrame { kind, id: None });
                }
                3 => push_line(
                    script,
                    kind,
                    Some(id),
                    &format!(r#"{{"id":"{id}","kind":"predict","app":"X.none","corunners":[]}}"#),
                ),
                _ => push_line(
                    script,
                    kind,
                    Some(id),
                    &format!(r#"{{"id":"{id}","kind":"place","iterations":500,"deadline_ms":1}}"#),
                ),
            }
        }
        Kind::Place => {
            // No `iterations`: the daemon's default search budget.
            clock_bound_us +=
                PLACE_BASE_COST_US + PLACE_PER_ITERATION_COST_US * MAX_PLACE_ITERATIONS;
            push_line(
                script,
                kind,
                Some(id),
                &format!(r#"{{"id":"{id}","kind":"place"}}"#),
            );
        }
        Kind::Tick => {
            clock_bound_us += TICK_COST_US;
            push_line(
                script,
                kind,
                Some(id),
                &format!(r#"{{"id":"{id}","kind":"tick"}}"#),
            );
        }
        Kind::Status => {
            clock_bound_us += STATUS_COST_US;
            push_line(
                script,
                kind,
                Some(id),
                &format!(r#"{{"id":"{id}","kind":"status"}}"#),
            );
        }
        Kind::Observe | Kind::Predict => {
            let app = rng.below(apps.len() as u64) as usize;
            let corunners: Vec<String> = apps
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != app && rng.below(2) == 1)
                .map(|(_, name)| format!("\"{name}\""))
                .collect();
            let corunners = corunners.join(",");
            let app = &apps[app];
            if kind == Kind::Observe {
                clock_bound_us += OBSERVE_COST_US;
                let normalized = 1.0 + (rng.below(6_000) as f64) / 10_000.0;
                push_line(
                    script,
                    kind,
                    Some(id),
                    &format!(
                        r#"{{"id":"{id}","kind":"observe","app":"{app}","corunners":[{corunners}],"normalized":{normalized}}}"#
                    ),
                );
            } else {
                clock_bound_us += PREDICT_FULL_COST_US;
                push_line(
                    script,
                    kind,
                    Some(id),
                    &format!(
                        r#"{{"id":"{id}","kind":"predict","app":"{app}","corunners":[{corunners}]}}"#
                    ),
                );
            }
        }
    }
    clock_bound_us
}

fn push_line(script: &mut Script, kind: Kind, id: Option<&str>, line: &str) {
    script.bytes.extend_from_slice(line.as_bytes());
    script.bytes.push(b'\n');
    script.frames.push(ScriptFrame {
        kind,
        id: id.map(str::to_owned),
    });
}

/// Replies tallied from the committed journal.
#[derive(Debug, Default)]
struct Tally {
    by_status: BTreeMap<String, u64>,
    degraded: u64,
    evaluations: u64,
    best_iterations: u64,
    by_id: BTreeMap<String, u64>,
    without_id: u64,
}

fn tally(lines: &[String]) -> Result<Tally, String> {
    let mut tally = Tally::default();
    for line in lines {
        let reply = icm_json::parse(line).map_err(|e| format!("unparseable reply: {e}"))?;
        let status = reply
            .get("status")
            .and_then(Json::as_str)
            .ok_or("reply without a status")?;
        *tally.by_status.entry(status.to_owned()).or_default() += 1;
        if reply.get("degraded").and_then(Json::as_bool) == Some(true) {
            tally.degraded += 1;
        }
        if let Some(payload) = reply.get("payload") {
            let field = |name| payload.get(name).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            tally.evaluations += field("evaluations");
            tally.best_iterations += field("best_iteration");
        }
        match reply.get("id").and_then(Json::as_str) {
            Some(id) => *tally.by_id.entry(id.to_owned()).or_default() += 1,
            None => tally.without_id += 1,
        }
    }
    Ok(tally)
}

/// One pass's committed record.
struct Pass {
    journal: Vec<String>,
    tally: Tally,
    committed: u64,
    checkpoints: u64,
    journal_bytes: u64,
}

/// Runs the script `passes` times, each pass against a fresh daemon
/// whose state lives under `state`. `corrupt` alters one acknowledged
/// reply before the checks see it.
pub fn run(
    seed: u64,
    passes: usize,
    state: &Path,
    tracer: &mut Tracer,
    corrupt: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut config = ServerConfig::new(seed, false);
    config.sync = false;
    let apps: Vec<String> = config.apps.iter().map(|a| a.name.clone()).collect();
    let script = build_script(seed, SCRIPT_FRAMES, config.queue_capacity, &apps);
    let mut checkpoint_frame_ms = Vec::new();
    let mut first: Option<Pass> = None;
    let mut identical = true;
    for pass in 0..passes {
        let dir = state.join(format!("pass-{pass}"));
        let corrupt = corrupt && pass == 0;
        let checked = out.checks.len();
        let record = run_pass(
            &script,
            &config,
            &dir,
            tracer,
            corrupt,
            &mut out,
            &mut checkpoint_frame_ms,
        )?;
        // Every pass is checked; past the first, only failures print.
        for check in &mut out.checks[checked..] {
            check.detail = format!("pass {pass} of {passes}: {}", check.detail);
        }
        if pass > 0 {
            let mut index = 0;
            out.checks.retain(|check| {
                index += 1;
                index <= checked || !check.passed
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
        match &first {
            Some(first) => identical &= first.journal == record.journal,
            None => first = Some(record),
        }
    }
    out.checks.push(Check::new(
        "serve.passes_identical",
        identical,
        format!("{passes} same-seed passes commit byte-identical journals"),
    ));

    let first = first.expect("at least one pass");
    let tally = &first.tally;
    let status = |name: &str| tally.by_status.get(name).copied().unwrap_or(0);
    out.ok = status("ok") * passes as u64;
    out.counts = vec![
        ("serve.replies.ok", status("ok") as f64),
        ("serve.replies.overloaded", status("overloaded") as f64),
        (
            "serve.replies.deadline_exceeded",
            status("deadline_exceeded") as f64,
        ),
        ("serve.replies.error", status("error") as f64),
        ("serve.replies.degraded", tally.degraded as f64),
        ("serve.committed", first.committed as f64),
        ("serve.checkpoints", first.checkpoints as f64),
        ("serve.journal_bytes", first.journal_bytes as f64),
        ("serve.place_evaluations", tally.evaluations as f64),
    ];
    out.derived = vec![
        (
            "place.useful_frac",
            if tally.evaluations > 0 {
                tally.best_iterations as f64 / tally.evaluations as f64
            } else {
                0.0
            },
        ),
        (
            "server.checkpoint_frame_ms",
            crate::stats::median(&checkpoint_frame_ms),
        ),
    ];
    Ok(out)
}

/// Finds the frames that wrote a checkpoint, from the daemon's snapshot
/// store: a frame wrote one when the newest generation on disk moved
/// during it. A daemon checkpoints once `checkpoint_every` commits have
/// passed since its last checkpoint (later if its queue is not empty),
/// so after a checkpoint seen here the store is read again only from
/// that many commits on. A recovered daemon counts from the checkpoint
/// it restored, which lies before the replayed commits, so until its
/// first checkpoint the store is read after every frame.
struct Checkpoints {
    store: SnapshotStore,
    newest: u64,
    read_from: u64,
}

impl Checkpoints {
    fn new(server: &Server, state: &Path, recovered: bool) -> Result<Self, String> {
        let store = SnapshotStore::open(&state.join("checkpoints")).map_err(|e| e.to_string())?;
        let mut checkpoints = Checkpoints {
            store,
            newest: 0,
            read_from: if recovered {
                0
            } else {
                server.committed() + server.config().checkpoint_every
            },
        };
        checkpoints.newest = checkpoints.newest_on_disk()?;
        Ok(checkpoints)
    }

    fn newest_on_disk(&self) -> Result<u64, String> {
        let generations = self.store.generations().map_err(|e| e.to_string())?;
        Ok(generations.last().copied().unwrap_or(0))
    }

    /// Whether the frame just handled wrote a checkpoint.
    fn written_by(&mut self, server: &Server) -> Result<bool, String> {
        let every = server.config().checkpoint_every;
        if every == 0 || server.committed() < self.read_from {
            return Ok(false);
        }
        let newest = self.newest_on_disk()?;
        if newest == self.newest {
            return Ok(false);
        }
        self.newest = newest;
        self.read_from = server.committed() + every;
        Ok(true)
    }
}

/// One pass: cold starts, the script with the kill and recovery at its
/// midpoint, then the checks on what the daemon committed.
fn run_pass(
    script: &Script,
    config: &ServerConfig,
    state: &Path,
    tracer: &mut Tracer,
    corrupt: bool,
    out: &mut Outcome,
    checkpoint_frame_ms: &mut Vec<f64>,
) -> Result<Pass, String> {
    let err = |e: icm_server::ServerError| e.to_string();
    let kill_at = script.frames.len() / 2;
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let _ = std::fs::remove_dir_all(state);
        let span = tracer.begin("server.start");
        let begin = Instant::now();
        server = Some(Server::start(config.clone(), Some(state)).map_err(err)?);
        out.setup_s.push(begin.elapsed().as_secs_f64());
        tracer.end(span);
    }
    let mut server = server.expect("at least one cold start");
    let mut checkpoints = Checkpoints::new(&server, state, false)?;

    let mut reader = FrameReader::new(Cursor::new(&script.bytes[..]));
    let mut released: Vec<String> = Vec::with_capacity(script.frames.len());
    let mut acknowledged_before_kill = 0;
    let mut resumed_at = None;
    let mut op_ms = Vec::with_capacity(script.frames.len());
    let work = Instant::now();
    for (index, scripted) in script.frames.iter().enumerate() {
        if index == kill_at {
            acknowledged_before_kill = released.len();
            drop(server); // the kill: nothing drains, the queue vanishes
            let span = tracer.begin("server.recover");
            server = Server::start(config.clone(), Some(state)).map_err(err)?;
            tracer.end(span);
            resumed_at = Some(server.consumed_frames());
            checkpoints = Checkpoints::new(&server, state, true)?;
        }
        let span = tracer.begin("frame.read");
        let frame = reader.next_frame().map_err(|e| e.to_string())?;
        tracer.end(span);
        out.attempted += 1;
        let span = tracer.begin(scripted.kind.span());
        let begin = Instant::now();
        let replies = server.handle_frame(&frame);
        let elapsed_ms = begin.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        op_ms.push(elapsed_ms);
        match replies {
            Ok(replies) => released.extend(replies),
            Err(e) => {
                out.failed += 1;
                return Err(format!("frame {index}: {e}"));
            }
        }
        if checkpoints.written_by(&server)? {
            checkpoint_frame_ms.push(elapsed_ms);
        }
    }
    let span = tracer.begin("server.finish");
    let finished = server.finish().map_err(err)?;
    tracer.end(span);
    released.extend(finished);
    let pass_s = work.elapsed().as_secs_f64();
    out.work_s += pass_s;
    out.pass_s.push(pass_s);
    out.op_ms.push(op_ms);
    let trailing = reader.next_frame().map_err(|e| e.to_string())?;
    let committed = server.committed();
    drop(server);

    if corrupt {
        if let Some(first) = released.first_mut() {
            first.push(' ');
        }
    }
    let (_, entries) =
        LineJournal::open(&state.join("journal.log"), false).map_err(|e| e.to_string())?;
    let journal: Vec<String> = entries.into_iter().map(|e| e.reply_line).collect();
    let tally = tally(&journal)?;
    let requests: Vec<&str> = script
        .frames
        .iter()
        .filter_map(|f| f.id.as_deref())
        .collect();
    let one_per_request = requests.len() == tally.by_id.len()
        && requests.iter().all(|id| tally.by_id.get(*id) == Some(&1));
    let without_id = script.frames.len() - requests.len();

    out.checks.push(Check::new(
        "serve.script_consumed",
        trailing == Frame::Eof && resumed_at == Some(kill_at as u64),
        format!(
            "recovery resumed at frame {resumed_at:?} of kill point {kill_at}; \
             the reader ended on {trailing:?}"
        ),
    ));
    out.checks.push(Check::new(
        "serve.one_reply_per_frame",
        journal.len() == script.frames.len()
            && committed == script.frames.len() as u64
            && one_per_request
            && tally.without_id == without_id as u64,
        format!(
            "{} frames, {} committed, {} journaled, {} id-less replies for {} id-less frames",
            script.frames.len(),
            committed,
            journal.len(),
            tally.without_id,
            without_id
        ),
    ));
    out.checks.push(Check::new(
        "serve.acknowledged_replies_durable",
        journal.get(..acknowledged_before_kill) == released.get(..acknowledged_before_kill),
        format!("{acknowledged_before_kill} replies acknowledged before the kill"),
    ));
    out.checks.push(Check::new(
        "serve.journal_matches_replies",
        journal == released,
        format!(
            "{} replies released, {} journaled",
            released.len(),
            journal.len()
        ),
    ));
    let checkpoints = checkpoints.newest_on_disk()?;
    let journal_bytes = std::fs::metadata(state.join("journal.log"))
        .map_err(|e| e.to_string())?
        .len();
    Ok(Pass {
        journal,
        tally,
        committed,
        checkpoints,
        journal_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apps() -> Vec<String> {
        ServerConfig::new(1, false)
            .apps
            .iter()
            .map(|a| a.name.clone())
            .collect()
    }

    #[test]
    fn the_script_is_a_pure_function_of_the_seed() {
        let a = build_script(2016, 3_000, 8, &apps());
        assert_eq!(a, build_script(2016, 3_000, 8, &apps()));
        assert_ne!(a.bytes, build_script(2017, 3_000, 8, &apps()).bytes);
    }

    #[test]
    fn the_script_frames_exactly_as_declared() {
        let script = build_script(7, 3_000, 8, &apps());
        assert_eq!(script.frames.len(), 3_000);
        let mut reader = FrameReader::new(Cursor::new(&script.bytes[..]));
        for scripted in &script.frames {
            let frame = reader.next_frame().expect("in-memory read");
            match &frame {
                Frame::Line(line) => {
                    if let Some(id) = &scripted.id {
                        assert!(line.contains(&format!("\"id\":\"{id}\"")), "{line}");
                    }
                }
                Frame::Oversized(_) | Frame::InvalidUtf8 => {
                    assert_eq!(scripted.kind, Kind::Refused);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(reader.next_frame().expect("in-memory read"), Frame::Eof);
        for kind in [
            Kind::Predict,
            Kind::Observe,
            Kind::Place,
            Kind::Tick,
            Kind::Status,
            Kind::Refused,
            Kind::Burst,
        ] {
            assert!(
                script.frames.iter().any(|f| f.kind == kind),
                "{kind:?} missing from the mix"
            );
        }
    }
}
