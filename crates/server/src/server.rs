//! The serving engine: a deterministic request processor with deadline
//! budgets, admission control, graceful degradation, and write-ahead
//! crash safety.
//!
//! # The virtual clock
//!
//! Every scheduling decision — queue wait, deadline refusal, overload
//! shedding, cache staleness — runs on a *virtual* clock in integer
//! microseconds. Arrivals carry explicit virtual stamps (`at_ms`), and
//! each operation is charged a fixed deterministic cost. Two runs fed
//! the same frames therefore make byte-identical decisions and emit
//! byte-identical replies, no matter how the OS schedules them. This is
//! the manager's determinism contract extended to traffic.
//!
//! # Crash safety
//!
//! Three files under the state directory cooperate:
//!
//! * `intake.log` — every accepted frame, appended *before* it is
//!   processed;
//! * `journal.log` — every reply, appended *before* it is released
//!   (write-ahead: an acknowledged reply is durable by construction);
//! * `checkpoints/` — periodic [`ServerSnapshot`] generations through
//!   [`SnapshotStore`], pruned to a bounded count.
//!
//! Recovery loads the newest usable checkpoint (the store's one
//! newest-first walk, [`SnapshotStore::load_newest`], with
//! [`ServerSnapshot::parse`] as its payload check), then re-feeds the
//! intake suffix through the same engine: replies that were already
//! committed are *verified byte-for-byte* against the journal (a
//! mismatch is corruption, not a shrug), replies past the journal's
//! torn tail are committed fresh. `kill -9` at any instant loses no
//! acknowledged reply and leaves the journal byte-identical to an
//! uninterrupted run's.

use std::collections::VecDeque;
use std::path::Path;

use icm_json::fs::SnapshotStore;
use icm_json::{write_object, Json, ToJson};
use icm_manager::objective::FleetObjective;
use icm_manager::snapshot::{parse_versioned, FormatError, WorldSnapshot};
use icm_manager::{Fleet, ManagedRun, ManagerConfig};
use icm_obs::Tracer;
use icm_placement::{anneal_with, AnnealConfig};
use icm_simcluster::SimTestbed;

use crate::cache::{CacheEntry, PredictionCache, CACHE_CAPACITY, CACHE_MAX_AGE_US};
use crate::error::ServerError;
use crate::frame::Frame;
use crate::journal::{JournalEntry, LineJournal};
use crate::protocol::{ErrorCode, Reply, Request, RequestKind};
use crate::queue::{Admission, AdmissionQueue, Pending};
use crate::world::{build_world, context_for, ServerConfig};

/// Virtual cost of a fresh model prediction (microseconds).
pub const PREDICT_FULL_COST_US: u64 = 2_000;
/// Virtual cost of serving a cached prediction.
pub const PREDICT_CACHED_COST_US: u64 = 50;
/// Virtual cost of folding in one observation.
pub const OBSERVE_COST_US: u64 = 500;
/// Virtual base cost of a placement search.
pub const PLACE_BASE_COST_US: u64 = 1_000;
/// Virtual cost per annealing iteration of a placement search.
pub const PLACE_PER_ITERATION_COST_US: u64 = 10;
/// Virtual cost of one supervised manager tick.
pub const TICK_COST_US: u64 = 20_000;
/// Virtual cost of a status or shutdown request.
pub const STATUS_COST_US: u64 = 20;
/// Virtual cost charged for a typed refusal (deadline, unknown app,
/// open circuit) — refusing is cheap but not free.
pub const REJECT_COST_US: u64 = 10;

/// Queue backlog (virtual microseconds of pending service) beyond
/// which `predict` degrades to the cache.
pub const SATURATION_US: u64 = 4_000;

/// Current server snapshot payload version.
pub const SERVER_SNAPSHOT_VERSION: u64 = 3;

/// Why a [`ServerSnapshot`] payload was rejected.
pub type ServerSnapshotError = FormatError<SERVER_SNAPSHOT_VERSION>;

/// Reply counters, by outcome. They travel in snapshots so `status`
/// replies stay byte-identical across a kill and resume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Requests executed to an `ok` reply.
    pub completed: u64,
    /// `ok` replies served stale from the cache under saturation.
    pub degraded: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Requests refused with `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Requests refused with a typed `error` reply.
    pub refused: u64,
    /// Frames refused before parsing (oversized, invalid UTF-8,
    /// truncated).
    pub malformed: u64,
}

icm_json::impl_json!(struct Counters {
    completed,
    degraded,
    shed,
    deadline_exceeded,
    refused,
    malformed,
});

/// The complete serializable state of a quiescent server (empty
/// queue): the supervised world plus the serving layer around it.
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    /// Payload format version ([`SERVER_SNAPSHOT_VERSION`]).
    pub version: u64,
    /// The server configuration the world was built with.
    pub config: ServerConfig,
    /// The supervised world (testbed, fleet, manager run, tracer).
    pub world: WorldSnapshot,
    /// The virtual clock, microseconds.
    pub clock_us: u64,
    /// Largest arrival stamp accepted so far (monotonicity clamp).
    pub last_arrival_us: u64,
    /// Admission stamps handed out so far.
    pub admit_stamp: u64,
    /// Committed replies reflected in this snapshot's state.
    pub journal_seq: u64,
    /// Intake entries reflected in this snapshot's state.
    pub intake_seq: u64,
    /// The prediction cache, entries and LRU stamps included.
    pub cache: Vec<CacheEntry>,
    /// Reply counters at snapshot time.
    pub counters: Counters,
    /// Whether a shutdown had been accepted.
    pub shutting_down: bool,
}

icm_json::impl_json!(struct ServerSnapshot {
    version,
    config,
    world,
    clock_us,
    last_arrival_us,
    admit_stamp,
    journal_seq,
    intake_seq,
    cache,
    counters,
    shutting_down,
});

impl ServerSnapshot {
    /// The snapshot a daemon starts from when it has no checkpoint: the
    /// freshly built world, an empty cache, a zero clock and no history.
    ///
    /// # Errors
    ///
    /// World construction failures.
    fn fresh(config: ServerConfig, tracer: &Tracer) -> Result<Self, ServerError> {
        let (testbed, fleet, manager_config, run) = build_world(&config)?;
        Ok(Self {
            version: SERVER_SNAPSHOT_VERSION,
            world: WorldSnapshot::capture(&testbed, &fleet, &manager_config, &run, tracer),
            config,
            clock_us: 0,
            last_arrival_us: 0,
            admit_stamp: 0,
            journal_seq: 0,
            intake_seq: 0,
            cache: Vec::new(),
            counters: Counters::default(),
            shutting_down: false,
        })
    }

    /// Parses snapshot text, streaming it straight into the snapshot
    /// with no JSON tree, and refuses other format versions by the same
    /// rule as [`WorldSnapshot::parse`] ([`parse_versioned`]).
    ///
    /// # Errors
    ///
    /// [`ServerSnapshotError::UnknownVersion`] for a well-formed payload
    /// of another version, [`ServerSnapshotError::Payload`] for damage.
    pub fn parse(text: &str) -> Result<Self, ServerSnapshotError> {
        parse_versioned(text, |s: &Self| s.version)
    }
}

/// How an accepted frame is recorded in the intake log, so recovery can
/// re-feed malformed frames as faithfully as clean ones.
fn intake_record(frame: &Frame) -> String {
    let fields: &[(&str, &dyn ToJson)] = match frame {
        Frame::Line(line) => &[("frame", &"line"), ("data", line)],
        Frame::Oversized(bytes) => &[("frame", &"oversized"), ("bytes", &(*bytes as f64))],
        Frame::InvalidUtf8 => &[("frame", &"bad_utf8")],
        Frame::Truncated => &[("frame", &"truncated")],
        Frame::Eof => &[("frame", &"eof")],
    };
    let mut record = String::new();
    write_object(&mut record, fields.iter().copied());
    record
}

/// An intake record as decoded: the frame kind and the payload fields a
/// kind may carry.
struct IntakeRecord {
    frame: String,
    data: Option<String>,
    bytes: f64,
}

icm_json::impl_json!(struct IntakeRecord { frame, data = None, bytes = 0.0 });

fn parse_intake_record(line: &str) -> Result<Frame, ServerError> {
    let record: IntakeRecord =
        icm_json::from_str(line).map_err(|e| ServerError::new(format!("intake record: {e}")))?;
    Ok(match record.frame.as_str() {
        "line" => Frame::Line(
            record
                .data
                .ok_or_else(|| ServerError::new("intake record: missing `data`"))?,
        ),
        "oversized" => Frame::Oversized(record.bytes as usize),
        "bad_utf8" => Frame::InvalidUtf8,
        "truncated" => Frame::Truncated,
        "eof" => Frame::Eof,
        other => {
            return Err(ServerError::new(format!(
                "intake record: unknown frame kind `{other}`"
            )))
        }
    })
}

/// The persistent placement daemon.
pub struct Server {
    config: ServerConfig,
    manager_config: ManagerConfig,
    testbed: SimTestbed,
    fleet: Fleet,
    run: ManagedRun,
    tracer: Tracer,
    queue: AdmissionQueue,
    cache: PredictionCache,
    clock_us: u64,
    last_arrival_us: u64,
    admit_stamp: u64,
    counters: Counters,
    shutting_down: bool,
    journal: Option<LineJournal>,
    intake: Option<LineJournal>,
    store: Option<SnapshotStore>,
    /// Journal entries recovery must re-produce byte-for-byte before
    /// any fresh commit is allowed.
    verify: VecDeque<JournalEntry>,
    replaying: bool,
    commits_since_checkpoint: u64,
    committed_total: u64,
    /// Intake entries the current state reflects (consumed frames).
    intake_pos: u64,
}

impl Server {
    /// Starts a daemon. With a state directory, persistence is armed
    /// (intake log, write-ahead journal, periodic checkpoints) and a
    /// previous life's state is recovered: newest usable checkpoint,
    /// then deterministic re-execution of the intake suffix, verifying
    /// already-committed replies byte-for-byte.
    ///
    /// # Errors
    ///
    /// World construction, persistence I/O, or an integrity break
    /// (journal/checkpoint corruption that recovery cannot prove safe).
    pub fn start(config: ServerConfig, state_dir: Option<&Path>) -> Result<Self, ServerError> {
        let tracer = Tracer::disabled();
        let (store, journal, journal_entries, intake, intake_entries) = match state_dir {
            None => (None, None, Vec::new(), None, Vec::new()),
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let (journal, journal_entries) =
                    LineJournal::open(&dir.join("journal.log"), config.sync)?;
                let (intake, intake_entries) =
                    LineJournal::open(&dir.join("intake.log"), config.sync)?;
                (
                    Some(SnapshotStore::open_with_sync(
                        &dir.join("checkpoints"),
                        config.sync,
                    )?),
                    Some(journal),
                    journal_entries,
                    Some(intake),
                    intake_entries,
                )
            }
        };
        let checkpoint = match &store {
            Some(store) => load_snapshot(store)?,
            None => None,
        };
        // Without a checkpoint the daemon starts from its freshly built
        // world, through the same restore as a recovering daemon.
        let snapshot = match checkpoint {
            Some(mut snapshot) => {
                snapshot.config = config.resume(snapshot.config)?;
                snapshot
            }
            None => ServerSnapshot::fresh(config, &tracer)?,
        };
        if (journal_entries.len() as u64) < snapshot.journal_seq {
            return Err(ServerError::new(format!(
                "journal holds {} entries but the checkpoint reflects {} — \
                 committed history is missing",
                journal_entries.len(),
                snapshot.journal_seq
            )));
        }
        if (intake_entries.len() as u64) < snapshot.intake_seq {
            return Err(ServerError::new(format!(
                "intake log holds {} entries but the checkpoint reflects {} — \
                 accepted frames are missing",
                intake_entries.len(),
                snapshot.intake_seq
            )));
        }
        let (testbed, fleet, manager_config, run) = snapshot.world.restore(&tracer);
        let mut server = Self {
            queue: AdmissionQueue::new(snapshot.config.queue_capacity),
            cache: PredictionCache::restore(CACHE_CAPACITY, snapshot.cache),
            config: snapshot.config,
            manager_config,
            testbed,
            fleet,
            run,
            tracer,
            clock_us: snapshot.clock_us,
            last_arrival_us: snapshot.last_arrival_us,
            admit_stamp: snapshot.admit_stamp,
            counters: snapshot.counters,
            shutting_down: snapshot.shutting_down,
            journal,
            intake,
            store,
            verify: VecDeque::new(),
            replaying: false,
            commits_since_checkpoint: 0,
            committed_total: snapshot.journal_seq,
            intake_pos: snapshot.intake_seq,
        };
        // Re-execute the intake suffix. Replies up to the journal's
        // recovered tail must re-materialize byte-for-byte; anything
        // past it is committed fresh (it was computed but never
        // acknowledged before the crash).
        let resume_intake = server.intake_pos;
        server.verify = journal_entries
            .into_iter()
            .skip(server.committed_total as usize)
            .collect();
        server.replaying = true;
        for entry in intake_entries.into_iter().skip(resume_intake as usize) {
            let frame = parse_intake_record(&entry.reply_line)?;
            server.handle_frame(&frame)?;
        }
        server.replaying = false;
        if let Some(stale) = server.verify.pop_front() {
            return Err(ServerError::new(format!(
                "journal entry {} was committed but deterministic replay never \
                 re-produced it",
                stale.seq
            )));
        }
        Ok(server)
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Mutable fleet access (attach quality grids before serving).
    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// The virtual clock, microseconds.
    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    /// Reply counters so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Pending request count.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Total committed replies over the server's whole life.
    pub fn committed(&self) -> u64 {
        self.committed_total
    }

    /// Frames consumed over the server's whole life (recovered lives
    /// included). A scripted driver resuming after a crash skips this
    /// many frames of its script — the intake log already owns them.
    pub fn consumed_frames(&self) -> u64 {
        self.intake_pos
    }

    /// Whether a shutdown request has been accepted.
    pub fn shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// Drains every pending request (end of input or explicit flush)
    /// and returns the released reply lines.
    ///
    /// # Errors
    ///
    /// See [`Server::handle_frame`].
    pub fn finish(&mut self) -> Result<Vec<String>, ServerError> {
        let mut replies = Vec::new();
        while let Some(pending) = self.queue.pop_next() {
            self.process(pending, &mut replies)?;
        }
        self.maybe_checkpoint()?;
        Ok(replies)
    }

    /// Handles one frame, returning the reply lines released by it —
    /// its own reply when served immediately, typed refusals, and any
    /// replies for queued requests whose virtual service completed
    /// before this frame's arrival stamp. Recovery replays the intake
    /// log through here too.
    ///
    /// # Errors
    ///
    /// Only daemon-stopping trouble (persistence I/O, integrity);
    /// malformed frames and invalid requests produce typed replies.
    pub fn handle_frame(&mut self, frame: &Frame) -> Result<Vec<String>, ServerError> {
        if matches!(frame, Frame::Eof) {
            return Ok(Vec::new());
        }
        if !self.replaying {
            if let Some(intake) = &mut self.intake {
                intake.commit(&intake_record(frame))?;
            }
        }
        let mut replies = Vec::new();
        match frame {
            Frame::Eof => {}
            Frame::Oversized(bytes) => {
                self.counters.malformed += 1;
                let reply = Reply::Error {
                    id: None,
                    code: ErrorCode::OversizedFrame,
                    detail: format!(
                        "frame of {bytes} bytes exceeds {} — discarded to its newline",
                        crate::frame::MAX_FRAME_BYTES
                    ),
                };
                self.commit(reply, &mut replies)?;
            }
            Frame::InvalidUtf8 => {
                self.counters.malformed += 1;
                let reply = Reply::Error {
                    id: None,
                    code: ErrorCode::InvalidUtf8,
                    detail: "frame is not valid UTF-8".into(),
                };
                self.commit(reply, &mut replies)?;
            }
            Frame::Truncated => {
                self.counters.malformed += 1;
                let reply = Reply::Error {
                    id: None,
                    code: ErrorCode::TruncatedFrame,
                    detail: "stream ended mid-frame".into(),
                };
                self.commit(reply, &mut replies)?;
            }
            Frame::Line(line) => match Request::parse(line) {
                Err(refusal) => {
                    self.counters.refused += 1;
                    let reply = Reply::Error {
                        id: refusal.id,
                        code: refusal.code,
                        detail: refusal.detail,
                    };
                    self.commit(reply, &mut replies)?;
                }
                Ok(request) => self.accept(request, &mut replies)?,
            },
        }
        // Only now is the frame fully reflected in server state.
        // Checkpoints fire exclusively at this boundary (and at
        // `finish`), so a snapshot always describes a whole number of
        // consumed frames — recovery resumes at an exact frame edge.
        self.intake_pos += 1;
        self.maybe_checkpoint()?;
        Ok(replies)
    }

    fn accept(&mut self, request: Request, replies: &mut Vec<String>) -> Result<(), ServerError> {
        let arrival_us = match request.at_ms {
            Some(ms) => ms.saturating_mul(1_000).max(self.last_arrival_us),
            None => self.clock_us.max(self.last_arrival_us),
        };
        self.last_arrival_us = arrival_us;
        self.advance_to(arrival_us, replies)?;
        if self.shutting_down {
            self.counters.refused += 1;
            let reply = Reply::Error {
                id: Some(request.id),
                code: ErrorCode::ShuttingDown,
                detail: "the server is draining".into(),
            };
            return self.commit(reply, replies);
        }
        let cost_us = estimate_cost(&request.kind);
        self.admit_stamp += 1;
        let incoming_id = request.id.clone();
        let interactive = request.at_ms.is_none();
        let pending = Pending {
            admitted: self.admit_stamp,
            arrival_us,
            request,
            cost_us,
        };
        match self.queue.admit(pending) {
            Admission::Admitted => {}
            Admission::RejectedIncoming => {
                self.counters.shed += 1;
                let reply = Reply::Overloaded {
                    id: incoming_id,
                    retry_after_us: self.queue.backlog_us(),
                };
                self.commit(reply, replies)?;
            }
            Admission::Evicted(victim) => {
                self.counters.shed += 1;
                let reply = Reply::Overloaded {
                    id: victim.request.id,
                    retry_after_us: self.queue.backlog_us(),
                };
                self.commit(reply, replies)?;
            }
        }
        if interactive {
            // No declared arrival stamp means "now, and I am waiting":
            // the server is idle between frames, so everything pending is
            // served before the next frame is read. Trace-driven load
            // (explicit `at_ms`) queues and drains on virtual time.
            while let Some(next) = self.queue.pop_next() {
                self.process(next, replies)?;
            }
        }
        Ok(())
    }

    fn advance_to(&mut self, until_us: u64, replies: &mut Vec<String>) -> Result<(), ServerError> {
        loop {
            if self.clock_us >= until_us {
                return Ok(());
            }
            if self.queue.is_empty() {
                self.clock_us = until_us;
                return Ok(());
            }
            let pending = self.queue.pop_next().expect("queue is non-empty");
            self.process(pending, replies)?;
        }
    }

    fn process(&mut self, pending: Pending, replies: &mut Vec<String>) -> Result<(), ServerError> {
        let start_us = self.clock_us.max(pending.arrival_us);
        let slot = Slot {
            id: pending.request.id.clone(),
            arrival_us: pending.arrival_us,
            start_us,
            wait_us: start_us - pending.arrival_us,
            budget_us: pending.request.deadline_ms.saturating_mul(1_000),
        };
        match pending.request.kind.clone() {
            RequestKind::Predict { app, corunners } => {
                let Some((index, pressures, key)) = context_for(&self.fleet, &app, &corunners)
                else {
                    let detail = format!("`{app}` (or a corunner) is not in the supervised fleet");
                    return self.refuse(slot, ErrorCode::UnknownApp, detail, replies);
                };
                let saturated = self.queue.backlog_us() > SATURATION_US;
                if saturated {
                    if let Some(entry) = self.cache.get(&app, &key, start_us, CACHE_MAX_AGE_US) {
                        if entry.quality == "defaulted" {
                            let detail = format!(
                                "a degraded answer for `{app}` under `{key}` would rest \
                                 on defaulted model cells"
                            );
                            return self.refuse(slot, ErrorCode::CircuitOpen, detail, replies);
                        }
                        if slot.late(PREDICT_CACHED_COST_US) {
                            return self.refuse_deadline(slot, PREDICT_CACHED_COST_US, replies);
                        }
                        self.counters.degraded += 1;
                        let payload = Json::object([
                            ("app", Json::String(app)),
                            ("key", Json::String(key)),
                            ("predicted", Json::Number(entry.predicted)),
                            ("quality", Json::String(entry.quality)),
                            ("cached", Json::Bool(true)),
                        ]);
                        return self.complete(
                            slot,
                            PREDICT_CACHED_COST_US,
                            true,
                            |_| payload,
                            replies,
                        );
                    }
                }
                if slot.late(PREDICT_FULL_COST_US) {
                    return self.refuse_deadline(slot, PREDICT_FULL_COST_US, replies);
                }
                let online = &self.fleet.apps()[index].online;
                let predicted = match online.predict_for(&key, &pressures) {
                    Ok(value) => value,
                    Err(e) => {
                        return self.refuse(slot, ErrorCode::Unavailable, e.to_string(), replies)
                    }
                };
                let quality = self.fleet.apps()[index].quality_at(&pressures).as_str();
                self.cache.put(
                    &app,
                    &key,
                    predicted,
                    quality,
                    start_us + PREDICT_FULL_COST_US,
                );
                let payload = Json::object([
                    ("app", Json::String(app)),
                    ("key", Json::String(key)),
                    ("predicted", Json::Number(predicted)),
                    ("quality", Json::String(quality.to_owned())),
                    ("cached", Json::Bool(false)),
                ]);
                self.complete(slot, PREDICT_FULL_COST_US, false, |_| payload, replies)
            }
            RequestKind::Observe {
                app,
                corunners,
                normalized,
            } => {
                let Some((index, pressures, key)) = context_for(&self.fleet, &app, &corunners)
                else {
                    let detail = format!("`{app}` (or a corunner) is not in the supervised fleet");
                    return self.refuse(slot, ErrorCode::UnknownApp, detail, replies);
                };
                if slot.late(OBSERVE_COST_US) {
                    return self.refuse_deadline(slot, OBSERVE_COST_US, replies);
                }
                let online = &mut self.fleet.apps_mut()[index].online;
                if let Err(e) = online.observe_for(&key, &pressures, normalized) {
                    return self.refuse(slot, ErrorCode::Unavailable, e.to_string(), replies);
                }
                let observations = online.observations();
                self.cache.invalidate_app(&app);
                let payload = Json::object([
                    ("app", Json::String(app)),
                    ("key", Json::String(key)),
                    ("observations", Json::Number(observations as f64)),
                ]);
                self.complete(slot, OBSERVE_COST_US, false, |_| payload, replies)
            }
            RequestKind::Place { iterations } => {
                let cost_us = PLACE_BASE_COST_US + PLACE_PER_ITERATION_COST_US * iterations;
                if slot.late(cost_us) {
                    return self.refuse_deadline(slot, cost_us, replies);
                }
                let anneal_config = AnnealConfig {
                    iterations: iterations as usize,
                    seed: self
                        .config
                        .seed
                        .wrapping_add(pending.admitted.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    ..AnnealConfig::default()
                };
                // A placement query prices the whole fleet as live and
                // unsuspected: crash suspicion is the manager's business.
                let fleet = &self.fleet;
                let all_live = vec![true; fleet.apps().len()];
                let no_suspicion = vec![0.0; fleet.problem().hosts()];
                let mut objective = FleetObjective::new(fleet, &all_live, &no_suspicion);
                let result = match anneal_with(
                    fleet.problem(),
                    |s| objective.eval(s),
                    &anneal_config,
                    &self.tracer,
                ) {
                    Ok(result) => result,
                    Err(e) => {
                        return self.refuse(slot, ErrorCode::Unavailable, e.to_string(), replies)
                    }
                };
                let payload = Json::object([
                    ("cost", Json::Number(result.cost)),
                    ("evaluations", Json::Number(result.evaluations as f64)),
                    ("best_iteration", Json::Number(result.best_iteration as f64)),
                ]);
                self.complete(slot, cost_us, false, |_| payload, replies)
            }
            RequestKind::Tick => {
                if self.run.is_done(&self.manager_config) {
                    let detail = "the supervised run has reached its horizon".to_owned();
                    return self.refuse(slot, ErrorCode::Unavailable, detail, replies);
                }
                if slot.late(TICK_COST_US) {
                    return self.refuse_deadline(slot, TICK_COST_US, replies);
                }
                if let Err(e) = self.run.step(
                    &mut self.testbed,
                    &mut self.fleet,
                    &self.manager_config,
                    &self.tracer,
                ) {
                    return self.refuse(slot, ErrorCode::Unavailable, e.to_string(), replies);
                }
                let payload = Json::object([
                    ("tick", Json::Number((self.run.next_tick() - 1) as f64)),
                    ("violation_s", Json::Number(self.run.violation_seconds())),
                ]);
                self.complete(slot, TICK_COST_US, false, |_| payload, replies)
            }
            RequestKind::Status => {
                if slot.late(STATUS_COST_US) {
                    return self.refuse_deadline(slot, STATUS_COST_US, replies);
                }
                // The status payload reports the clock and counters
                // after this request's own charge.
                let status = |server: &Self| {
                    let counters = &server.counters;
                    Json::object([
                        ("clock_us", Json::Number(server.clock_us as f64)),
                        ("queue_len", Json::Number(server.queue.len() as f64)),
                        ("backlog_us", Json::Number(server.queue.backlog_us() as f64)),
                        ("cache_entries", Json::Number(server.cache.len() as f64)),
                        ("committed", Json::Number(server.committed_total as f64)),
                        ("completed", Json::Number(counters.completed as f64)),
                        ("degraded", Json::Number(counters.degraded as f64)),
                        ("shed", Json::Number(counters.shed as f64)),
                        (
                            "deadline_exceeded",
                            Json::Number(counters.deadline_exceeded as f64),
                        ),
                        ("refused", Json::Number(counters.refused as f64)),
                        ("malformed", Json::Number(counters.malformed as f64)),
                        ("next_tick", Json::Number(server.run.next_tick() as f64)),
                    ])
                };
                self.complete(slot, STATUS_COST_US, false, status, replies)
            }
            RequestKind::Shutdown => {
                self.shutting_down = true;
                let payload = Json::object([("draining", Json::Number(self.queue.len() as f64))]);
                self.complete(slot, STATUS_COST_US, false, |_| payload, replies)
            }
        }
    }

    /// Serves `slot` with an `ok` reply at virtual cost `cost_us`. The
    /// payload is built after the clock and counters take the charge.
    fn complete(
        &mut self,
        slot: Slot,
        cost_us: u64,
        degraded: bool,
        payload: impl FnOnce(&Self) -> Json,
        replies: &mut Vec<String>,
    ) -> Result<(), ServerError> {
        self.clock_us = slot.start_us + cost_us;
        self.counters.completed += 1;
        let reply = Reply::Ok {
            id: slot.id,
            degraded,
            latency_us: self.clock_us - slot.arrival_us,
            payload: payload(self),
        };
        self.commit(reply, replies)
    }

    /// Refuses `slot` with a typed `error` reply (unknown app, open
    /// circuit, unavailable model or run).
    fn refuse(
        &mut self,
        slot: Slot,
        code: ErrorCode,
        detail: String,
        replies: &mut Vec<String>,
    ) -> Result<(), ServerError> {
        self.clock_us = slot.start_us + REJECT_COST_US;
        self.counters.refused += 1;
        let reply = Reply::Error {
            id: Some(slot.id),
            code,
            detail,
        };
        self.commit(reply, replies)
    }

    /// Refuses `slot` because work costing `cost_us` would finish past
    /// its deadline.
    fn refuse_deadline(
        &mut self,
        slot: Slot,
        cost_us: u64,
        replies: &mut Vec<String>,
    ) -> Result<(), ServerError> {
        self.clock_us = slot.start_us + REJECT_COST_US;
        self.counters.deadline_exceeded += 1;
        let reply = Reply::DeadlineExceeded {
            id: slot.id,
            budget_us: slot.budget_us,
            needed_us: slot.wait_us + cost_us,
        };
        self.commit(reply, replies)
    }

    /// Write-ahead commits a reply, then releases it: journal first
    /// (verified against recovered history during replay), client
    /// second.
    fn commit(&mut self, reply: Reply, replies: &mut Vec<String>) -> Result<(), ServerError> {
        let line = reply.to_line();
        match self.verify.pop_front() {
            Some(expected) => {
                if expected.reply_line != line {
                    return Err(ServerError::new(format!(
                        "replay diverged from the committed journal at seq {}: journal has \
                         {:?}, replay produced {:?}",
                        expected.seq, expected.reply_line, line
                    )));
                }
            }
            None => {
                if let Some(journal) = &mut self.journal {
                    journal.commit(&line)?;
                }
            }
        }
        self.committed_total += 1;
        self.commits_since_checkpoint += 1;
        replies.push(line);
        Ok(())
    }

    fn maybe_checkpoint(&mut self) -> Result<(), ServerError> {
        if self.replaying
            || self.config.checkpoint_every == 0
            || self.commits_since_checkpoint < self.config.checkpoint_every
            || !self.queue.is_empty()
            || self.store.is_none()
        {
            return Ok(());
        }
        let payload = icm_json::to_string(&self.snapshot());
        if let Some(store) = &self.store {
            store.save(payload.as_bytes())?;
            store.prune(self.config.keep_checkpoints)?;
        }
        self.commits_since_checkpoint = 0;
        Ok(())
    }

    /// Captures the server's state, sharing the world's history, app
    /// catalog and base models instead of copying them (see
    /// [`WorldSnapshot::capture`]). Meaningful only when the queue is
    /// empty (checkpoints are taken at quiescent commits); pending
    /// requests are deliberately not serialized — they were never
    /// acknowledged, and recovery re-feeds them from the intake log.
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            version: SERVER_SNAPSHOT_VERSION,
            config: self.config.clone(),
            world: WorldSnapshot::capture(
                &self.testbed,
                &self.fleet,
                &self.manager_config,
                &self.run,
                &self.tracer,
            ),
            clock_us: self.clock_us,
            last_arrival_us: self.last_arrival_us,
            admit_stamp: self.admit_stamp,
            journal_seq: self.committed_total,
            intake_seq: self.intake_pos,
            cache: self.cache.entries().to_vec(),
            counters: self.counters.clone(),
            shutting_down: self.shutting_down,
        }
    }
}

/// One request taken off the queue: its id and its virtual timing.
struct Slot {
    id: String,
    arrival_us: u64,
    start_us: u64,
    wait_us: u64,
    budget_us: u64,
}

impl Slot {
    /// Whether work costing `cost_us` would finish past the deadline.
    fn late(&self, cost_us: u64) -> bool {
        self.wait_us + cost_us > self.budget_us
    }
}

fn estimate_cost(kind: &RequestKind) -> u64 {
    match kind {
        RequestKind::Predict { .. } => PREDICT_FULL_COST_US,
        RequestKind::Observe { .. } => OBSERVE_COST_US,
        RequestKind::Place { iterations } => {
            PLACE_BASE_COST_US + PLACE_PER_ITERATION_COST_US * iterations
        }
        RequestKind::Tick => TICK_COST_US,
        RequestKind::Status | RequestKind::Shutdown => STATUS_COST_US,
    }
}

/// Loads the newest checkpoint that passes both the store's integrity
/// checks and the snapshot format check, skipping damaged generations.
fn load_snapshot(store: &SnapshotStore) -> Result<Option<ServerSnapshot>, ServerError> {
    let newest = store.load_newest(|bytes| {
        let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
        ServerSnapshot::parse(&text).map_err(|e| e.to_string())
    });
    match newest {
        Ok(found) => Ok(found.map(|(_, snapshot)| snapshot)),
        Err(e) => Err(ServerError::new(format!(
            "no usable checkpoint in {}: {e}",
            store.dir().display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_frame_kind_round_trips_through_its_intake_record() {
        for frame in [
            Frame::Line(r#"{"id":"q\"1","kind":"status"}"#.to_owned()),
            Frame::Oversized(70_000),
            Frame::InvalidUtf8,
            Frame::Truncated,
            Frame::Eof,
        ] {
            let record = intake_record(&frame);
            assert_eq!(parse_intake_record(&record).expect("decodes"), frame);
        }
    }

    #[test]
    fn damaged_intake_records_are_refused_by_name() {
        for (record, refusal) in [
            (r#"{"frame":"teleport"}"#, "unknown frame kind `teleport`"),
            (r#"{"frame":"line"}"#, "missing `data`"),
            (r#"{"data":"x"}"#, "missing field `frame`"),
            (r#"{"frame":"line","data":"#, "json error"),
        ] {
            let err = parse_intake_record(record).expect_err(record).to_string();
            assert!(
                err.contains("intake record: ") && err.contains(refusal),
                "{record}: {err}"
            );
        }
    }
}
