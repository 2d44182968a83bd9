//! Whole-world savestates: everything a supervised run needs to stop in
//! one process and continue — byte-identically — in another.
//!
//! A [`WorldSnapshot`] bundles the testbed (hosts, apps, fault plan,
//! noise position), the manager runtime ([`ManagedRun`]: placement,
//! drift/hysteresis streaks, provenance, breaker flags), the fleet with
//! its online models, the tracer clock, and every live RNG. The payload
//! is plain `icm-json`; crash-safe persistence (checksums, atomic
//! writes, generation fallback) lives one layer down in
//! [`icm_json::fs::SnapshotStore`], which treats the snapshot as opaque
//! bytes.
//!
//! A capture copies only the small state that changes every tick. The
//! history, the app catalog and the base models are shared with the
//! live world, copy-on-write, and each is encoded once (see
//! [`WorldSnapshot`]).
//!
//! What is deliberately *not* snapshotted: telemetry accumulators.
//! They are derived data — a resumed run restarts them empty, and the
//! byte-identity contract covers the event trace, results, and final
//! state, not mid-run telemetry rollups.

use std::fmt;

use icm_json::{FromJson, JsonError, Reader, ToJson, VersionedError};
use icm_obs::{Tracer, TracerState};
use icm_rng::Rng;
use icm_simcluster::{SimTestbed, TestbedSnapshot};

use crate::fleet::Fleet;
use crate::runtime::{ManagedRun, ManagerConfig};

/// Current snapshot payload format version. Bump on any change to the
/// field layout of [`WorldSnapshot`] or its components.
pub const WORLD_SNAPSHOT_VERSION: u64 = 4;

/// Serializable xoshiro256++ generator state.
///
/// The four state words are full-range `u64`s, which do not survive the
/// workspace's 2^53 JSON-number exactness check — so they are encoded
/// as an array of four decimal strings instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngState(pub [u64; 4]);

impl RngState {
    /// Captures a generator's current state.
    pub fn capture(rng: &Rng) -> Self {
        Self(rng.state())
    }

    /// Rebuilds a generator that continues the captured stream.
    pub fn restore(&self) -> Rng {
        Rng::from_state(self.0)
    }
}

impl ToJson for RngState {
    fn write_json(&self, out: &mut String) {
        self.0.map(|w| w.to_string()).write_json(out);
    }
}

impl FromJson for RngState {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let words = <[String; 4]>::read_json(r)?;
        let mut state = [0; 4];
        for (i, word) in words.iter().enumerate() {
            state[i] = word
                .parse()
                .map_err(|e| JsonError::msg(format!("RngState[{i}]: {e}")))?;
        }
        Ok(Self(state))
    }
}

/// The complete state of a checkpointed supervised run.
///
/// `version` is always serialized first so [`WorldSnapshot::parse`] can
/// reject payloads from a different format generation with a typed
/// error before attempting a full decode.
///
/// [`WorldSnapshot::to_text`] streams the compact text. A snapshot
/// shares what does not change between checkpoints with the world it
/// was captured from, and each shared part is an [`icm_json::Shared`]
/// value that is encoded once: the run's history records, the
/// testbed's app catalog and the fleet's base models. So a capture
/// copies none of them, and an encode writes cached text for every one
/// that has not changed since it was last encoded, through this
/// snapshot, an earlier one or the live world. Edits to the world are
/// copy-on-write, so a held snapshot keeps its capture-time bytes. The
/// bytes are the same either way, and the cache is never part of them.
#[derive(Debug, Clone)]
pub struct WorldSnapshot {
    /// Payload format version ([`WORLD_SNAPSHOT_VERSION`]).
    pub version: u64,
    /// The simulated testbed: cluster, apps, noise position, fault plan.
    pub testbed: TestbedSnapshot,
    /// The manager configuration the run was started with.
    pub config: ManagerConfig,
    /// The fleet, including every online model's learned corrections.
    pub fleet: Fleet,
    /// The supervisory loop state, positioned before its next tick.
    pub run: ManagedRun,
    /// The tracer clock and span counter, so resumed stamps continue
    /// the sequence.
    pub tracer: TracerState,
    /// Every live driver-level generator, in a caller-defined order.
    pub rngs: Vec<RngState>,
    /// Path of the event trace the run was appending to, if any.
    pub trace_path: Option<String>,
    /// Size of the trace at checkpoint time: a resumed run truncates to
    /// this offset so its output is the exact byte suffix.
    pub trace_bytes: u64,
}

icm_json::impl_json!(struct WorldSnapshot {
    version,
    testbed,
    config,
    fleet,
    run,
    tracer,
    rngs,
    trace_path = None,
    trace_bytes,
});

/// Why a versioned snapshot payload was rejected, for a format whose
/// current version is `READS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError<const READS: u64> {
    /// The payload declares a format version this build does not read.
    UnknownVersion(u64),
    /// The payload is not valid JSON, or a field is missing or
    /// mis-typed.
    Payload(JsonError),
}

/// Why a [`WorldSnapshot`] payload was rejected.
pub type SnapshotFormatError = FormatError<WORLD_SNAPSHOT_VERSION>;

impl<const READS: u64> fmt::Display for FormatError<READS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownVersion(v) => {
                write!(f, "snapshot format version {v} (this build reads {READS})")
            }
            Self::Payload(e) => write!(f, "snapshot payload: {e}"),
        }
    }
}

impl<const READS: u64> std::error::Error for FormatError<READS> {}

/// Parses a snapshot payload whose top-level `version` (read by
/// `version`) must equal `READS`, streaming it straight into `T` with
/// no JSON tree.
///
/// The text is decoded once; its `version` is checked after a
/// successful decode, and read alone only when the decode fails
/// ([`icm_json::from_str_versioned`]). The verdict equals a
/// version-first check on the parsed tree.
///
/// # Errors
///
/// [`FormatError::UnknownVersion`] when the payload is well-formed JSON
/// whose `version` differs from `READS`; [`FormatError::Payload`] for
/// malformed JSON or a missing or mis-typed field.
pub fn parse_versioned<T: FromJson, const READS: u64>(
    text: &str,
    version: impl FnOnce(&T) -> u64,
) -> Result<T, FormatError<READS>> {
    icm_json::from_str_versioned(text, READS, version).map_err(|e| match e {
        // A decoded version is an exact integer; a probed one converts
        // (saturating, truncating) as it always has.
        VersionedError::Version(v) => FormatError::UnknownVersion(v as u64),
        VersionedError::Payload(e) => FormatError::Payload(e),
    })
}

impl WorldSnapshot {
    /// Captures a supervised world at a tick boundary, sharing its
    /// history, app catalog and base models instead of copying them. No
    /// driver RNGs and no trace position are recorded; a caller that
    /// owns them fills in `rngs`, `trace_path` and `trace_bytes`.
    pub fn capture(
        testbed: &SimTestbed,
        fleet: &Fleet,
        config: &ManagerConfig,
        run: &ManagedRun,
        tracer: &Tracer,
    ) -> Self {
        Self {
            version: WORLD_SNAPSHOT_VERSION,
            testbed: testbed.snapshot(),
            config: config.clone(),
            fleet: fleet.clone(),
            run: run.clone(),
            tracer: tracer.state(),
            rngs: Vec::new(),
            trace_path: None,
            trace_bytes: 0,
        }
    }

    /// The supervised world this snapshot holds, ready to step. The
    /// testbed's tracer does not travel in the snapshot; `tracer` is
    /// attached in its place. The driver RNGs stay in `rngs`.
    pub fn restore(self, tracer: &Tracer) -> (SimTestbed, Fleet, ManagerConfig, ManagedRun) {
        let mut testbed = SimTestbed::restore(self.testbed);
        testbed.set_tracer(tracer.clone());
        (testbed, self.fleet, self.config, self.run)
    }

    /// Serializes the snapshot to its canonical compact JSON text,
    /// streaming it without building a JSON tree.
    pub fn to_text(&self) -> String {
        icm_json::to_string(self)
    }

    /// Parses snapshot text and refuses other format versions (see
    /// [`parse_versioned`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotFormatError::UnknownVersion`] for a well-formed payload
    /// of another version, [`SnapshotFormatError::Payload`] for damage.
    pub fn parse(text: &str) -> Result<Self, SnapshotFormatError> {
        parse_versioned(text, |s: &Self| s.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_state_round_trips_full_range_words() {
        let mut rng = Rng::from_seed(0xDEAD_BEEF_CAFE_F00D);
        for _ in 0..13 {
            rng.next_u64();
        }
        let state = RngState::capture(&rng);
        let text = icm_json::to_string(&state);
        let back: RngState = icm_json::from_str(&text).expect("round-trips");
        assert_eq!(state, back);
        let mut resumed = back.restore();
        let mut original = rng;
        for _ in 0..32 {
            assert_eq!(original.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn rng_state_rejects_malformed_payloads() {
        let bad: Result<RngState, _> = icm_json::from_str("[\"1\",\"2\",\"3\"]");
        assert!(bad.is_err(), "three words must be rejected");
        let bad: Result<RngState, _> = icm_json::from_str("[1,2,3,4]");
        assert!(bad.is_err(), "bare numbers must be rejected");
        let bad: Result<RngState, _> = icm_json::from_str("[\"1\",\"2\",\"3\",\"x\"]");
        assert!(bad.is_err(), "non-numeric words must be rejected");
    }

    #[test]
    fn unknown_versions_are_rejected_before_decoding() {
        let err = WorldSnapshot::parse("{\"version\":9}").expect_err("must reject");
        assert_eq!(err, SnapshotFormatError::UnknownVersion(9));
        let err = WorldSnapshot::parse("{}").expect_err("must reject");
        assert!(matches!(err, SnapshotFormatError::Payload(_)));
        let err = WorldSnapshot::parse("not json").expect_err("must reject");
        assert!(matches!(err, SnapshotFormatError::Payload(_)));
    }
}
