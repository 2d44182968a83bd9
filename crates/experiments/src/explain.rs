//! Causal-graph reconstruction for `icm-trace explain`.
//!
//! Events carry deterministic ids (their `step`) and `causes` edges, so
//! a JSONL trace *is* a causal DAG: observations cause detections,
//! detections cause actions, actions cause recoveries. This module
//! rebuilds that graph and renders two operator questions:
//!
//! * [`explain_action`] — the full chain behind manager action `N`
//!   (probes → model update → detection → action → outcome), with
//!   per-hop simulated timestamps;
//! * [`explain_violations`] — every violation-second in the trace
//!   attributed to a fault, a mispredict, or manager latency, with a
//!   coverage check against the reported run outcomes.
//!
//! All output is derived purely from the trace, so same-seed traces
//! explain byte-identically.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use icm_json::fs::{SnapshotStore, StoreError};
use icm_manager::snapshot::WorldSnapshot;
use icm_obs::manager as events;
use icm_obs::provenance::{CAUSE_FAULT, CAUSE_LATENCY, CAUSE_MISPREDICT, QOS_VIOLATION};
use icm_obs::{Event, Value};
use icm_server::ServerSnapshot;

/// Maximum causal depth rendered — generously past the real chain
/// (outcome → action → detection → observation), purely a guard against
/// a malformed trace with cause cycles.
const MAX_DEPTH: usize = 8;

/// The causal graph of one trace: events indexed by id, the manager's
/// actions in emission order, and the recovery that closed each action.
pub struct CausalGraph<'a> {
    by_id: BTreeMap<u64, &'a Event>,
    /// `manager_action` events, in order — `explain --action N` indexes
    /// this list.
    pub actions: Vec<&'a Event>,
    /// The first `manager_recovery` event that lists an action among its
    /// causes, by the action's id.
    outcomes: BTreeMap<u64, &'a Event>,
}

/// Indexes a trace into a [`CausalGraph`].
pub fn build_graph(events: &[Event]) -> CausalGraph<'_> {
    let mut by_id = BTreeMap::new();
    let mut actions = Vec::new();
    let mut outcomes = BTreeMap::new();
    for event in events {
        by_id.insert(event.step, event);
        match event.name.as_str() {
            events::MANAGER_ACTION => actions.push(event),
            events::MANAGER_RECOVERY => {
                for &cause in &event.causes {
                    outcomes.entry(cause).or_insert(event);
                }
            }
            _ => {}
        }
    }
    CausalGraph {
        by_id,
        actions,
        outcomes,
    }
}

fn fmt_value(value: &Value) -> String {
    match value {
        Value::Bool(b) => b.to_string(),
        Value::U64(v) => v.to_string(),
        Value::I64(v) => v.to_string(),
        Value::F64(v) => format!("{v}"),
        Value::Str(s) => s.clone(),
    }
}

/// One rendered hop: a role label, the salient fields, and the
/// deterministic timestamps.
fn hop_line(event: &Event) -> String {
    let role = match event.name.as_str() {
        events::MANAGER_ACTION => "action",
        events::MANAGER_DETECTION => "detection",
        events::MANAGER_RECOVERY => "outcome",
        "app_run" => "observation",
        "fault" => "fault",
        QOS_VIOLATION => "violation",
        other => other,
    };
    let mut fields = String::new();
    for (key, value) in &event.fields {
        let _ = write!(fields, " {key}={}", fmt_value(value));
    }
    let extra = if event.name == "app_run" {
        // The observation hop doubles as the model update: the manager
        // folds every completed run into its online model.
        " → model update"
    } else {
        ""
    };
    format!(
        "{role}:{fields}{extra} (sim {:.1}s) [event {}]",
        event.sim_s, event.step
    )
}

fn render_chain(graph: &CausalGraph<'_>, event: &Event, depth: usize, out: &mut String) {
    let _ = writeln!(out, "{}{}", "  ".repeat(depth), hop_line(event));
    if depth >= MAX_DEPTH {
        return;
    }
    for &cause in &event.causes {
        match graph.by_id.get(&cause) {
            Some(parent) => render_chain(graph, parent, depth + 1, out),
            None => {
                let _ = writeln!(
                    out,
                    "{}(event {cause} not in trace — truncated?)",
                    "  ".repeat(depth + 1)
                );
            }
        }
    }
}

/// Renders the full causal chain behind manager action `n` (0-based
/// across the trace): the action, every detection that justified it,
/// each detection's observations, and the eventual recovery outcome.
///
/// # Errors
///
/// When the trace holds no manager action with that index.
pub fn explain_action(trace: &[Event], n: usize) -> Result<String, String> {
    render_action(&build_graph(trace), n)
}

fn render_action(graph: &CausalGraph<'_>, n: usize) -> Result<String, String> {
    let Some(action) = graph.actions.get(n).copied() else {
        return Err(format!(
            "trace has {} manager action(s); --action {n} is out of range",
            graph.actions.len()
        ));
    };
    let mut out = String::new();
    let _ = write!(out, "action {n}: ");
    let header = hop_line(action);
    let _ = writeln!(out, "{}", header.trim_start_matches("action: "));
    for &cause in &action.causes {
        match graph.by_id.get(&cause) {
            Some(parent) => render_chain(graph, parent, 1, &mut out),
            None => {
                let _ = writeln!(out, "  (event {cause} not in trace — truncated?)");
            }
        }
    }
    // The outcome points back at the action: a recovery event lists the
    // ids of every action it closed over.
    match graph.outcomes.get(&action.step) {
        Some(recovery) => {
            let _ = writeln!(out, "{}", hop_line(recovery));
        }
        None => {
            let _ = writeln!(out, "outcome: unresolved at trace end");
        }
    }
    Ok(out)
}

/// Renders the chains of every manager action in the trace.
///
/// # Errors
///
/// When the trace holds no manager actions at all.
pub fn explain_all(trace: &[Event]) -> Result<String, String> {
    let graph = build_graph(trace);
    if graph.actions.is_empty() {
        return Err("trace holds no manager actions to explain".to_owned());
    }
    let mut out = String::new();
    for n in 0..graph.actions.len() {
        out.push_str(&render_action(&graph, n)?);
    }
    Ok(out)
}

/// Attributes every violation-second in the trace to a cause bucket
/// (`fault`, `mispredict` or `latency`) and cross-checks the attributed
/// total against the violation time the run outcomes reported.
///
/// # Errors
///
/// Never fails on a well-formed trace; a trace whose `qos_violation`
/// events carry an unknown cause label is reported, not dropped.
pub fn explain_violations(trace: &[Event]) -> Result<String, String> {
    let mut buckets: BTreeMap<String, f64> = BTreeMap::new();
    let mut attributed = 0.0;
    let mut reported = 0.0;
    let mut outcomes = 0usize;
    for event in trace {
        match event.name.as_str() {
            QOS_VIOLATION => {
                let seconds = event.num("violation_s").unwrap_or(0.0);
                let cause = event.str("cause").unwrap_or("unattributed").to_owned();
                *buckets.entry(cause).or_insert(0.0) += seconds;
                attributed += seconds;
            }
            events::MANAGER_OUTCOME => {
                reported += event.num("violation_s").unwrap_or(0.0);
                outcomes += 1;
            }
            _ => {}
        }
    }
    let mut out = String::from("violation attribution\n");
    // Fixed bucket order (then any stragglers alphabetically) so output
    // is stable even when a bucket is empty.
    let known = [CAUSE_FAULT, CAUSE_MISPREDICT, CAUSE_LATENCY];
    for cause in known {
        let seconds = buckets.remove(cause).unwrap_or(0.0);
        let share = if attributed > 0.0 {
            seconds / attributed * 100.0
        } else {
            0.0
        };
        let _ = writeln!(out, "  {cause:<12} {seconds:>10.1}s  ({share:.1}%)");
    }
    for (cause, seconds) in &buckets {
        let share = if attributed > 0.0 {
            seconds / attributed * 100.0
        } else {
            0.0
        };
        let _ = writeln!(out, "  {cause:<12} {seconds:>10.1}s  ({share:.1}%)");
    }
    if outcomes > 0 {
        let coverage = if reported > 0.0 {
            attributed / reported * 100.0
        } else {
            100.0
        };
        let _ = writeln!(
            out,
            "  total        {attributed:>10.1}s attributed of {reported:.1}s reported ({coverage:.1}%)"
        );
    } else {
        let _ = writeln!(out, "  total        {attributed:>10.1}s attributed");
    }
    Ok(out)
}

/// The tick a persisted snapshot generation would resume at, read
/// through the versioned parse that resuming uses: a generation that
/// `--resume` or a restarted `icm-server` refuses is refused here, with
/// the message they give.
///
/// Both snapshot shapes in the workspace are understood: a bare
/// [`WorldSnapshot`] (written by the savestate machinery) and an
/// `icm-server` [`ServerSnapshot`], which nests the world under
/// `"world"`.
fn snapshot_tick(payload: Vec<u8>) -> Result<u64, String> {
    let text = String::from_utf8(payload).map_err(|e| e.to_string())?;
    let nested = icm_json::parse(&text).is_ok_and(|json| json.get("world").is_some());
    let run = if nested {
        ServerSnapshot::parse(&text)
            .map_err(|e| e.to_string())?
            .world
            .run
    } else {
        WorldSnapshot::parse(&text).map_err(|e| e.to_string())?.run
    };
    Ok(run.next_tick())
}

/// Names the newest checkpoint generation in `dir` that precedes
/// manager action `n` — i.e. the snapshot to restore so a replay
/// re-executes the action instead of skipping past it.
///
/// A generation precedes the action when its resume tick (`next_tick`)
/// is at or before the action's tick: the snapshot was taken before
/// that tick ran, so the action is still in its future. The store's
/// newest-first walk ([`SnapshotStore::load_newest_noting`]) passes
/// over damaged, unreadable or refused generations as recovery itself
/// does, and over those that resume after the action's tick; each
/// generation newer than the one named is reported with its reason.
///
/// # Errors
///
/// When the action index is out of range, the action event carries no
/// tick, the store cannot be read, or no usable generation precedes the
/// action's tick.
pub fn checkpoint_for_action(trace: &[Event], n: usize, dir: &Path) -> Result<String, String> {
    let graph = build_graph(trace);
    let Some(action) = graph.actions.get(n).copied() else {
        return Err(format!(
            "trace has {} manager action(s); --action {n} is out of range",
            graph.actions.len()
        ));
    };
    let Some(tick) = action.num("tick").map(|t| t as u64) else {
        return Err(format!("action {n} carries no tick field"));
    };
    let store = SnapshotStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut skipped = String::new();
    let newest = store.load_newest_noting(
        |payload| match snapshot_tick(payload)? {
            snap_tick if snap_tick <= tick => Ok(snap_tick),
            snap_tick => Err(format!("resumes at tick {snap_tick}, after tick {tick}")),
        },
        |generation, err| {
            let _ = writeln!(skipped, "  skipped gen {generation}: {err}");
        },
    );
    let (generation, snap_tick) = match newest {
        Ok(Some(found)) => found,
        Ok(None) => {
            return Err(format!(
                "{}: no checkpoint generations found",
                dir.display()
            ))
        }
        Err(StoreError::NoneValid(_)) => {
            return Err(format!(
                "{}: no usable checkpoint precedes tick {tick} (action {n})",
                dir.display()
            ))
        }
        Err(err) => return Err(format!("{}: {err}", dir.display())),
    };
    Ok(format!(
        "checkpoint: gen-{generation:06}.icmsnap (resumes at tick {snap_tick}, \
         action {n} runs at tick {tick}) in {}\n{skipped}",
        dir.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icm_obs::Tracer;

    /// A hand-built managed tick: two observations, a detection citing
    /// them, an action citing the detection, a recovery citing the
    /// action, and violation events for the attribution sweep.
    fn synthetic_trace() -> Vec<Event> {
        let (tracer, recorder) = Tracer::recording(64);
        tracer.advance_sim(10.0);
        let obs_a = tracer.event(
            "app_run",
            &[("app", "M.milc".into()), ("normalized", 1.5.into())],
        );
        let obs_b = tracer.event(
            "app_run",
            &[("app", "M.milc".into()), ("normalized", 1.6.into())],
        );
        tracer.event_caused(
            QOS_VIOLATION,
            &[obs_b],
            &[
                ("tick", 1u64.into()),
                ("app", "M.milc".into()),
                ("violation_s", 12.5.into()),
                ("cause", CAUSE_MISPREDICT.into()),
            ],
        );
        let detection = tracer.event_caused(
            events::MANAGER_DETECTION,
            &[obs_a, obs_b],
            &[
                ("tick", 1u64.into()),
                ("kind", "drift".into()),
                ("score", 0.31.into()),
                ("threshold", 0.2.into()),
                ("streak", 2u64.into()),
                ("app", "M.milc".into()),
            ],
        );
        let action = tracer.event_caused(
            events::MANAGER_ACTION,
            &[detection],
            &[
                ("tick", 1u64.into()),
                ("kind", "re_anneal".into()),
                ("cost_s", 0.0.into()),
                ("quality", "measured".into()),
                ("predicted", 1.2.into()),
            ],
        );
        tracer.advance_sim(50.0);
        tracer.event_caused(
            events::MANAGER_RECOVERY,
            &[action],
            &[("tick", 2u64.into()), ("latency_s", 50.0.into())],
        );
        tracer.event(
            events::MANAGER_OUTCOME,
            &[
                ("scenario", "drift".into()),
                ("managed", true.into()),
                ("violation_s", 12.5.into()),
            ],
        );
        recorder.events()
    }

    #[test]
    fn explain_action_prints_the_full_chain() {
        let trace = synthetic_trace();
        let text = explain_action(&trace, 0).expect("action exists");
        assert!(text.starts_with("action 0: "), "got: {text}");
        assert!(text.contains("detection:"), "got: {text}");
        assert!(text.contains("observation:"), "got: {text}");
        assert!(text.contains("model update"), "got: {text}");
        assert!(text.contains("outcome:"), "got: {text}");
        assert!(text.contains("latency_s=50"), "got: {text}");
        // Per-hop sim timestamps are present.
        assert!(text.contains("(sim 10.0s)"), "got: {text}");
        assert!(text.contains("(sim 60.0s)"), "got: {text}");
        assert_eq!(explain_all(&trace).expect("has actions"), text);
    }

    #[test]
    fn explain_action_out_of_range_is_an_error() {
        let trace = synthetic_trace();
        let err = explain_action(&trace, 7).expect_err("only one action");
        assert!(err.contains("1 manager action"), "got: {err}");
        assert!(explain_all(&[]).is_err());
    }

    #[test]
    fn unresolved_actions_say_so() {
        let mut trace = synthetic_trace();
        trace.retain(|e| e.name != events::MANAGER_RECOVERY);
        let text = explain_action(&trace, 0).expect("action exists");
        assert!(
            text.contains("outcome: unresolved at trace end"),
            "got: {text}"
        );
    }

    #[test]
    fn violations_attribute_everything() {
        let trace = synthetic_trace();
        let text = explain_violations(&trace).expect("renders");
        assert!(text.contains("mispredict"), "got: {text}");
        assert!(text.contains("(100.0%)"), "got: {text}");
        assert!(
            text.contains("12.5s attributed of 12.5s reported"),
            "got: {text}"
        );
    }

    #[test]
    fn violations_render_on_a_quiet_trace() {
        let text = explain_violations(&[]).expect("renders");
        assert!(text.contains("0.0s attributed"), "got: {text}");
    }

    fn checkpoint_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("icm-explain-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A fresh fast world's snapshot text (its run resumes at tick 1).
    fn fresh_world() -> &'static str {
        static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        TEXT.get_or_init(|| {
            let cfg = crate::context::ExpConfig {
                seed: 7,
                fast: true,
            };
            let tracer = Tracer::disabled();
            let world = crate::endurance::World::new(&cfg, &tracer).expect("builds");
            world.snapshot(&tracer, None, 0).to_text()
        })
    }

    /// `text` with its run's resume tick rewritten from 1 to `next_tick`.
    fn resuming_at(text: &str, next_tick: u64) -> Vec<u8> {
        let fresh = "\"next_tick\":1,";
        assert!(text.contains(fresh), "a fresh run resumes at tick 1");
        text.replacen(fresh, &format!("\"next_tick\":{next_tick},"), 1)
            .into_bytes()
    }

    fn world_payload(next_tick: u64) -> Vec<u8> {
        resuming_at(fresh_world(), next_tick)
    }

    #[test]
    fn checkpoint_for_action_names_the_newest_preceding_generation() {
        let trace = synthetic_trace(); // action 0 runs at tick 1
        let dir = checkpoint_dir("name");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(&world_payload(0)).unwrap(); // gen 1: before the action
        store.save(&world_payload(1)).unwrap(); // gen 2: action still ahead
        store.save(&world_payload(2)).unwrap(); // gen 3: too late
                                                // Damage older than the named generation is never read.
        std::fs::write(dir.join("gen-000001.icmsnap"), b"junk").unwrap();
        let text = checkpoint_for_action(&trace, 0, &dir).expect("names a generation");
        assert!(
            text.contains("gen-000002.icmsnap (resumes at tick 1, action 0 runs at tick 1)"),
            "got: {text}"
        );
        assert!(
            text.ends_with("\n  skipped gen 3: resumes at tick 2, after tick 1\n"),
            "got: {text}"
        );
        assert!(!text.contains("gen 1"), "got: {text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_for_action_understands_server_snapshots_and_skips_damage() {
        let trace = synthetic_trace();
        let dir = checkpoint_dir("server");
        let store = SnapshotStore::open(&dir).unwrap();
        // A server-shaped snapshot nests the world one level down.
        let server = icm_server::Server::start(icm_server::ServerConfig::new(7, true), None)
            .expect("starts");
        store
            .save(&resuming_at(&icm_json::to_string(&server.snapshot()), 0))
            .unwrap();
        let gen2 = store.save(&world_payload(1)).unwrap();
        // Corrupt the newest qualifying generation: naming falls back.
        std::fs::write(dir.join(format!("gen-{gen2:06}.icmsnap")), b"junk").unwrap();
        let text = checkpoint_for_action(&trace, 0, &dir).expect("falls back");
        assert!(text.contains("gen-000001.icmsnap"), "got: {text}");
        assert!(text.contains("skipped gen 2"), "got: {text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_for_action_skips_generations_that_resume_refuses() {
        let trace = synthetic_trace(); // action 0 runs at tick 1
        let dir = checkpoint_dir("version");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(&world_payload(0)).unwrap();
        // The newest generation would precede the action, but it carries
        // an older payload version, which `--resume` refuses.
        let current = format!(
            "\"version\":{},",
            icm_manager::snapshot::WORLD_SNAPSHOT_VERSION
        );
        let old =
            String::from_utf8(world_payload(1))
                .unwrap()
                .replacen(&current, "\"version\":2,", 1);
        store.save(old.as_bytes()).unwrap();
        let refusal = WorldSnapshot::parse(&old).expect_err("resume refuses it");
        let text = checkpoint_for_action(&trace, 0, &dir).expect("falls back");
        assert!(text.contains("gen-000001.icmsnap"), "got: {text}");
        assert!(
            text.contains(&format!("  skipped gen 2: {refusal}\n")),
            "got: {text}"
        );
        assert!(text.contains("this build reads"), "got: {text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_for_action_errors_when_nothing_precedes_the_tick() {
        let trace = synthetic_trace();
        let dir = checkpoint_dir("late");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(&world_payload(5)).unwrap();
        let err = checkpoint_for_action(&trace, 0, &dir).expect_err("all too late");
        assert!(
            err.contains("no usable checkpoint precedes tick 1"),
            "got: {err}"
        );

        let empty = checkpoint_dir("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = checkpoint_for_action(&trace, 0, &empty).expect_err("empty store");
        assert!(err.contains("no checkpoint generations"), "got: {err}");

        let err = checkpoint_for_action(&trace, 9, &dir).expect_err("bad index");
        assert!(err.contains("out of range"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn dangling_cause_ids_are_reported_not_fatal() {
        let (tracer, recorder) = Tracer::recording(8);
        tracer.event_caused(
            events::MANAGER_ACTION,
            &[999],
            &[("tick", 1u64.into()), ("kind", "migrate".into())],
        );
        let text = explain_action(&recorder.events(), 0).expect("renders");
        assert!(text.contains("not in trace"), "got: {text}");
    }
}
