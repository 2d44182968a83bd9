//! Protocol goldens: every paper artifact and one traced model build,
//! pinned across commits.
//!
//! Every model and every measurement figure is built from one profiling
//! protocol: a solo baseline, bubbles of pressure `p` on `k` of an
//! application's hosts, seeded heterogeneous samples and a
//! reporter-calibrated bubble score (§3.2–§3.4). The simulator's noise
//! is keyed by its run counter, so a change to the order or number of
//! testbed runs anywhere in that protocol moves the results.
//!
//! Each id in [`Experiment::ALL`] runs at `--fast` at seeds 2016 and 7;
//! the FNV-1a-64 of its compact `run_json` text and of its rendered
//! table (`<id>-text`) are pinned in `protocol_replay.golden`. Ids that
//! show one study share its data, so only the text line tells their
//! tables apart. The JSONL event stream and the model JSON of one
//! traced [`ModelBuilder::build`] are pinned the same way.

use icm::experiments::{ExpConfig, Experiment};
use icm::json::fs::fnv1a64;
use icm_core::model::ModelBuilder;
use icm_obs::{parse_events, JsonlSink, SharedBuf, Tracer};
use icm_workloads::{Catalog, TestbedBuilder};

/// The pinned digests: one line per pinned output and seed,
/// `<label> seed <n>: <hex>`.
const GOLDEN: &str = include_str!("protocol_replay.golden");

const SEEDS: [u64; 2] = [2016, 7];

/// The golden digest of `label` at `seed`, if one is pinned.
fn golden(label: &str, seed: u64) -> Option<&'static str> {
    let prefix = format!("{label} seed {seed}: ");
    GOLDEN.lines().find_map(|l| l.strip_prefix(prefix.as_str()))
}

fn digest(bytes: &str) -> String {
    format!("{:016x}", fnv1a64(bytes.as_bytes()))
}

/// Checks every computed `(label, seed, digest)` against the golden and
/// reports all mismatches at once.
fn check(lines: &[(String, u64, String)]) {
    let mut mismatches = Vec::new();
    for (label, seed, got) in lines {
        println!("{label} seed {seed}: {got}");
        if golden(label, *seed) != Some(got.as_str()) {
            mismatches.push(format!("{label} at seed {seed}"));
        }
    }
    assert!(mismatches.is_empty(), "outputs changed: {mismatches:?}");
}

#[test]
fn every_experiment_matches_its_golden_at_fast() {
    let mut lines = Vec::new();
    for seed in SEEDS {
        let cfg = ExpConfig { fast: true, seed };
        // Each study runs once and shows every id that is a view of it.
        let mut shown: Vec<Experiment> = Vec::new();
        for exp in Experiment::ALL {
            if shown.contains(&exp) {
                continue;
            }
            let (json, texts) = exp
                .run_full_traced(&cfg, &Tracer::disabled())
                .unwrap_or_else(|e| panic!("{} fails: {e}", exp.id()));
            let json = digest(&icm::json::to_string(&json));
            for (id, text) in texts {
                assert!(
                    text.lines().count() >= 4,
                    "{} produced a suspiciously short table:\n{text}",
                    id.id()
                );
                assert!(text.contains("=="), "{} lacks a title", id.id());
                lines.push((id.id().to_owned(), seed, json.clone()));
                lines.push((format!("{}-text", id.id()), seed, digest(&text)));
                shown.push(id);
            }
        }
        assert_eq!(shown.len(), Experiment::ALL.len(), "an id is shown twice");
        assert!(Experiment::ALL.iter().all(|e| shown.contains(e)));
    }
    check(&lines);
}

#[test]
fn a_traced_model_build_matches_its_golden() {
    let mut lines = Vec::new();
    for seed in SEEDS {
        let mut testbed = TestbedBuilder::new(&Catalog::paper()).seed(seed).build();
        let buf = SharedBuf::new();
        let tracer = Tracer::with_sink(JsonlSink::new(buf.clone()));
        let model = ModelBuilder::new("M.milc")
            .hosts(4)
            .policy_samples(12)
            .tracer(tracer.clone())
            .build(&mut testbed)
            .expect("model builds");
        tracer.flush();
        let trace = buf.text();

        let events = parse_events(&trace).expect("the trace parses");
        let spans: Vec<&str> = events
            .iter()
            .filter_map(|e| e.name.strip_suffix(".begin"))
            .filter(|name| !name.contains('.'))
            .collect();
        assert_eq!(
            spans,
            [
                "model_build",
                "solo",
                "reporter_curve",
                "bubble_score",
                "profile",
                "policy"
            ],
            "seed {seed}: the build's phase spans"
        );

        lines.push(("build-trace".to_owned(), seed, digest(&trace)));
        lines.push((
            "build-model".to_owned(),
            seed,
            digest(&icm::json::to_string(&model)),
        ));
    }
    check(&lines);
}
