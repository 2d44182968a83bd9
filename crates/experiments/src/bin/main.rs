//! Command-line driver: regenerate any table or figure of the paper.
//!
//! ```text
//! icm-experiments <id>... [--fast] [--seed N] [--json DIR] [--results FILE]
//!                         [--trace FILE] [--profile FILE] [--quiet]
//! icm-experiments all [--fast]
//! icm-experiments list
//! ```
//!
//! `--trace FILE` appends one JSONL event per progress message (plus an
//! `experiment` span per run) for `icm-trace`; `--quiet` silences the
//! stderr progress lines without touching the result tables on stdout.
//!
//! `--results FILE` writes one machine-readable document holding every
//! selected experiment's structured output (the input to `icm-report`);
//! `all` writes `results.json` by default. `--profile FILE` dumps
//! per-span wall-time histograms — a side channel that never enters the
//! deterministic trace, so traces stay byte-identical whether or not
//! profiling is on.
//!
//! `--telemetry FILE` folds the event stream into constant-memory
//! aggregates (windowed rollups, quantile sketches, health snapshots —
//! see `icm-obs`) and writes them as one JSON document. Alone it
//! *replaces* raw tracing (no JSONL grows); combined with `--trace` it
//! tees, and the raw trace stays byte-identical to a telemetry-off run.
//!
//! The `endurance` experiment additionally supports whole-world
//! savestates: `--checkpoint-every N --checkpoint-dir D` saves a
//! checksummed snapshot generation after every `N`-th tick,
//! `--kill-after K` aborts the process after tick `K` (a SIGKILL
//! stand-in for crash drills), and `--resume D` continues from the
//! newest good generation in `D` — truncating the `--trace` file to
//! the checkpointed offset so the continued trace is the byte-exact
//! suffix of an uninterrupted run. A resumed run keeps the snapshot's
//! seed and `fast`; a `--seed` that names another seed, or a `--fast`
//! for a full run's snapshot, is refused.

use std::process::ExitCode;

use icm_experiments::results::ResultsDoc;
use icm_experiments::{endurance, ExpConfig, Experiment};
use icm_json::fs::{atomic_write, write_target};
use icm_obs::{JsonlSink, Telemetry, TelemetryConfig, TelemetrySink, Tracer, Value};

fn usage() -> String {
    let ids: Vec<&str> = Experiment::ALL.iter().map(Experiment::id).collect();
    format!(
        "usage: icm-experiments <id>... [--fast] [--seed N] [--json DIR] [--results FILE]\n\
         \x20                       [--trace FILE] [--telemetry FILE] [--profile FILE] [--quiet]\n\
         \x20      icm-experiments endurance [--checkpoint-every N --checkpoint-dir D]\n\
         \x20                       [--kill-after K] [--resume D]\n\
         \x20      icm-experiments all [--fast]\n\
         \x20      icm-experiments list\n\
         \n\
         experiments: {}",
        ids.join(", ")
    )
}

/// Progress reporting that goes to stderr (unless `--quiet`) and, when
/// tracing, to the event sink as well.
struct Reporter {
    tracer: Tracer,
    quiet: bool,
}

impl Reporter {
    fn say(&self, name: &str, fields: &[(&str, Value)], human: String) {
        self.tracer.event(name, fields);
        if !self.quiet {
            eprintln!("[icm] {human}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::default();
    let mut selected: Vec<Experiment> = Vec::new();
    let mut run_all = false;
    let mut list_only = false;
    let mut json_dir: Option<std::path::PathBuf> = None;
    let mut results_path: Option<std::path::PathBuf> = None;
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut profile_path: Option<std::path::PathBuf> = None;
    let mut telemetry_path: Option<std::path::PathBuf> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut resume_dir: Option<std::path::PathBuf> = None;
    let mut kill_after: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut quiet = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => cfg.fast = true,
            "--quiet" => quiet = true,
            "--trace" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--trace requires a file\n{}", usage());
                    return ExitCode::FAILURE;
                };
                trace_path = Some(std::path::PathBuf::from(path));
            }
            "--profile" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--profile requires a file\n{}", usage());
                    return ExitCode::FAILURE;
                };
                profile_path = Some(std::path::PathBuf::from(path));
            }
            "--telemetry" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--telemetry requires a file\n{}", usage());
                    return ExitCode::FAILURE;
                };
                telemetry_path = Some(std::path::PathBuf::from(path));
            }
            "--results" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--results requires a file\n{}", usage());
                    return ExitCode::FAILURE;
                };
                results_path = Some(std::path::PathBuf::from(path));
            }
            "--seed" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("--seed requires a value\n{}", usage());
                    return ExitCode::FAILURE;
                };
                match icm_json::parse_exact_u64(value) {
                    Ok(value) => seed = Some(value),
                    Err(err) => {
                        eprintln!("invalid seed {err}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--json requires a directory\n{}", usage());
                    return ExitCode::FAILURE;
                };
                json_dir = Some(std::path::PathBuf::from(dir));
            }
            "--checkpoint-every" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("--checkpoint-every requires a tick count\n{}", usage());
                    return ExitCode::FAILURE;
                };
                match value.parse() {
                    Ok(n) if n > 0 => checkpoint_every = Some(n),
                    _ => {
                        eprintln!("invalid checkpoint cadence `{value}`\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--checkpoint-dir" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--checkpoint-dir requires a directory\n{}", usage());
                    return ExitCode::FAILURE;
                };
                checkpoint_dir = Some(std::path::PathBuf::from(dir));
            }
            "--resume" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--resume requires a directory\n{}", usage());
                    return ExitCode::FAILURE;
                };
                resume_dir = Some(std::path::PathBuf::from(dir));
                if !args.iter().any(|a| a == "endurance") {
                    selected.push(Experiment::Endurance);
                }
            }
            "--kill-after" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("--kill-after requires a tick count\n{}", usage());
                    return ExitCode::FAILURE;
                };
                match value.parse() {
                    Ok(n) => kill_after = Some(n),
                    Err(_) => {
                        eprintln!("invalid kill tick `{value}`\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "all" => run_all = true,
            "list" => list_only = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            id => match Experiment::parse(id) {
                Some(exp) => selected.push(exp),
                None => {
                    eprintln!("unknown experiment `{id}`\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
        }
        i += 1;
    }

    if list_only {
        for exp in Experiment::ALL {
            println!("{}", exp.id());
        }
        return ExitCode::SUCCESS;
    }
    if run_all {
        selected = Experiment::ALL.to_vec();
        // The full regeneration always leaves a machine-readable record
        // next to the human log.
        if results_path.is_none() {
            results_path = Some(std::path::PathBuf::from("results.json"));
        }
    }
    if selected.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    let savestate = checkpoint_every.is_some()
        || checkpoint_dir.is_some()
        || resume_dir.is_some()
        || kill_after.is_some();
    if savestate {
        if selected != vec![Experiment::Endurance] {
            eprintln!(
                "savestate flags only apply to the endurance experiment\n{}",
                usage()
            );
            return ExitCode::FAILURE;
        }
        if checkpoint_every.is_some() != checkpoint_dir.is_some() {
            eprintln!(
                "--checkpoint-every and --checkpoint-dir go together\n{}",
                usage()
            );
            return ExitCode::FAILURE;
        }
        if resume_dir.is_some() && telemetry_path.is_some() {
            eprintln!("--resume does not combine with --telemetry\n{}", usage());
            return ExitCode::FAILURE;
        }
    }

    // Refuse an output path before the first study, not after the last.
    for path in [&results_path, &telemetry_path, &profile_path] {
        let Some(path) = path else { continue };
        if let Err(err) = write_target(path) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    }

    // Resume loads the newest snapshot generation that passes both the
    // store's checksum/length checks and the payload format check —
    // torn or corrupted generations are skipped, not fatal.
    let mut resume_snapshot = match &resume_dir {
        Some(dir) => match endurance::load_resumable(dir) {
            Ok((generation, snapshot)) => {
                if !quiet {
                    eprintln!(
                        "[icm] resuming from generation {generation} in {}",
                        dir.display()
                    );
                }
                Some(snapshot)
            }
            Err(err) => {
                eprintln!("cannot resume: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // A resumed run continues the snapshot's seed and `fast`, so its
    // results document is stamped with the run its events came from.
    match &resume_snapshot {
        Some(snapshot) => match endurance::resume_config(snapshot, seed, cfg.fast) {
            Ok(saved) => cfg = saved,
            Err(err) => {
                eprintln!("cannot resume: {err}\n{}", usage());
                return ExitCode::FAILURE;
            }
        },
        None => cfg.seed = seed.unwrap_or(cfg.seed),
    }

    let telemetry: Option<Telemetry> = telemetry_path
        .as_ref()
        .map(|_| Telemetry::new(TelemetryConfig::default()));
    let tracer = if let (Some(snapshot), Some(path)) = (&resume_snapshot, &trace_path) {
        // Resumed trace: truncate to the checkpointed offset and append,
        // so the continued run emits the exact byte suffix of an
        // uninterrupted run — including events the killed process wrote
        // after its last checkpoint, which are rolled back here.
        let truncate = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|file| file.set_len(snapshot.trace_bytes));
        if let Err(err) = truncate {
            eprintln!("cannot truncate trace {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        let sink = match JsonlSink::append(path) {
            Ok(sink) => sink,
            Err(err) => {
                eprintln!("cannot reopen trace {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let tracer = Tracer::with_sink(sink);
        tracer.restore_state(&snapshot.tracer);
        tracer
    } else {
        match (&trace_path, &telemetry) {
            (Some(path), inner_telemetry) => {
                let sink = match JsonlSink::create(path) {
                    Ok(sink) => sink,
                    Err(err) => {
                        eprintln!("cannot open trace file {}: {err}", path.display());
                        return ExitCode::FAILURE;
                    }
                };
                match inner_telemetry {
                    // Tee: aggregate *and* forward, leaving the raw JSONL
                    // byte-identical to a telemetry-off run.
                    Some(telemetry) => {
                        Tracer::with_telemetry(TelemetrySink::tee(telemetry.clone(), sink))
                    }
                    None => Tracer::with_sink(sink),
                }
            }
            // Replace mode: constant-memory aggregates, no raw lines at all.
            (None, Some(telemetry)) => {
                Tracer::with_telemetry(TelemetrySink::new(telemetry.clone()))
            }
            (None, None) if profile_path.is_some() => Tracer::wall_only(),
            (None, None) => Tracer::disabled(),
        }
    };
    if let (Some(snapshot), None) = (&resume_snapshot, &trace_path) {
        // Traceless resume still continues the clock, so simulated time
        // lines up with the saved history.
        tracer.restore_state(&snapshot.tracer);
    }
    if profile_path.is_some() {
        tracer.enable_wall_profiling();
    }
    let reporter = Reporter {
        tracer: tracer.clone(),
        quiet,
    };

    let mut results = ResultsDoc::new(cfg.seed, cfg.fast);
    // The text and data of every id whose study ran in this invocation:
    // an id whose study already ran takes them from here, so `all` and
    // any id list run each study once.
    let mut shown: Vec<(Experiment, String, icm_json::Json)> = Vec::new();
    for exp in selected {
        if !quiet {
            eprintln!(
                "[icm] running {} (seed {}, fast {})",
                exp.id(),
                cfg.seed,
                cfg.fast
            );
        }
        if savestate {
            // Savestate mode skips the per-experiment span: a resumed
            // run cannot close a span the killed process opened, and
            // the kill/resume trace must be the byte-exact suffix of an
            // uninterrupted savestate run.
            let checkpoint = checkpoint_dir.as_deref().zip(checkpoint_every);
            match endurance::drive(
                &cfg,
                &tracer,
                resume_snapshot.take(),
                checkpoint,
                kill_after,
                trace_path.as_deref(),
            ) {
                Ok(result) => {
                    println!("{}", endurance::render(&result));
                    results.push(exp.id(), icm_json::to_value(&result));
                }
                Err(err) => {
                    eprintln!("{}: {err}", exp.id());
                    return ExitCode::FAILURE;
                }
            }
        } else {
            let span = tracer.span(
                "experiment",
                &[
                    ("id", exp.id().into()),
                    ("seed", cfg.seed.into()),
                    ("fast", cfg.fast.into()),
                ],
            );
            if !shown.iter().any(|(id, ..)| *id == exp) {
                match exp.run_full_traced(&cfg, &tracer) {
                    Ok((data, texts)) => {
                        shown.extend(texts.into_iter().map(|(id, text)| (id, text, data.clone())))
                    }
                    Err(err) => {
                        eprintln!("{}: {err}", exp.id());
                        return ExitCode::FAILURE;
                    }
                }
            }
            let (_, text, data) = shown
                .iter()
                .find(|(id, ..)| *id == exp)
                .expect("a study shows every id that dispatches to it");
            span.end_with(&[("id", exp.id().into())]);
            println!("{text}");
            results.push(exp.id(), data.clone());
        }
        if let Some(dir) = &json_dir {
            if let Err(err) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
            let path = dir.join(format!("{}.json", exp.id()));
            let Some(data) = results.get(exp.id()) else {
                eprintln!("{}: result vanished from the results document", exp.id());
                return ExitCode::FAILURE;
            };
            let text = icm_json::to_string_pretty(data);
            match atomic_write(&path, text.as_bytes()) {
                Ok(()) => reporter.say(
                    "json_export",
                    &[
                        ("id", exp.id().into()),
                        ("path", path.display().to_string().into()),
                    ],
                    format!("wrote {}", path.display()),
                ),
                Err(err) => {
                    eprintln!("{}: JSON export failed: {err}", exp.id());
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if let Some(path) = &results_path {
        if let Err(err) = atomic_write(path, results.to_text().as_bytes()) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("[icm] wrote {}", path.display());
        }
    }
    tracer.flush();
    if let (Some(path), Some(telemetry)) = (&telemetry_path, &telemetry) {
        // Stamp one final snapshot so short runs that never crossed the
        // snapshot cadence still carry their end-state health.
        let stamp = tracer.now();
        telemetry.snapshot_now(stamp.step, stamp.sim_s);
        let text = telemetry.to_text();
        if text.len() > icm_obs::TELEMETRY_BYTE_BUDGET {
            eprintln!(
                "[icm] warning: telemetry artifact is {} bytes, over the {} byte budget",
                text.len(),
                icm_obs::TELEMETRY_BYTE_BUDGET
            );
        }
        if let Err(err) = atomic_write(path, text.as_bytes()) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("[icm] wrote {}", path.display());
        }
    }
    if let Some(path) = &profile_path {
        let profile = tracer.wall_profile().unwrap_or_default();
        let mut text = icm_json::to_string_pretty(&profile);
        text.push('\n');
        if let Err(err) = atomic_write(path, text.as_bytes()) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("[icm] wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
