//! `icm-report` — build the figure-grade HTML page (or a plain-text
//! summary) from `icm-experiments` results.
//!
//! ```text
//! icm-report <results.json> [--out FILE] [--text] [--profile FILE]
//!                           [--telemetry FILE] [--flame TRACE] [--strict]
//! ```
//!
//! By default writes `report.html` next to the working directory. With
//! `--text` the plain-text summary goes to stdout instead (and no HTML
//! is written unless `--out` is also given). `--profile FILE` folds a
//! `profile.json` wall-time document into the page; `--telemetry FILE`
//! folds a `--telemetry` artifact (its verdict enforces the byte-budget
//! contract); `--flame TRACE` reconstructs the span tree of a JSONL
//! trace into an SVG flamegraph section. `--strict` exits non-zero when
//! any section's verdict is an outright failure — the CI hook for
//! paper-fidelity regressions.

use std::process::ExitCode;

use icm_experiments::flame::{build_flame, FlameGraph};
use icm_experiments::results::ResultsDoc;
use icm_report::{build_report, render_html, render_text};

const USAGE: &str = "usage: icm-report <results.json> [--out FILE] [--text] [--profile FILE]\n\
                     \x20                            [--telemetry FILE] [--flame TRACE] [--strict]";

fn run() -> Result<ExitCode, String> {
    let mut results_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut flame_path: Option<String> = None;
    let mut text_mode = false;
    let mut strict = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--text" => text_mode = true,
            "--strict" => strict = true,
            "--out" => {
                i += 1;
                out_path = Some(
                    args.get(i)
                        .ok_or_else(|| "--out requires a file".to_owned())?
                        .clone(),
                );
            }
            "--profile" => {
                i += 1;
                profile_path = Some(
                    args.get(i)
                        .ok_or_else(|| "--profile requires a file".to_owned())?
                        .clone(),
                );
            }
            "--telemetry" => {
                i += 1;
                telemetry_path = Some(
                    args.get(i)
                        .ok_or_else(|| "--telemetry requires a file".to_owned())?
                        .clone(),
                );
            }
            "--flame" => {
                i += 1;
                flame_path = Some(
                    args.get(i)
                        .ok_or_else(|| "--flame requires a trace file".to_owned())?
                        .clone(),
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => {
                return Err(format!("unexpected argument `{other}`"));
            }
            other if results_path.is_none() => results_path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 1;
    }

    let results_path = results_path.ok_or_else(|| "missing results.json path".to_owned())?;
    let text =
        std::fs::read_to_string(&results_path).map_err(|e| format!("{results_path}: {e}"))?;
    let doc = ResultsDoc::parse(&text).map_err(|e| format!("{results_path}: {e}"))?;

    let profile: Option<icm_json::Json> = match &profile_path {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(icm_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?)
        }
    };

    let telemetry: Option<icm_json::Json> = match &telemetry_path {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(icm_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?)
        }
    };
    let flame: Option<FlameGraph> = match &flame_path {
        None => None,
        Some(path) => {
            let events = icm_obs::read_jsonl_file(std::path::Path::new(path))
                .map_err(|e| format!("{path}: {e}"))?;
            Some(build_flame(&events))
        }
    };

    let report = build_report(&doc, profile.as_ref(), telemetry.as_ref(), flame.as_ref());

    if text_mode {
        print!("{}", render_text(&report));
    }
    if !text_mode || out_path.is_some() {
        let out = out_path.unwrap_or_else(|| "report.html".to_owned());
        icm_json::fs::atomic_write(std::path::Path::new(&out), render_html(&report).as_bytes())
            .map_err(|e| format!("{out}: {e}"))?;
        eprintln!("wrote {out}");
    }

    Ok(if strict && report.has_failures() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("icm-report: {message}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
