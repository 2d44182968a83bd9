//! `icm-trace` — inspect JSONL traces produced by the instrumented
//! simulator, profiler or placement search.
//!
//! ```text
//! icm-trace summarize <trace.jsonl> [--json]
//! icm-trace diff <a.jsonl> <b.jsonl> [--json]
//! icm-trace flame <trace.jsonl> [--json|--svg]
//! icm-trace explain <trace.jsonl> [--action N [--checkpoint-dir DIR]|--violations]
//! ```
//!
//! `summarize` prints probe-budget totals (run counts per kind,
//! matching `TestbedStats`), per-phase simulated-time breakdowns,
//! profiling residual summaries and search-convergence reports; with
//! `--json` the summary is one JSON object instead. A trace with zero
//! events exits non-zero — an empty trace from an instrumented run
//! means the instrumentation is broken, not that nothing happened.
//!
//! `diff` aligns two traces event-by-event and reports the first
//! divergence (index, mismatch kind, field deltas); it exits zero only
//! when the traces are event-identical, so it doubles as a determinism
//! check in CI. All subcommands exit non-zero on malformed traces,
//! naming the offending line.
//!
//! `flame` reconstructs the span tree (nesting, per-frame totals,
//! self-time, critical path) and prints an ASCII flamegraph; `--json`
//! prints the tree as JSON, `--svg` an SVG flamegraph instead.
//!
//! `explain` reconstructs the causal event graph (events carry
//! deterministic ids and `causes` edges) and answers why the manager
//! did what it did: `--action N` prints the full chain behind action N
//! (observations → model update → detection → action → outcome) with
//! per-hop sim timestamps; `--violations` attributes every
//! violation-second in the trace to a fault, a mispredict, or manager
//! latency; with neither flag every action is explained in order.
//! `--action N --checkpoint-dir DIR` additionally names the newest
//! snapshot generation in `DIR` that precedes the action's tick — the
//! checkpoint to restore so a replay re-executes the action.

use std::process::ExitCode;

use icm_experiments::explain::{
    checkpoint_for_action, explain_action, explain_all, explain_violations,
};
use icm_experiments::flame::{build_flame, render_ascii, render_svg};
use icm_experiments::trace::{render, summarize};
use icm_experiments::tracediff::{diff_traces, render_diff};
use icm_obs::Event;

const USAGE: &str = "usage: icm-trace summarize <trace.jsonl> [--json]\n\
                     \x20      icm-trace diff <a.jsonl> <b.jsonl> [--json]\n\
                     \x20      icm-trace flame <trace.jsonl> [--json|--svg]\n\
                     \x20      icm-trace explain <trace.jsonl> [--action N [--checkpoint-dir DIR]|--violations]";

fn read_events(path: &str) -> Result<Vec<Event>, String> {
    icm_obs::read_jsonl_file(std::path::Path::new(path)).map_err(|err| format!("{path}: {err}"))
}

fn run_summarize(path: &str, json: bool) -> Result<ExitCode, String> {
    let events = read_events(path)?;
    let summary = summarize(&events);
    if json {
        println!("{}", icm_json::to_string(&summary));
    } else {
        print!("{}", render(&summary));
    }
    if events.is_empty() {
        return Err(format!("{path}: trace contains zero events"));
    }
    Ok(ExitCode::SUCCESS)
}

fn run_diff(path_a: &str, path_b: &str, json: bool) -> Result<ExitCode, String> {
    let events_a = read_events(path_a)?;
    let events_b = read_events(path_b)?;
    let report = diff_traces(&events_a, &events_b);
    if json {
        println!("{}", icm_json::to_string(&report));
    } else {
        print!("{}", render_diff(&report));
    }
    Ok(if report.identical() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_flame(path: &str, json: bool, svg: bool) -> Result<ExitCode, String> {
    let events = read_events(path)?;
    let graph = build_flame(&events);
    if json {
        println!("{}", icm_json::to_string(&graph));
    } else if svg {
        print!("{}", render_svg(&graph));
    } else {
        print!("{}", render_ascii(&graph));
    }
    if events.is_empty() {
        return Err(format!("{path}: trace contains zero events"));
    }
    Ok(ExitCode::SUCCESS)
}

fn run_explain(
    path: &str,
    action: Option<u64>,
    violations: bool,
    checkpoint_dir: Option<&str>,
) -> Result<ExitCode, String> {
    let events = read_events(path)?;
    let text = if violations {
        explain_violations(&events)?
    } else if let Some(n) = action {
        let n = usize::try_from(n).map_err(|_| format!("--action {n} is out of range"))?;
        let mut text = explain_action(&events, n)?;
        if let Some(dir) = checkpoint_dir {
            text.push_str(&checkpoint_for_action(
                &events,
                n,
                std::path::Path::new(dir),
            )?);
        }
        text
    } else {
        explain_all(&events)?
    };
    print!("{text}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut svg = false;
    let mut violations = false;
    let mut action: Option<u64> = None;
    let mut expect_action_value = false;
    let mut checkpoint_dir: Option<String> = None;
    let mut expect_checkpoint_dir = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if expect_action_value {
            expect_action_value = false;
            match arg.parse::<u64>() {
                Ok(n) => action = Some(n),
                Err(_) => {
                    eprintln!("icm-trace: --action expects a number, got `{arg}`\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
            continue;
        }
        if expect_checkpoint_dir {
            expect_checkpoint_dir = false;
            checkpoint_dir = Some(arg);
            continue;
        }
        match arg.as_str() {
            "--json" => json = true,
            "--svg" => svg = true,
            "--violations" => violations = true,
            "--action" => expect_action_value = true,
            "--checkpoint-dir" => expect_checkpoint_dir = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("icm-trace: unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
            other => positional.push(other.to_owned()),
        }
    }
    if expect_action_value {
        eprintln!("icm-trace: --action expects a number\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if expect_checkpoint_dir {
        eprintln!("icm-trace: --checkpoint-dir expects a path\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if checkpoint_dir.is_some() && action.is_none() {
        eprintln!("icm-trace: --checkpoint-dir requires --action N\n{USAGE}");
        return ExitCode::FAILURE;
    }

    let outcome = match positional.split_first() {
        Some((cmd, rest)) if cmd == "summarize" => match rest {
            [path] => run_summarize(path, json),
            _ => Err("summarize takes exactly one trace path".to_owned()),
        },
        Some((cmd, rest)) if cmd == "diff" => match rest {
            [a, b] => run_diff(a, b, json),
            _ => Err("diff takes exactly two trace paths".to_owned()),
        },
        Some((cmd, rest)) if cmd == "flame" => match rest {
            [path] => run_flame(path, json, svg),
            _ => Err("flame takes exactly one trace path".to_owned()),
        },
        Some((cmd, rest)) if cmd == "explain" => match rest {
            [path] => run_explain(path, action, violations, checkpoint_dir.as_deref()),
            _ => Err("explain takes exactly one trace path".to_owned()),
        },
        Some((cmd, _)) => Err(format!("unknown subcommand `{cmd}`")),
        None => Err("missing subcommand".to_owned()),
    };

    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("icm-trace: {message}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
