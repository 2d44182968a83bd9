//! `icm-experiments` and `icm-trace` command-line checks that need the
//! built binaries.

use std::process::Command;

use icm_experiments::results::ResultsDoc;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_icm-experiments"))
        .args(args)
        .output()
        .expect("the binary runs")
}

/// A shared study runs once per invocation, yet a mixed id list, repeats
/// included, prints each id's own table and records each id's own data:
/// its stdout is the single-id runs' stdouts in order, and its results
/// entries are theirs.
#[test]
fn a_mixed_id_list_prints_and_records_what_single_id_runs_do() {
    let dir = std::env::temp_dir().join(format!("icm-cli-mixed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a temp dir");
    let run = |ids: &[&str], results: &str| {
        let results = dir.join(results).display().to_string();
        let mut args = ids.to_vec();
        args.extend(["--fast", "--quiet", "--results", &results]);
        let out = experiments(&args);
        assert!(out.status.success(), "{ids:?}: {out:?}");
        let text = std::fs::read_to_string(&results).expect("a results document");
        let doc = ResultsDoc::parse(&text).expect("the results parse");
        (out.stdout, doc)
    };
    let ids = ["table6", "fig2", "fig12", "table6", "fig7"];
    let (stdout, doc) = run(&ids, "mixed.json");
    let mut singles = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let (single, single_doc) = run(&[id], &format!("{i}.json"));
        singles.extend(single);
        assert_eq!(doc.get(id), single_doc.get(id), "the {id} entry differs");
    }
    assert!(stdout == singles, "stdout differs from the single-id runs'");
    let recorded: Vec<&str> = doc.experiments.iter().map(|e| e.id.as_str()).collect();
    assert_eq!(recorded, ["table6", "fig2", "fig12", "fig7"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A results path that names a socket is refused, not replaced by a
/// regular file, and the run fails before any study runs: even `all`
/// prints nothing.
#[cfg(unix)]
#[test]
fn a_results_path_that_is_not_a_regular_file_is_refused() {
    use std::os::unix::fs::FileTypeExt;
    let dir = std::env::temp_dir().join(format!("icm-cli-socket-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a temp dir");
    let socket = dir.join("results.sock");
    let _listener = std::os::unix::net::UnixListener::bind(&socket).expect("binds");
    let path = socket.display().to_string();
    for ids in [&["fig2"][..], &["all"]] {
        let mut args = ids.to_vec();
        args.extend(["--fast", "--quiet", "--results", &path]);
        let out = experiments(&args);
        assert!(
            !out.status.success(),
            "{ids:?}: writing over a socket is refused"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("is not a regular file"), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "{ids:?}: a study ran before the refusal"
        );
        let kind = std::fs::metadata(&socket).expect("the socket survives");
        assert!(kind.file_type().is_socket(), "the socket was replaced");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshots store the seed as a JSON number, exact only up to 2^53, so
/// a larger seed would resume as a different one.
#[test]
fn seeds_above_two_to_the_53_are_refused() {
    let exact = experiments(&["list", "--seed", "9007199254740992"]);
    assert!(exact.status.success(), "2^53 is accepted");
    for seed in ["9007199254740993", "18446744073709551615"] {
        let out = experiments(&["list", "--seed", seed]);
        assert!(!out.status.success(), "{seed} is refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("9007199254740992 (2^53)"), "{stderr}");
    }
}

/// A resumed run takes its seed from the snapshot: resuming a killed
/// seed-7 run without `--seed` writes the uninterrupted seed-7 run's
/// results document byte for byte, and a `--seed` that names another
/// seed is refused.
#[test]
fn a_resumed_run_keeps_the_snapshot_seed() {
    let dir = std::env::temp_dir().join(format!("icm-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let at = |name: &str| dir.join(name).display().to_string();
    let endurance = |ckpt: &str, extra: &[&str]| {
        let ckpt = at(ckpt);
        let mut args = vec!["endurance", "--fast", "--quiet", "--checkpoint-every", "2"];
        args.extend(["--checkpoint-dir", &ckpt]);
        args.extend(extra);
        experiments(&args)
    };
    let (reference, resumed) = (at("ref.json"), at("resumed.json"));
    let kill = at("kill");
    assert!(endurance("ref", &["--seed", "7", "--results", &reference])
        .status
        .success());
    assert!(!endurance("kill", &["--seed", "7", "--kill-after", "5"])
        .status
        .success());

    let conflict = endurance("kill", &["--resume", &kill, "--seed", "2016"]);
    assert!(
        !conflict.status.success(),
        "a conflicting --seed is refused"
    );
    let stderr = String::from_utf8_lossy(&conflict.stderr);
    assert!(
        stderr.contains("--seed 2016 conflicts with seed 7 of the resumed snapshot"),
        "{stderr}"
    );

    assert!(
        endurance("kill", &["--resume", &kill, "--results", &resumed])
            .status
            .success()
    );
    let read = |path: &str| std::fs::read(path).expect("a results document");
    assert!(
        read(&reference) == read(&resumed),
        "the resumed results differ"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resumed run takes `fast` from the snapshot too: resuming a killed
/// fast run without `--fast` writes the uninterrupted fast run's results
/// document byte for byte, `"fast": true` included.
#[test]
fn a_resumed_run_keeps_the_snapshot_fast() {
    let dir = std::env::temp_dir().join(format!("icm-cli-resume-fast-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let at = |name: &str| dir.join(name).display().to_string();
    let (reference, resumed, kill) = (at("ref.json"), at("resumed.json"), at("kill"));
    let fast_run = |ckpt: &str, extra: &[&str]| {
        let ckpt = at(ckpt);
        let mut args = vec!["endurance", "--fast", "--quiet", "--seed", "7"];
        args.extend(["--checkpoint-every", "2", "--checkpoint-dir", &ckpt]);
        args.extend(extra);
        experiments(&args)
    };
    assert!(fast_run("ref", &["--results", &reference]).status.success());
    assert!(!fast_run("kill", &["--kill-after", "5"]).status.success());

    let out = experiments(&[
        "endurance",
        "--quiet",
        "--resume",
        &kill,
        "--checkpoint-every",
        "2",
        "--checkpoint-dir",
        &kill,
        "--results",
        &resumed,
    ]);
    assert!(out.status.success(), "{out:?}");
    let read = |path: &str| std::fs::read(path).expect("a results document");
    assert!(
        read(&reference) == read(&resumed),
        "the resumed results differ"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `icm-trace` takes subcommands only: its usage names exactly the four
/// of them, and a bare trace path (a form it no longer has) is refused.
#[test]
fn icm_trace_usage_lists_its_four_subcommands() {
    let trace = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_icm-trace"))
            .args(args)
            .output()
            .expect("the binary runs")
    };
    let help = trace(&["--help"]);
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout);
    let subcommands: Vec<&str> = usage
        .lines()
        .map(|line| {
            let line = line.trim_start_matches("usage:").trim_start();
            let rest = line.strip_prefix("icm-trace ").expect("a usage line");
            rest.split_whitespace().next().expect("a subcommand")
        })
        .collect();
    assert_eq!(
        subcommands,
        ["summarize", "diff", "flame", "explain"],
        "{usage}"
    );

    let path = std::env::temp_dir().join(format!("icm-cli-bare-{}.jsonl", std::process::id()));
    std::fs::write(&path, "").expect("writes");
    let bare = trace(&[path.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&path);
    assert!(!bare.status.success(), "a bare trace path is refused");
    let stderr = String::from_utf8_lossy(&bare.stderr);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
}
