//! The benchmark binary's exit contract.

use std::process::{Command, Output};

fn run(workload: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_owned()
}

#[test]
fn a_clean_run_exits_zero_and_ends_with_its_result() {
    let output = run("serve", &["--trace", "0"]);
    assert!(output.status.success(), "{output:?}");
    let result = icm_json::parse(&last_line(&output)).expect("the last line is JSON");
    assert_eq!(
        result.get("correct").and_then(icm_json::Json::as_bool),
        Some(true)
    );
}

#[test]
fn a_failed_check_exits_non_zero() {
    for workload in ["regen", "serve", "endure"] {
        let output = run(workload, &["--trace", "0", "--corrupt"]);
        assert!(!output.status.success(), "{workload} passed while corrupt");
        assert!(
            last_line(&output).starts_with("{\"correct\": false"),
            "{workload}: {}",
            last_line(&output)
        );
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let output = run("serve", &["--trace", "7"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
