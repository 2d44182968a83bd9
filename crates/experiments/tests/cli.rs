//! `icm-experiments` command-line checks that need the built binary.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_icm-experiments"))
        .args(args)
        .output()
        .expect("the binary runs")
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
