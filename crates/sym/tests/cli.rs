//! Bad command lines make `pcm-sym` exit with status 2 and a one-line
//! error, never a panic, and before the sweep runs.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_pcm-sym"))
        .args(args)
        .output()
        .expect("pcm-sym runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

#[test]
fn unknown_argument_exits_2() {
    assert_usage_error(&["--fast", "--bogus"]);
}

#[test]
fn out_without_a_value_exits_2() {
    assert_usage_error(&["--fast", "--out"]);
}
