//! Bad command lines make `reproduce` exit with status 2 and a one-line
//! error, never a panic, and before any experiment runs.

use std::process::Command;

/// Runs `reproduce` with `args`; returns its exit code and stderr.
fn reproduce(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str]) {
    let (code, stderr) = reproduce(args);
    assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

#[test]
fn seed_without_a_value_exits_2() {
    assert_usage_error(&["fig01", "--seed"]);
}

#[test]
fn non_integer_seed_exits_2() {
    assert_usage_error(&["fig01", "--seed", "abc"]);
}

#[test]
fn out_without_a_value_exits_2() {
    assert_usage_error(&["fig01", "--out"]);
}

#[test]
fn unknown_id_is_rejected_before_any_target_runs() {
    let (code, stderr) = reproduce(&["fig01", "fgi02", "--quick"]);
    assert_eq!(code, Some(2), "stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("fgi02"), "{stderr}");
    assert!(!stderr.contains("== fig01"), "fig01 ran first: {stderr}");
}
