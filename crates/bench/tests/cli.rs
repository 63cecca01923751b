//! Bad command lines make `bench-report` exit with status 2 and a
//! one-line error, never a panic, and before the suite runs.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .args(args)
        .output()
        .expect("bench-report runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

#[test]
fn out_without_a_value_exits_2() {
    assert_usage_error(&["--smoke", "--out"]);
}

#[test]
fn baseline_without_a_value_exits_2() {
    assert_usage_error(&["--smoke", "--baseline"]);
}

#[test]
fn unreadable_baseline_exits_2_before_the_suite() {
    assert_usage_error(&["--smoke", "--baseline", "no/such/baseline.json"]);
}

#[test]
fn out_into_a_missing_directory_exits_2_before_the_suite() {
    assert_usage_error(&["--smoke", "--out", "no/such/dir/report.json"]);
}
