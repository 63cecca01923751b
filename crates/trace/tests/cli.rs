//! Bad command lines make `pcm-trace` exit with status 2 and a one-line
//! error, never a panic, and before any replay runs.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_pcm-trace"))
        .args(args)
        .output()
        .expect("pcm-trace runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

#[test]
fn out_without_a_value_exits_2() {
    assert_usage_error(&["--out"]);
}

#[test]
fn trace_out_without_a_value_exits_2() {
    assert_usage_error(&["--trace-out"]);
}

#[test]
fn export_without_a_format_exits_2() {
    assert_usage_error(&["--export"]);
}

#[test]
fn unsupported_export_format_exits_2() {
    assert_usage_error(&["--export", "svg"]);
}
