//! Usage errors exit 2 before any workload runs.

use std::process::{Command, Output};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("the perf binary starts")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = perf(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(
        !stderr.contains("=="),
        "{args:?} started a workload: {stderr}"
    );
}

#[test]
fn unknown_workload_exits_2() {
    assert_usage_error(
        &["--workload", "dense_st_9", "--seed", "1"],
        "unknown workload",
    );
}

#[test]
fn bad_seed_exits_2() {
    for seed in ["x", "-1", "1.5", ""] {
        assert_usage_error(&["--seed", seed], "--seed takes");
    }
    assert_usage_error(&["--workload", "fig3_sweep"], "--seed is required");
    assert_usage_error(&["--seed"], "--seed needs a value");
}

#[test]
fn bad_flags_exit_2() {
    assert_usage_error(&["--seed", "1", "--trace", "2"], "--trace takes 0 or 1");
    assert_usage_error(&["--seed", "1", "--seconds", "0"], "--seconds takes");
    assert_usage_error(&["--seed", "1", "--bogus", "5"], "unknown argument");
    assert_usage_error(&["compare", "a.json"], "compare takes");
}
