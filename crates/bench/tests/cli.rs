//! The `tables` command line is strict: a misspelled flag or a
//! `--resume` with no journal to resume is a usage error (exit 2, usage
//! line on stderr), never a silent no-op.

use std::process::Command;

fn tables(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .env_remove("SOFTSIM_SWEEP_WORKERS")
        .env_remove("SOFTSIM_ABORT_AFTER_TRIALS")
        .output()
        .expect("tables runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = tables(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing computed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: tables"), "{args:?}: {stderr}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    assert_usage_error(&["--fualts"]);
    assert_usage_error(&["--faults", "--bogus"]);
    assert_usage_error(&["stray"]);
}

#[test]
fn resume_without_a_journal_is_a_usage_error() {
    assert_usage_error(&["--faults", "--resume"]);
}
