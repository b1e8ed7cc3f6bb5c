//! `staub` writing into a pipe whose reader has already gone away
//! (`staub --emit f | head`, `staub client --help | true`) must exit
//! cleanly, not panic — whatever the subcommand.

use std::process::{Command, Stdio};

/// Runs `staub args` with stdout on a pipe whose read end is closed
/// before the child starts, so its first write fails with EPIPE however
/// small the output is, and requires a clean exit.
fn assert_clean_exit(args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_staub"))
        .args(args)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("spawn staub");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

const EXAMPLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/interval.smt2");

#[test]
fn emit_into_a_closed_pipe_exits_cleanly() {
    assert_clean_exit(&["--emit", EXAMPLE]);
}

#[test]
fn solve_lint_stats_and_batch_into_a_closed_pipe_exit_cleanly() {
    let invocations: [&[&str]; 9] = [
        &["--help"],
        &[EXAMPLE],
        &["--race", EXAMPLE],
        &["--refine", "2", EXAMPLE],
        &["stats", EXAMPLE],
        &["stats", "--help"],
        &["lint", EXAMPLE],
        &["batch", "--help"],
        &["batch", "--threads", "1", EXAMPLE],
    ];
    for args in invocations {
        assert_clean_exit(args);
    }
}

#[test]
fn service_help_into_a_closed_pipe_exits_cleanly() {
    for subcommand in ["client", "serve", "route", "loadgen"] {
        assert_clean_exit(&[subcommand, "--help"]);
    }
}
