//! `staub` writing into a pipe whose reader has already gone away
//! (`staub --emit f | head`, `staub client --help | true`) must exit
//! cleanly, not panic — whatever the subcommand. Every solving subcommand
//! runs the same scheduler, so all of them give one answer; `batch`
//! refuses contradictory widening flags.

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
    let invocations: [&[&str]; 8] = [
        &["--help"],
        &[EXAMPLE],
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

/// A strict ordering chain against a span bound (benchgen
/// `dl/strict/0007`, seed 1): unsat, and a difference-logic constraint
/// whose baseline gives up as incomplete, so only the DL lane decides it.
const DL_STRICT: &str = "(set-logic QF_LIA)
(declare-fun x0 () Int)
(declare-fun x1 () Int)
(declare-fun x2 () Int)
(declare-fun x3 () Int)
(declare-fun x4 () Int)
(assert (< x0 x1))
(assert (> x2 x1))
(assert (< x2 x3))
(assert (> x4 x3))
(assert (<= (- x4 x0) 1))
(check-sat)
";

#[test]
fn solve_stats_and_batch_give_one_answer() {
    let path = std::env::temp_dir().join(format!("staub-dl-strict-{}.smt2", std::process::id()));
    std::fs::write(&path, DL_STRICT).expect("write the constraint");
    let file = path.to_str().expect("utf-8 temp path");
    let stdout = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_staub"))
            .args(args)
            .output()
            .expect("spawn staub");
        assert_eq!(output.status.code(), Some(0), "{args:?}");
        String::from_utf8(output.stdout).expect("utf-8 output")
    };
    let solved = stdout(&[file]);
    let stats = stdout(&["stats", file]);
    let batch = stdout(&["batch", "--no-stats", file]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(solved, "unsat\n");
    assert!(stats.starts_with("unsat\n; lane dl/zed "), "{stats}");
    assert!(batch.contains("\"verdict\":\"unsat\""), "{batch}");
    assert!(batch.contains("\"winner\":\"dl/zed\""), "{batch}");
}

/// `--escalate` widens globally and `--refine`/`--refine-depth` per
/// variable: naming both is a usage error in either order, and `--retry`
/// is not a flag. Each exits 2 before solving anything.
#[test]
fn batch_rejects_a_contradictory_policy_and_retry() {
    let cases: [(&[&str], &str); 5] = [
        (&["--escalate", "2,4", "--refine"], "not both"),
        (&["--refine", "--escalate", "2,4"], "not both"),
        (&["--escalate", "2", "--refine-depth", "3"], "not both"),
        (&["--refine-depth", "3", "--escalate", "2"], "not both"),
        (&["--retry"], "unexpected argument `--retry`"),
    ];
    for (flags, message) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_staub"))
            .arg("batch")
            .args(flags)
            .arg(EXAMPLE)
            .output()
            .expect("spawn staub");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(message), "{flags:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{flags:?} solved anyway");
    }
}

#[test]
fn service_help_into_a_closed_pipe_exits_cleanly() {
    for subcommand in ["client", "serve", "route", "loadgen"] {
        assert_clean_exit(&[subcommand, "--help"]);
    }
}
