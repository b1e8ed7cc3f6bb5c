//! `staub --emit` writing into a pipe whose reader has already gone away
//! (`staub --emit f | head`) must exit cleanly, not panic.

use std::process::{Command, Stdio};

#[test]
fn emit_into_a_closed_pipe_exits_cleanly() {
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/interval.smt2");
    // Close the read end before the child starts, so its first write
    // fails with EPIPE however small the output is.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_staub"))
        .args(["--emit", example])
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("spawn staub");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
