//! A malformed `UCFG_WORDSET_CHUNK` in the environment must fail the
//! command up front with a message, not panic the first kernel that
//! reads it — in `ucfg serve` that kernel runs on a shard thread, and a
//! dead shard leaves every later request on it hanging while `/healthz`
//! still answers.
//!
//! Each case runs the `ucfg` binary as a child process with the bad value
//! in *its* environment, so no test mutates this process's environment.

use std::process::{Command, Output, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Run `ucfg <args>` with `UCFG_WORDSET_CHUNK=<chunk>`, killing it if it
/// has not exited within the deadline (a daemon that started instead of
/// failing would otherwise hang the test).
fn run_with_chunk_env(chunk: &str, args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ucfg"))
        .args(args)
        .env("UCFG_WORDSET_CHUNK", chunk)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ucfg");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll ucfg").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("ucfg {args:?} did not exit with UCFG_WORDSET_CHUNK={chunk}");
        }
        sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect ucfg output")
}

fn assert_rejected(args: &[&str]) {
    let out = run_with_chunk_env("banana", args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "ucfg {args:?} succeeded: {stderr}");
    assert!(
        stderr.contains("UCFG_WORDSET_CHUNK") && stderr.contains("banana"),
        "ucfg {args:?} stderr: {stderr}"
    );
}

#[test]
fn malformed_chunk_env_fails_a_plain_command() {
    assert_rejected(&["count", "2"]);
}

#[test]
fn malformed_chunk_env_fails_serve_before_it_starts() {
    assert_rejected(&["serve", "--port", "0"]);
}

#[test]
fn chunk_flag_replaces_a_malformed_chunk_env() {
    let out = run_with_chunk_env("banana", &["--chunk-bits=1024", "count", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
