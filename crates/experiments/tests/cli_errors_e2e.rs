//! Bad inputs through the real CLI binary fail fast and cleanly: an
//! unusable `--out` or an out-of-range `--ops` exits 2 with an `error:`
//! line before anything is simulated, never with a panic after the work;
//! a write that fails later exits 1 with an `error:` line naming the file.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sb-experiments");

/// A path no process can create: its parent is a character device.
const BAD_OUT: &str = "/dev/null/x";

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .env_remove("SB_FAULT_INJECT")
        .env("SB_STATS_CACHE", "0")
        .env("SB_TRACE_CACHE", "0")
        .output()
        .expect("spawn sb-experiments")
}

/// Asserts a clean usage failure: exit 2, an `error:` line containing
/// `needle`, no panic message.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error:") && l.contains(needle)),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn unusable_out_dir_fails_before_any_work() {
    for args in [
        &["verify-security", "--threat-model", "spectre"][..],
        &["analyze-security"],
        &["sweep", "--spec", "base=small width=1", "--ops", "200"],
        &["fig9"],
        &["table1", "--ops", "200"],
    ] {
        let mut args = args.to_vec();
        args.extend(["--out", BAD_OUT]);
        assert_usage_error(&args, BAD_OUT);
    }
}

#[test]
fn failed_output_write_is_an_error_not_a_panic() {
    // A directory squatting on the CSV's name makes the write itself fail.
    let out = std::env::temp_dir().join(format!("sb-cli-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(out.join("fig9.csv")).unwrap();
    let run = run(&["fig9", "--out", out.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&out);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error: cannot write") && l.contains("fig9.csv")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn huge_ops_is_a_usage_error_not_an_allocation_panic() {
    assert_usage_error(&["table4", "--ops", "18446744073709551615"], "--ops");
    assert_usage_error(&["sec92", "--ops", "1000001"], "--ops");
}
