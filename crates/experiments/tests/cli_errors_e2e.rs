//! Bad inputs through the real CLI binary fail fast and cleanly: an
//! unusable `--out` or an out-of-range `--ops` exits 2 with an `error:`
//! line before anything is simulated, never with a panic after the work;
//! a write that fails later exits 1 with an `error:` line naming the file;
//! and an SBTR file whose records break the micro-op invariants fails
//! `import` with exit 1 instead of panicking or spinning the core.

use sb_isa::{encode_trace, ArchReg, CtrlFlow, MicroOp, OpClass, TraceBuilder};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sb-experiments");

/// A path no process can create: its parent is a character device.
const BAD_OUT: &str = "/dev/null/x";

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .env_remove("SB_FAULT_INJECT")
        .env("SB_STATS_CACHE", "0")
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

#[test]
fn import_rejects_records_that_break_op_invariants() {
    let x = ArchReg::int;
    let load = MicroOp::load(x(1), x(2), 0x1000_0000, 8);
    let store = MicroOp::store(x(2), x(1), 0x1000_0040, 8);
    let spinning_alu = MicroOp {
        ctrl: Some(CtrlFlow {
            taken: true,
            mispredicted: true,
            pc: 0,
            target: 0,
        }),
        ..MicroOp::alu(x(3), Some(x(1)), None)
    };
    // Each file carries a valid checksum: only the op-class invariants
    // (an access iff load/store, an outcome iff branch) are broken.
    let crafted = [
        ("load-without-access", MicroOp { mem: None, ..load }),
        ("store-without-access", MicroOp { mem: None, ..store }),
        ("alu-with-outcome", spinning_alu),
    ];
    let dir = std::env::temp_dir().join(format!("sb-cli-import-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bad) in crafted {
        assert_ne!(bad.class, OpClass::Branch);
        let mut b = TraceBuilder::new(name);
        b.alu(x(2), None, None);
        b.push(bad);
        b.alu(x(4), Some(x(3)), None);
        let path = dir.join(format!("{name}.sbtr"));
        std::fs::write(&path, encode_trace(&b.build())).unwrap();
        let out = run(&["import", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error:")
                && l.contains(path.to_str().unwrap())
                && l.contains("invalid trace encoding")),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
