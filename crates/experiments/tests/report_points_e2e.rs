//! End-to-end: the points `all` simulates for Table 4, Table 5 and §9.2
//! are ordinary jobs of the run's one job list. A fault injected at the
//! first point after the grid (index 352, Table 5's first gem5-like
//! point) fails that job with a name, skips exactly the report that
//! reads it, and exits 1; `--resume` then simulates that one point and
//! reproduces a clean run's CSVs byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sb-experiments");

/// Distinct points of `all`: the 352-point grid, Table 5's 88 gem5-like
/// points and §9.2's split-store point (Table 4's and §9.2's other points
/// are grid points).
const TOTAL: usize = 441;

/// Every CSV `all` writes.
const CSVS: [&str; 11] = [
    "table1.csv",
    "fig6.csv",
    "fig7.csv",
    "fig8.csv",
    "fig9.csv",
    "fig10.csv",
    "table3.csv",
    "table4.csv",
    "table5.csv",
    "sec92.csv",
    "security.csv",
];

struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new() -> Scratch {
        let root = std::env::temp_dir().join(format!("sb-report-points-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Scratch { root }
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Runs `all` against one stats cache and output dir, with a fully
    /// pinned environment (no ambient cache or fault variables).
    fn run(&self, stats: &str, out: &str, extra: &[&str]) -> Output {
        Command::new(BIN)
            .args(["all", "--ops", "600", "--seed", "7"])
            .args(["--out", self.dir(out).to_str().unwrap()])
            .args(extra)
            .env_remove("SB_FAULT_INJECT")
            .env("SB_STATS_CACHE", self.dir(stats))
            .output()
            .expect("spawn sb-experiments")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name))
        .unwrap_or_else(|e| panic!("missing {name} in {}: {e}", dir.display()))
}

#[test]
fn a_failed_report_point_is_a_named_job_failure_that_resume_heals() {
    let scratch = Scratch::new();

    let reference = scratch.run("stats-ref", "out-ref", &[]);
    let err = stderr_of(&reference);
    assert!(reference.status.success(), "reference run failed:\n{err}");
    assert!(
        err.contains(&format!(
            "{TOTAL} simulated, 0 from cache, 0 of {TOTAL} failed"
        )),
        "{err}"
    );

    let faulted = scratch.run(
        "stats-fault",
        "out-fault",
        &["--inject-faults", "panic@352"],
    );
    let err = stderr_of(&faulted);
    assert_eq!(
        faulted.status.code(),
        Some(1),
        "a degraded run exits 1:\n{err}"
    );
    assert!(
        err.contains(&format!("440 simulated, 0 from cache, 1 of {TOTAL} failed")),
        "{err}"
    );
    assert!(
        err.contains("#352 gem5-stt/Baseline/500.perlbench: panicked: injected fault: panic@352"),
        "the failure names the point:\n{err}"
    );
    assert!(
        err.contains("report skipped: table5: no result for point gem5-stt/Baseline/500.perlbench"),
        "{err}"
    );
    assert!(!scratch.dir("out-fault").join("table5.csv").exists());
    for name in CSVS.into_iter().filter(|&n| n != "table5.csv") {
        assert_eq!(
            read(&scratch.dir("out-ref"), name),
            read(&scratch.dir("out-fault"), name),
            "{name} does not read the failed point and must match a clean run"
        );
    }

    let resumed = scratch.run("stats-fault", "out-fault", &["--resume"]);
    let err = stderr_of(&resumed);
    assert!(resumed.status.success(), "resume must heal the run:\n{err}");
    assert!(
        err.contains(&format!("1 simulated, 440 from cache, 0 of {TOTAL} failed")),
        "{err}"
    );
    for name in CSVS {
        assert_eq!(
            read(&scratch.dir("out-ref"), name),
            read(&scratch.dir("out-fault"), name),
            "{name} must be byte-identical after resume"
        );
    }
}
