//! The fault-tolerant job execution layer.
//!
//! [`crate::pool`] gives raw panic isolation; this module layers policy on
//! top: per-job soft deadlines (cooperatively enforced through
//! [`sb_uarch::CancelToken`], which the simulator core polls at
//! cycle-batch granularity), a global wall-clock budget for the whole
//! batch, bounded retry-with-backoff for failures classified transient,
//! and a structured per-job failure report. One misbehaving grid point —
//! a panicking kernel, a runaway simulation, a flaky I/O error — costs
//! exactly that point; every surviving result is kept and every failure is
//! named.
//!
//! Deterministic fault injection ([`crate::faults`]) hooks in here so the
//! whole degradation path is testable end-to-end.

use crate::faults::{self, FaultPlan};
use crate::pool;
use sb_uarch::CancelToken;
use std::time::{Duration, Instant};

/// Why a job failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobFailure {
    /// The job panicked; the stringified payload.
    Panicked(String),
    /// The job overran its per-job soft deadline and was cooperatively
    /// stopped. Never retried — a job that blew its deadline once would
    /// blow it again.
    DeadlineExceeded,
    /// The batch's global run budget expired before the job could finish
    /// (or start).
    Cancelled,
    /// The job reported a typed error. `transient: true` requests a
    /// bounded retry with backoff.
    Failed {
        /// Human-readable cause.
        message: String,
        /// Whether retrying might help (I/O hiccups yes, bad config no).
        transient: bool,
    },
}

impl JobFailure {
    /// A typed error that retrying cannot fix.
    #[must_use]
    pub fn permanent(message: impl Into<String>) -> Self {
        JobFailure::Failed {
            message: message.into(),
            transient: false,
        }
    }

    /// A typed error worth a bounded retry (e.g. a transient I/O failure).
    #[must_use]
    pub fn transient(message: impl Into<String>) -> Self {
        JobFailure::Failed {
            message: message.into(),
            transient: true,
        }
    }

    fn is_transient(&self) -> bool {
        matches!(
            self,
            JobFailure::Failed {
                transient: true,
                ..
            }
        )
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Panicked(m) => write!(f, "panicked: {m}"),
            JobFailure::DeadlineExceeded => write!(f, "exceeded its per-job soft deadline"),
            JobFailure::Cancelled => write!(f, "cancelled (run budget exhausted)"),
            JobFailure::Failed {
                message,
                transient: true,
            } => write!(f, "failed (transient): {message}"),
            JobFailure::Failed {
                message,
                transient: false,
            } => write!(f, "failed: {message}"),
        }
    }
}

/// One failed job in a batch's failure report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobError {
    /// The job's index in the batch.
    pub index: usize,
    /// The caller-supplied label (e.g. `mega/STT-Issue/505.mcf`).
    pub label: String,
    /// Why it failed (the final attempt's classification).
    pub cause: JobFailure,
    /// How many attempts ran (0 when the budget expired before the first).
    pub attempts: u32,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{} {}: {}", self.index, self.label, self.cause)?;
        if self.attempts > 1 {
            write!(f, " [after {} attempts]", self.attempts)?;
        }
        Ok(())
    }
}

/// Execution policy for one batch of jobs.
#[derive(Clone, Debug)]
pub struct JobPolicy {
    /// Worker-pool width.
    pub workers: usize,
    /// Per-job soft deadline, enforced cooperatively through the job's
    /// [`CancelToken`] (`None` = unbounded).
    pub job_deadline: Option<Duration>,
    /// Global wall-clock budget for the whole batch; once it expires,
    /// running jobs are cancelled and queued jobs never start.
    pub run_budget: Option<Duration>,
    /// Maximum attempts for transient-classified failures (minimum 1).
    pub max_attempts: u32,
    /// Base backoff between retries; doubles each attempt.
    pub backoff: Duration,
    /// Deterministic fault injection; `None` outside the test/CI harness.
    pub faults: Option<FaultPlan>,
}

impl Default for JobPolicy {
    fn default() -> Self {
        JobPolicy {
            workers: pool::default_workers(),
            job_deadline: None,
            run_budget: None,
            max_attempts: 3,
            backoff: Duration::from_millis(25),
            faults: None,
        }
    }
}

/// What a running job sees: its index and its cancellation token. Job
/// bodies hand the token to the simulator core (`Core::set_cancel_token`)
/// and, if the run comes back interrupted, classify via
/// [`JobCtx::interruption`].
pub struct JobCtx {
    /// The job's index in the batch.
    pub index: usize,
    /// Child token: cancelled when the job's deadline passes *or* the
    /// batch budget expires.
    pub cancel: CancelToken,
}

impl JobCtx {
    /// Classifies an observed cooperative interruption: the job's own
    /// deadline ([`JobFailure::DeadlineExceeded`]) versus the batch budget
    /// ([`JobFailure::Cancelled`]).
    #[must_use]
    pub fn interruption(&self) -> JobFailure {
        if self.cancel.deadline_exceeded() {
            JobFailure::DeadlineExceeded
        } else {
            JobFailure::Cancelled
        }
    }
}

/// Outcome of one batch: index-aligned surviving results plus a complete
/// failure report. `results[i]` is `None` exactly when `failures` contains
/// an entry with `index == i`.
#[derive(Clone, Debug)]
pub struct BatchReport<T> {
    /// One slot per job, in submission order.
    pub results: Vec<Option<T>>,
    /// Every failed job, in index order.
    pub failures: Vec<JobError>,
}

impl<T> BatchReport<T> {
    /// True when every job produced a result.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of jobs that produced a result.
    #[must_use]
    pub fn survivors(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// Renders the per-job failure report (empty string when all jobs
    /// succeeded); see [`render_failures`].
    #[must_use]
    pub fn render_failures(&self) -> String {
        render_failures(&self.failures, self.results.len())
    }
}

/// Renders a per-job failure report. This is the format the CLI prints
/// and the README documents:
///
/// ```text
/// 2 of 88 jobs failed:
///   #17 mega/STT-Issue/505.mcf: panicked: injected fault: panic@17
///   #23 small/NDA/520.omnetpp: exceeded its per-job soft deadline
/// ```
#[must_use]
pub fn render_failures(failures: &[JobError], total: usize) -> String {
    if failures.is_empty() {
        return String::new();
    }
    let mut out = format!("{} of {total} jobs failed:\n", failures.len());
    for e in failures {
        out.push_str(&format!("  {e}\n"));
    }
    out
}

/// Runs one job body through the attempt loop: fault injection, budget
/// check, retry-with-backoff. Returns the final classification plus the
/// number of attempts that actually started.
fn run_one_job<T>(
    index: usize,
    policy: &JobPolicy,
    budget: &CancelToken,
    f: &(impl Fn(&JobCtx) -> Result<T, JobFailure> + Sync),
) -> (Result<T, JobFailure>, u32) {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        if budget.is_cancelled() {
            return (Err(JobFailure::Cancelled), attempt);
        }
        attempt += 1;
        let deadline = policy
            .job_deadline
            .and_then(|d| Instant::now().checked_add(d));
        let ctx = JobCtx {
            index,
            cancel: budget.child(deadline),
        };
        if let Some(plan) = &policy.faults {
            if plan.overruns_at(index) {
                faults::stall_past(deadline);
            }
            if plan.panics_at(index) {
                faults::fire_panic(index);
            }
        }
        match f(&ctx) {
            Ok(t) => return (Ok(t), attempt),
            Err(e) => {
                let retry = e.is_transient() && attempt < max_attempts && !budget.is_cancelled();
                if !retry {
                    return (Err(e), attempt);
                }
                // Exponential backoff, capped so a large max_attempts
                // cannot overflow the shift or stall the pool for minutes.
                let exp = (attempt - 1).min(8);
                std::thread::sleep(policy.backoff.saturating_mul(1 << exp));
            }
        }
    }
}

/// Runs `f` over `labels.len()` jobs under `policy`, returning every
/// surviving result plus a complete failure report. Panics are caught
/// (one per job, never disturbing other slots), deadlines and the batch
/// budget are enforced cooperatively through each job's [`JobCtx::cancel`]
/// token, and transient failures are retried with exponential backoff.
pub fn run_batch<T, F>(labels: &[String], policy: &JobPolicy, f: F) -> BatchReport<T>
where
    T: Send,
    F: Fn(&JobCtx) -> Result<T, JobFailure> + Sync,
{
    // A deadline past the clock's representable future never fires:
    // treat it as unbounded rather than overflowing `Instant`.
    let budget = match policy
        .run_budget
        .and_then(|b| Instant::now().checked_add(b))
    {
        Some(deadline) => CancelToken::with_deadline(deadline),
        None => CancelToken::new(),
    };
    let outcomes = pool::run_indexed_outcomes(labels.len(), policy.workers, |i| {
        run_one_job(i, policy, &budget, &f)
    });
    let mut results = Vec::with_capacity(labels.len());
    let mut failures = Vec::new();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let (slot, failure) = match outcome {
            Ok((Ok(t), _)) => (Some(t), None),
            Ok((Err(cause), attempts)) => (None, Some((cause, attempts))),
            Err(p) => (None, Some((JobFailure::Panicked(p.message), 1))),
        };
        results.push(slot);
        if let Some((cause, attempts)) = failure {
            failures.push(JobError {
                index: i,
                label: labels[i].clone(),
                cause,
                attempts,
            });
        }
    }
    BatchReport { results, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("job-{i}")).collect()
    }

    fn quick_policy() -> JobPolicy {
        JobPolicy {
            workers: 4,
            backoff: Duration::from_millis(1),
            ..JobPolicy::default()
        }
    }

    #[test]
    fn all_jobs_succeeding_yields_a_clean_report() {
        let report = run_batch(&labels(8), &quick_policy(), |ctx| Ok(ctx.index * 10));
        assert!(report.ok());
        assert_eq!(report.survivors(), 8);
        assert_eq!(report.results[3], Some(30));
        assert!(report.render_failures().is_empty());
    }

    #[test]
    fn typed_failures_keep_surviving_results() {
        let report = run_batch(&labels(6), &quick_policy(), |ctx| {
            if ctx.index == 2 {
                Err(JobFailure::permanent("bad config"))
            } else {
                Ok(ctx.index)
            }
        });
        assert_eq!(report.survivors(), 5);
        assert_eq!(report.results[2], None);
        assert_eq!(report.failures.len(), 1);
        let e = &report.failures[0];
        assert_eq!((e.index, e.attempts), (2, 1));
        assert_eq!(e.label, "job-2");
        assert_eq!(e.cause, JobFailure::permanent("bad config"));
        let rendered = report.render_failures();
        assert!(rendered.contains("1 of 6 jobs failed"), "{rendered}");
        assert!(
            rendered.contains("#2 job-2: failed: bad config"),
            "{rendered}"
        );
    }

    #[test]
    fn panicking_jobs_become_structured_failures() {
        let report = run_batch(&labels(5), &quick_policy(), |ctx| {
            assert!(ctx.index != 4, "kernel exploded");
            Ok(ctx.index)
        });
        assert_eq!(report.survivors(), 4);
        match &report.failures[0].cause {
            JobFailure::Panicked(m) => assert!(m.contains("kernel exploded"), "{m}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn transient_failures_retry_until_success() {
        let tries = AtomicU32::new(0);
        let report = run_batch(&labels(1), &quick_policy(), |_| {
            if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(JobFailure::transient("flaky io"))
            } else {
                Ok(())
            }
        });
        assert!(report.ok());
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn transient_retries_are_bounded_and_counted() {
        let tries = AtomicU32::new(0);
        let policy = JobPolicy {
            max_attempts: 2,
            ..quick_policy()
        };
        let report = run_batch(&labels(1), &policy, |_| -> Result<(), _> {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(JobFailure::transient("always flaky"))
        });
        assert_eq!(tries.load(Ordering::Relaxed), 2);
        assert_eq!(report.failures[0].attempts, 2);
        assert!(report.failures[0]
            .to_string()
            .contains("[after 2 attempts]"));
    }

    #[test]
    fn permanent_failures_are_never_retried() {
        let tries = AtomicU32::new(0);
        let report = run_batch(&labels(1), &quick_policy(), |_| -> Result<(), _> {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(JobFailure::permanent("bad input"))
        });
        assert_eq!(tries.load(Ordering::Relaxed), 1);
        assert_eq!(report.failures[0].attempts, 1);
    }

    #[test]
    fn deadline_overrun_is_classified_and_not_retried() {
        let policy = JobPolicy {
            job_deadline: Some(Duration::from_millis(5)),
            ..quick_policy()
        };
        let tries = AtomicU32::new(0);
        let report = run_batch(&labels(1), &policy, |ctx| -> Result<(), _> {
            tries.fetch_add(1, Ordering::Relaxed);
            // Cooperative job body: poll the token like the core does.
            while !ctx.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(ctx.interruption())
        });
        assert_eq!(report.failures[0].cause, JobFailure::DeadlineExceeded);
        assert_eq!(tries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn exhausted_budget_cancels_queued_jobs() {
        let policy = JobPolicy {
            run_budget: Some(Duration::ZERO),
            ..quick_policy()
        };
        let ran = AtomicU32::new(0);
        let report = run_batch(&labels(4), &policy, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no job should start");
        assert_eq!(report.survivors(), 0);
        assert!(report
            .failures
            .iter()
            .all(|e| e.cause == JobFailure::Cancelled && e.attempts == 0));
    }

    #[test]
    fn budget_cancellation_observed_mid_job_classifies_as_cancelled() {
        let policy = JobPolicy {
            workers: 1,
            run_budget: Some(Duration::from_millis(5)),
            ..quick_policy()
        };
        let report = run_batch(&labels(1), &policy, |ctx| -> Result<(), _> {
            while !ctx.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(ctx.interruption())
        });
        assert_eq!(report.failures[0].cause, JobFailure::Cancelled);
    }

    #[test]
    fn expiring_budget_cancels_jobs_queued_behind_a_running_one() {
        // One worker: job 0 runs until the budget expires under it; the
        // jobs queued behind it see the expired budget and never start.
        let policy = JobPolicy {
            workers: 1,
            run_budget: Some(Duration::from_millis(10)),
            ..quick_policy()
        };
        let ran = AtomicU32::new(0);
        let report = run_batch(&labels(4), &policy, |ctx| -> Result<(), _> {
            ran.fetch_add(1, Ordering::Relaxed);
            // Cooperative job body: poll the token like the core does.
            while !ctx.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(ctx.interruption())
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1, "only job 0 starts");
        assert_eq!(report.failures.len(), 4);
        assert!(report
            .failures
            .iter()
            .all(|e| e.cause == JobFailure::Cancelled));
        assert_eq!(report.failures[0].attempts, 1);
        assert!(report.failures[1..].iter().all(|e| e.attempts == 0));
    }

    #[test]
    fn expiring_budget_beats_a_later_job_deadline() {
        // Each running job's token is a child of the batch budget: when
        // the budget expires first, the interruption classifies as the
        // budget's (Cancelled), not the job's own deadline.
        let policy = JobPolicy {
            workers: 2,
            job_deadline: Some(Duration::from_secs(60)),
            run_budget: Some(Duration::from_millis(10)),
            ..quick_policy()
        };
        let report = run_batch(&labels(2), &policy, |ctx| -> Result<(), _> {
            while !ctx.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(ctx.interruption())
        });
        assert_eq!(report.survivors(), 0);
        assert!(report
            .failures
            .iter()
            .all(|e| e.cause == JobFailure::Cancelled));
    }

    #[test]
    fn unrepresentable_deadlines_are_unbounded() {
        // Regression: `--run-budget 1e19` parsed to a valid Duration and
        // then panicked adding it to `Instant::now()`.
        let policy = JobPolicy {
            job_deadline: Some(Duration::MAX),
            run_budget: Some(Duration::MAX),
            ..quick_policy()
        };
        let report = run_batch(&labels(3), &policy, |ctx| Ok(ctx.index));
        assert!(report.ok(), "{}", report.render_failures());
    }

    #[test]
    fn injected_panic_fault_fires_at_the_named_index() {
        let policy = JobPolicy {
            faults: Some(FaultPlan::parse("panic@1").unwrap()),
            ..quick_policy()
        };
        let report = run_batch(&labels(3), &policy, |ctx| Ok(ctx.index));
        assert_eq!(report.survivors(), 2);
        assert_eq!(
            report.failures[0].cause,
            JobFailure::Panicked("injected fault: panic@1".to_string())
        );
    }

    #[test]
    fn injected_overrun_fault_trips_the_deadline() {
        let policy = JobPolicy {
            job_deadline: Some(Duration::from_millis(5)),
            faults: Some(FaultPlan::parse("overrun@0").unwrap()),
            ..quick_policy()
        };
        let report = run_batch(&labels(1), &policy, |ctx| {
            if ctx.cancel.is_cancelled() {
                Err(ctx.interruption())
            } else {
                Ok(())
            }
        });
        assert_eq!(report.failures[0].cause, JobFailure::DeadlineExceeded);
    }
}
