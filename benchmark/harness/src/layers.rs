//! Every call the benchmark makes into the repository's crates, each one
//! wrapped in a span named after the layer it enters. A change to one of
//! these public functions is adapted here and nowhere else.
//!
//! `run_grid_with` offers no hook between its layers, so the traced grid
//! operation replays the same 352 points the way `run_points_with` runs
//! them: trace production once per benchmark (trace store, `isa` codec,
//! generator), then one `jobs::run_batch` job per point (stats store,
//! `Core::with_scheme`, `Core::run`), then the report functions in the
//! CLI's order. Its SimStats digests must equal those the untraced CLI run
//! leaves in its stats store.

use crate::spans::{span, Tracer};
use sb_core::Scheme;
use sb_experiments::stats_store::{combine_fp, encode_stats, tag_fp};
use sb_experiments::{
    fig10_report, fig1_table3_report, fig6_report, fig7_report, fig8_report, fig9_report, jobs,
    run_grid_with, sec92_report, security_report, table1_report, table4_report, table5_report,
    ExperimentError, JobFailure, JobPolicy, Report, RunOptions, RunSpec, StatsStore,
};
use sb_isa::{decode_trace, encode_trace, Trace};
use sb_stats::{BenchResult, SimStats, SuiteSummary};
use sb_uarch::{Core, CoreConfig};
use sb_workloads::{generate, spec2017_profiles, TraceStore, WorkloadProfile};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The engine's cycle safety valve.
const MAX_CYCLES: u64 = 400_000_000;

/// `core-mega`'s basket: compute-bound, memory-bound, streaming, and the
/// §9.2 store-to-load forwarding pathology.
const BASKET: [&str; 4] = ["502.gcc", "505.mcf", "503.bwaves", "548.exchange2"];

/// Micro-ops per `core-mega` basket trace.
const CORE_OPS: usize = 250_000;

/// Benchmarks whose simulation rate is reported as `uarch.mops.compute`
/// and `uarch.mops.memory`.
pub const COMPUTE_BENCH: &str = "502.gcc";
pub const MEMORY_BENCH: &str = "505.mcf";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The grid's parameters: the CLI's default `RunSpec` at `seed`.
fn grid_spec(seed: u64) -> RunSpec {
    RunSpec {
        seed,
        ..RunSpec::default()
    }
}

/// Per-benchmark trace seed, derived as the engine derives it.
fn bench_seed(profile: &WorkloadProfile, seed: u64) -> u64 {
    seed ^ fnv1a(profile.name.as_bytes())
}

/// Stats-store fingerprint of one grid point, keyed as the engine keys it.
fn point_fp(config: &CoreConfig, scheme: Scheme, profile: &WorkloadProfile) -> u64 {
    combine_fp([
        config.fingerprint(),
        tag_fp(&scheme.to_string()),
        profile.fingerprint(),
    ])
}

/// Digest of one run's statistics: FNV-1a of the stats store's own
/// serialization, so every counter takes part.
fn stats_digest(name: &str, stats: &SimStats) -> u64 {
    fnv1a(&encode_stats(name, stats))
}

/// One simulation: what ran, what it committed, and its host time.
#[derive(Clone, Debug)]
pub struct SimRun {
    pub scheme: Scheme,
    pub bench: &'static str,
    pub committed: u64,
    pub cycles: u64,
    pub run_ns: u64,
    /// Host wall and thread CPU time of the whole simulation: building
    /// the core, running it and digesting its statistics.
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub digest: u64,
}

impl SimRun {
    fn row(&self) -> BenchResult {
        BenchResult::new(self.bench, self.committed, self.cycles)
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// CPU time of the calling thread in nanoseconds, from the scheduler's
/// own accounting (tick-based `/proc/self/stat` is too coarse for one
/// simulation).
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// `configs × schemes × benchmarks` in the engine's job order.
fn grid_points(configs: usize, profiles: usize) -> Vec<(usize, Scheme, usize)> {
    let mut out = Vec::with_capacity(configs * 4 * profiles);
    for c in 0..configs {
        for s in Scheme::all() {
            for p in 0..profiles {
                out.push((c, s, p));
            }
        }
    }
    out
}

/// Reads every grid point back from a stats store: its digest (`None`
/// when absent or invalid) and the summed committed micro-ops.
#[must_use]
pub fn scan_stats_store(dir: &Path, seed: u64) -> (Vec<Option<u64>>, u64) {
    let profiles = spec2017_profiles();
    let configs = CoreConfig::boom_sweep();
    let spec = grid_spec(seed);
    let store = StatsStore::new(dir);
    let mut committed = 0;
    let digests = grid_points(configs.len(), profiles.len())
        .into_iter()
        .map(|(c, s, p)| {
            let profile = &profiles[p];
            let fp = point_fp(&configs[c], s, profile);
            let stats = store.load(profile.name, spec.ops, bench_seed(profile, seed), fp)?;
            committed += stats.committed.get();
            Some(stats_digest(profile.name, &stats))
        })
        .collect();
    (digests, committed)
}

/// Builds the core and runs it to completion inside `uarch.new` and
/// `uarch.run` spans; a typed job failure if it was cancelled or did not
/// finish.
fn simulate(
    tracer: Option<&Tracer>,
    parent: u64,
    config: &CoreConfig,
    scheme: Scheme,
    bench: &'static str,
    trace: &Trace,
    cancel: Option<&sb_uarch::CancelToken>,
) -> Result<(SimRun, SimStats), JobFailure> {
    let (start, cpu0) = (Instant::now(), thread_cpu_ns());
    let mut core = span(tracer, "uarch.new", parent, |_| {
        let mut core = Core::with_scheme(config.clone(), scheme, trace.clone());
        if let Some(token) = cancel {
            core.set_cancel_token(token.clone());
        }
        core
    });
    let t0 = Instant::now();
    span(tracer, "uarch.run", parent, |_| {
        core.run(MAX_CYCLES);
    });
    let run_ns = elapsed_ns(t0);
    if core.interrupted() {
        return Err(JobFailure::Cancelled);
    }
    if !core.is_done() {
        return Err(JobFailure::permanent(format!(
            "{bench} on {} ({scheme}) did not finish",
            config.name
        )));
    }
    let stats = core.stats().clone();
    let digest = stats_digest(bench, &stats);
    let run = SimRun {
        scheme,
        bench,
        committed: stats.committed.get(),
        cycles: stats.cycles.get(),
        run_ns,
        wall_ns: elapsed_ns(start),
        cpu_ns: thread_cpu_ns().saturating_sub(cpu0),
        digest,
    };
    Ok((run, stats))
}

// ---------------------------------------------------------------------------
// core-mega
// ---------------------------------------------------------------------------

/// The basket's traces at [`CORE_OPS`] micro-ops, each generated in a
/// `workloads.generate` span.
#[must_use]
pub fn basket_traces(tracer: Option<&Tracer>, parent: u64, seed: u64) -> Vec<Trace> {
    let profiles = spec2017_profiles();
    BASKET
        .iter()
        .map(|name| {
            let profile = profiles
                .iter()
                .find(|p| p.name == *name)
                .expect("basket benchmark is a SPEC2017 profile");
            span(tracer, "workloads.generate", parent, |_| {
                generate(profile, CORE_OPS, bench_seed(profile, seed))
            })
        })
        .collect()
}

/// One `core-mega` operation: every scheme on every basket trace on the
/// Mega configuration, single-threaded, calling `before_each` before each
/// simulation. A run that does not finish is `None`.
pub fn core_mega_op(
    tracer: Option<&Tracer>,
    parent: u64,
    traces: &[Trace],
    before_each: &mut dyn FnMut(),
) -> Vec<Option<SimRun>> {
    let mega = CoreConfig::mega();
    let mut out = Vec::with_capacity(4 * traces.len());
    for scheme in Scheme::all() {
        for (trace, bench) in traces.iter().zip(BASKET) {
            before_each();
            out.push(
                simulate(tracer, parent, &mega, scheme, bench, trace, None)
                    .ok()
                    .map(|(run, _)| run),
            );
        }
    }
    out
}

/// IPC loss in percent of each secure scheme against Baseline, over the
/// runs given (Table 5's definition).
#[must_use]
pub fn secure_losses(runs: &[SimRun]) -> Vec<f64> {
    let rows = |s: Scheme| -> Vec<BenchResult> {
        runs.iter()
            .filter(|r| r.scheme == s)
            .map(SimRun::row)
            .collect()
    };
    Scheme::secure()
        .into_iter()
        .map(|s| SuiteSummary::new(rows(Scheme::Baseline), rows(s)).ipc_loss_percent())
        .collect()
}

// ---------------------------------------------------------------------------
// grid-cold / grid-warm
// ---------------------------------------------------------------------------

type ReportFn<'a> = Box<dyn Fn() -> Result<Report, ExperimentError> + 'a>;

/// Trace-store lookups of one grid operation.
#[derive(Default)]
struct StoreCounts {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// What one traced grid operation did.
pub struct GridOutcome {
    /// One entry per grid point, `None` for a failed job.
    pub points: Vec<Option<u64>>,
    /// The points this operation simulated.
    pub runs: Vec<SimRun>,
    pub from_cache: usize,
    pub trace_hits: u64,
    pub trace_misses: u64,
    pub stats_hits: u64,
    pub stats_misses: u64,
    pub workers: usize,
}

/// Loads one benchmark's trace from the trace store or generates and
/// stores it — the steps `TraceStore::load_or_generate` takes, split so
/// the codec shows as its own layer.
fn produce_trace(
    tracer: Option<&Tracer>,
    parent: u64,
    store: &TraceStore,
    profile: &WorkloadProfile,
    ops: usize,
    seed: u64,
    counts: &StoreCounts,
) -> Trace {
    let fp = profile.fingerprint();
    let path = store.path_for(profile.name, ops, seed, fp);
    let cached = span(tracer, "workloads.store_load", parent, |id| {
        let bytes = std::fs::read(&path).ok()?;
        span(tracer, "isa.decode", id, |_| decode_trace(&bytes))
            .ok()
            .filter(|t| t.name() == profile.name && t.len() == ops)
    });
    if let Some(trace) = cached {
        counts.hits.fetch_add(1, Ordering::Relaxed);
        return trace;
    }
    counts.misses.fetch_add(1, Ordering::Relaxed);
    let trace = span(tracer, "workloads.generate", parent, |_| {
        generate(profile, ops, seed)
    });
    span(tracer, "workloads.store_save", parent, |id| {
        let bytes = span(tracer, "isa.encode", id, |_| encode_trace(&trace));
        // A failed save is a cache bypass, never a run failure.
        let _ = std::fs::create_dir_all(store.dir()).and_then(|()| std::fs::write(&path, bytes));
    });
    trace
}

/// One traced `sb-experiments all` (`resume` = `all --resume`) against the
/// given stores, writing the report CSVs to `out`.
///
/// # Panics
///
/// Panics if the output directory cannot be written.
pub fn grid_op(
    tracer: &Tracer,
    root: u64,
    seed: u64,
    resume: bool,
    trace_dir: &Path,
    stats_dir: &Path,
    out: &Path,
) -> GridOutcome {
    let t = Some(tracer);
    let profiles = spec2017_profiles();
    let configs = CoreConfig::boom_sweep();
    let spec = grid_spec(seed);
    let points = grid_points(configs.len(), profiles.len());
    let labels: Vec<String> = points
        .iter()
        .map(|&(c, s, p)| format!("{}/{}/{}", configs[c].name, s, profiles[p].name))
        .collect();
    let trace_store = TraceStore::new(trace_dir);
    let stats_store = StatsStore::new(stats_dir);
    let traces: Vec<OnceLock<Trace>> = profiles.iter().map(|_| OnceLock::new()).collect();
    let trace_counts = StoreCounts::default();
    let policy = JobPolicy::default();

    // A job's result: its digest, plus the run when it simulated.
    let batch = span(t, "experiments.jobs.run_batch", root, |batch_id| {
        jobs::run_batch(&labels, &policy, |ctx| {
            span(t, "experiments.jobs.job", batch_id, |job| {
                let (c, scheme, p) = points[ctx.index];
                let profile = &profiles[p];
                let seed = bench_seed(profile, spec.seed);
                let fp = point_fp(&configs[c], scheme, profile);
                if resume {
                    let hit = span(t, "experiments.stats_store.load", job, |_| {
                        stats_store.load(profile.name, spec.ops, seed, fp)
                    });
                    if let Some(stats) = hit {
                        return Ok((stats_digest(profile.name, &stats), None));
                    }
                }
                let trace = traces[p].get_or_init(|| {
                    produce_trace(t, job, &trace_store, profile, spec.ops, seed, &trace_counts)
                });
                let (run, stats) = simulate(
                    t,
                    job,
                    &configs[c],
                    scheme,
                    profile.name,
                    trace,
                    Some(&ctx.cancel),
                )
                .map_err(|e| match e {
                    JobFailure::Cancelled => ctx.interruption(),
                    other => other,
                })?;
                span(t, "experiments.stats_store.save", job, |_| {
                    let _ = stats_store.save(profile.name, spec.ops, seed, fp, &stats);
                });
                Ok((run.digest, Some(run)))
            })
        })
    });

    // GridResults has no public constructor: the reports get theirs from
    // `run_grid_with` reading back the store the batch just filled.
    let grid = span(t, "experiments.grid_assemble", root, |_| {
        let opts = RunOptions {
            resume: true,
            store: Some(StatsStore::new(stats_dir)),
            ..RunOptions::default()
        };
        run_grid_with(&configs, &spec, &opts).0
    });

    // The CLI's report order; table4, table5 and sec92 simulate for
    // themselves, the rest only render.
    let (render, sim) = ("experiments.reports.render", "experiments.reports.sim");
    let plan: Vec<(&str, &'static str, ReportFn)> = vec![
        (
            "table1",
            render,
            Box::new(|| table1_report(&grid, &configs)),
        ),
        ("fig6", render, Box::new(|| fig6_report(&grid))),
        ("fig7", render, Box::new(|| fig7_report(&grid))),
        ("fig8", render, Box::new(|| fig8_report(&grid))),
        ("fig9", render, Box::new(|| fig9_report(&configs))),
        ("fig10", render, Box::new(|| fig10_report(&grid, &configs))),
        (
            "table3",
            render,
            Box::new(|| fig1_table3_report(&grid, &configs)),
        ),
        ("table4", sim, Box::new(|| Ok(table4_report(&spec)))),
        ("table5", sim, Box::new(|| table5_report(&grid, &spec))),
        ("sec92", sim, Box::new(|| Ok(sec92_report(&spec)))),
        ("security", render, Box::new(|| Ok(security_report()))),
    ];
    // A report that fails leaves its CSV missing, which the checks count.
    let mut reports = Vec::new();
    for (name, layer, report) in plan {
        match span(t, layer, root, |_| report()) {
            Ok(r) => reports.push(r),
            Err(e) => eprintln!("report skipped: {name}: {e}"),
        }
    }
    span(t, "experiments.reports.write", root, |_| {
        std::fs::create_dir_all(out).expect("create output dir");
        for (name, csv) in reports.iter().flat_map(|r| &r.csv) {
            std::fs::write(out.join(name), csv).expect("write csv");
        }
    });

    let mut runs = Vec::new();
    let mut from_cache = 0;
    let points = batch
        .results
        .into_iter()
        .map(|slot| {
            slot.map(|(digest, run)| {
                match run {
                    Some(run) => runs.push(run),
                    None => from_cache += 1,
                }
                digest
            })
        })
        .collect();
    GridOutcome {
        points,
        runs,
        from_cache,
        trace_hits: trace_counts.hits.into_inner(),
        trace_misses: trace_counts.misses.into_inner(),
        stats_hits: stats_store.hits(),
        stats_misses: stats_store.misses(),
        workers: policy.workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> SimStats {
        let mut s = SimStats::new();
        s.cycles.add(123_456);
        s.committed.add(60_000);
        s.forwarding_errors.add(17);
        s
    }

    #[test]
    fn every_perturbed_simstats_byte_changes_the_digest() {
        let bytes = encode_stats("505.mcf", &sample_stats());
        let digest = fnv1a(&bytes);
        assert_eq!(digest, stats_digest("505.mcf", &sample_stats()));
        for i in 0..bytes.len() {
            let mut perturbed = bytes.clone();
            perturbed[i] ^= 0x01;
            assert_ne!(fnv1a(&perturbed), digest, "byte {i}");
        }
    }

    #[test]
    fn a_changed_counter_changes_the_digest() {
        let mut other = sample_stats();
        other.forwarding_errors.add(1);
        assert_ne!(
            stats_digest("505.mcf", &other),
            stats_digest("505.mcf", &sample_stats())
        );
    }

    #[test]
    fn grid_points_follow_the_engine_job_order() {
        let points = grid_points(2, 3);
        assert_eq!(points.len(), 24);
        assert_eq!(points[0], (0, Scheme::Baseline, 0));
        assert_eq!(points[3], (0, Scheme::SttRename, 0));
        assert_eq!(points[12], (1, Scheme::Baseline, 0));
    }
}
