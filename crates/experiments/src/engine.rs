//! The job list: simulate every point a run needs — a (config, scheme
//! configuration, benchmark, trace seed) tuple — with deterministic
//! seeding, over the fault-tolerant job layer.
//!
//! [`run_points`] is the one way the experiments simulate a benchmark
//! trace. It takes any list of [`Point`]s (the grid's configs × schemes ×
//! benchmarks, the points Table 4, Table 5 and §9.2 read, and a sweep's
//! design points × replicates × benchmarks), runs each distinct point
//! once as one flat job list so the pool stays saturated end-to-end, and
//! keeps every point's full `SimStats`. Each point runs as a
//! [`crate::jobs`] job: panics are isolated, per-job deadlines and the
//! global run budget are enforced cooperatively through the core's cancel
//! token, and every completed point's `SimStats` is persisted to the
//! [`crate::stats_store::StatsStore`] under [`Point`]'s key, so
//! `--resume` re-simulates only the missing points and any two runs that
//! share a point share its entry. Traces are generated in-process, once
//! per distinct (benchmark, seed), and shared by reference across the
//! points that run them.

use crate::jobs::{self, JobError, JobFailure, JobPolicy};
use crate::stats_store::{combine_fp, tag_fp, StatsStore};
use sb_core::{Scheme, SchemeConfig};
use sb_stats::{BenchResult, SimStats, SuiteSummary};
use sb_uarch::{Core, CoreConfig};
use sb_workloads::{generate, spec2017_profiles, WorkloadProfile};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Safety valve: no benchmark may run longer than this many cycles.
const MAX_CYCLES: u64 = 400_000_000;

/// Parameters of one run: trace length and seed.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Dynamic micro-ops per benchmark trace.
    pub ops: usize,
    /// Base RNG seed (each benchmark derives its own).
    pub seed: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            ops: 60_000,
            seed: 2025,
        }
    }
}

/// Longest accepted trace, in micro-ops per benchmark. A grid holds all
/// 22 benchmark traces at once, so this keeps a run's traces near 1 GB
/// and its cycle count well inside `MAX_CYCLES`.
pub const MAX_OPS: usize = 1_000_000;

/// Checks a trace length from any external input (`--ops`, a manifest's
/// `"ops"`): it must be at least 1 and at most [`MAX_OPS`].
///
/// # Errors
///
/// The accepted range, for the caller to name its input in front of.
pub fn check_ops(ops: u64) -> Result<usize, String> {
    usize::try_from(ops)
        .ok()
        .filter(|n| (1..=MAX_OPS).contains(n))
        .ok_or_else(|| format!("want 1 to {MAX_OPS} uops"))
}

/// Typed failure of a grid lookup or report computation — what used to be
/// a `panic!` deep inside a report function and is now surfaced as a
/// per-report failure by the CLI.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExperimentError {
    /// A configuration name outside the BOOM sweep.
    UnknownConfig(String),
    /// A report's point (named by its label) was not run or its job
    /// failed.
    MissingPoint(String),
    /// The `(config, scheme)` point was not part of the grid.
    MissingGridPoint {
        /// Requested configuration name.
        config: String,
        /// Requested scheme.
        scheme: Scheme,
    },
    /// A figure's trend line could not be fitted: after a degraded run (or
    /// on a one-config sweep) fewer than two usable points remain, or every
    /// surviving configuration has the same baseline IPC.
    DegenerateTrend {
        /// Scheme whose trend was requested.
        scheme: Scheme,
        /// The underlying fit failure.
        reason: sb_stats::TrendError,
    },
    /// The point ran but some of its benchmarks failed, so suite-level
    /// summaries would silently average over a partial basket.
    IncompleteSuite {
        /// Configuration name.
        config: String,
        /// Scheme.
        scheme: Scheme,
        /// Benchmarks that produced results.
        have: usize,
        /// Benchmarks the suite requires.
        want: usize,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::UnknownConfig(name) => write!(f, "unknown config {name}"),
            ExperimentError::MissingPoint(label) => write!(f, "no result for point {label}"),
            ExperimentError::MissingGridPoint { config, scheme } => {
                write!(f, "no grid point ({config}, {scheme})")
            }
            ExperimentError::IncompleteSuite {
                config,
                scheme,
                have,
                want,
            } => write!(
                f,
                "suite ({config}, {scheme}) is incomplete: {have} of {want} \
                 benchmarks produced results"
            ),
            ExperimentError::DegenerateTrend { scheme, reason } => write!(
                f,
                "trend for {scheme} is degenerate: {reason} (need at least \
                 two configurations with distinct baseline IPC)"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// The seed a point's benchmark trace is generated with — also the seed
/// component of the point's stats-store key, so trace identity and result
/// identity are keyed consistently.
pub(crate) fn bench_seed(profile: &WorkloadProfile, spec: &RunSpec) -> u64 {
    spec.seed ^ fxhash(profile.name)
}

fn fxhash(s: &str) -> u64 {
    // Small deterministic string hash for per-benchmark seeds.
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One simulation: a benchmark's trace on a configuration under a scheme
/// configuration.
#[derive(Clone, Debug)]
pub(crate) struct Point {
    /// Core configuration.
    pub(crate) config: CoreConfig,
    /// Scheme configuration the core runs under.
    pub(crate) scheme: SchemeConfig,
    /// The benchmark.
    pub(crate) profile: WorkloadProfile,
    /// Seed of the benchmark's trace.
    pub(crate) seed: u64,
}

impl Point {
    /// A grid point: `scheme` at `config`'s default scheme configuration,
    /// on `profile`'s trace seeded by [`bench_seed`] under `spec`.
    pub(crate) fn bench(
        config: &CoreConfig,
        scheme: Scheme,
        profile: &WorkloadProfile,
        spec: &RunSpec,
    ) -> Point {
        Point {
            config: config.clone(),
            scheme: config.scheme_config(scheme),
            profile: *profile,
            seed: bench_seed(profile, spec),
        }
    }

    fn is_default_scheme(&self) -> bool {
        self.scheme == self.config.scheme_config(self.scheme.scheme)
    }

    /// The point's stats-store key `(seed, fingerprint)`. A point at its
    /// configuration's default scheme configuration keys as the grid
    /// always has; any other scheme configuration also folds in its full
    /// description and threat model, as a sweep folds in its threat axis.
    fn key(&self) -> (u64, u64) {
        let scheme = if self.is_default_scheme() {
            tag_fp(&self.scheme.scheme.to_string())
        } else {
            combine_fp([
                tag_fp(&self.scheme.to_string()),
                tag_fp(&self.scheme.threat_model.to_string()),
            ])
        };
        let fp = combine_fp([
            self.config.fingerprint(),
            scheme,
            self.profile.fingerprint(),
        ]);
        (self.seed, fp)
    }

    /// The point's suite row.
    pub(crate) fn row(&self, stats: &SimStats) -> BenchResult {
        BenchResult::new(self.profile.name, stats.committed.get(), stats.cycles.get())
    }

    /// `config/scheme/benchmark`, the name a failure report gives the
    /// point's job. A scheme configuration other than the default is
    /// spelled out in full, threat model included.
    fn label(&self) -> String {
        let scheme = if self.is_default_scheme() {
            self.scheme.scheme.to_string()
        } else {
            format!("{}/{}", self.scheme, self.scheme.threat_model)
        };
        format!("{}/{scheme}/{}", self.config.name, self.profile.name)
    }
}

/// The full statistics of every point a [`run_points`] call ran, looked
/// up by the point itself.
#[derive(Debug, Default)]
pub(crate) struct PointResults {
    /// Stats-store key → position in `stats`.
    index: HashMap<(u64, u64), usize>,
    /// One slot per distinct point in job order; `None` for a failed job.
    stats: Vec<Option<SimStats>>,
}

impl PointResults {
    /// The statistics of `point`.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::MissingPoint`] if the point was not run or its
    /// job failed.
    pub(crate) fn get(&self, point: &Point) -> Result<&SimStats, ExperimentError> {
        self.index
            .get(&point.key())
            .and_then(|&i| self.stats[i].as_ref())
            .ok_or_else(|| ExperimentError::MissingPoint(point.label()))
    }
}

/// The grid's points: configs × every scheme × every benchmark,
/// config-major, then scheme, then benchmark.
pub(crate) fn grid_points(configs: &[CoreConfig], spec: &RunSpec) -> Vec<Point> {
    let profiles = spec2017_profiles();
    let mut points = Vec::with_capacity(configs.len() * 4 * profiles.len());
    for config in configs {
        for scheme in Scheme::all() {
            points.extend(
                profiles
                    .iter()
                    .map(|p| Point::bench(config, scheme, p, spec)),
            );
        }
    }
    points
}

/// Runs `points` as one job list over the fault-tolerant job layer: each
/// distinct point once, in order of first appearance, so job `k` is the
/// `k`-th distinct point (the index `--inject-faults` names). Every
/// point's trace is produced once and shared by reference across the
/// points that run it; a fully cached resume produces none. Returns every
/// point's full statistics plus a run report of cache hits, simulations
/// and per-job failures.
#[must_use]
pub(crate) fn run_points(
    points: impl IntoIterator<Item = Point>,
    spec: &RunSpec,
    opts: &RunOptions,
) -> (PointResults, RunReport) {
    let mut index = HashMap::new();
    let mut unique: Vec<(Point, (u64, u64))> = Vec::new();
    for point in points {
        let key = point.key();
        index.entry(key).or_insert_with(|| {
            unique.push((point, key));
            unique.len() - 1
        });
    }
    // One trace slot per distinct (benchmark, seed).
    let mut slot_of: HashMap<(&str, u64), usize> = HashMap::new();
    let slots: Vec<usize> = unique
        .iter()
        .map(|(p, _)| {
            let next = slot_of.len();
            *slot_of.entry((p.profile.name, p.seed)).or_insert(next)
        })
        .collect();
    let traces: Vec<OnceLock<sb_isa::Trace>> =
        (0..slot_of.len()).map(|_| OnceLock::new()).collect();
    let labels: Vec<String> = unique.iter().map(|(p, _)| p.label()).collect();
    let simulated = AtomicUsize::new(0);
    let from_cache = AtomicUsize::new(0);
    let report = jobs::run_batch(&labels, &opts.policy, |ctx| {
        let k = ctx.index;
        let (point, (seed, fp)) = &unique[k];
        let name = point.profile.name;
        if opts.resume {
            if let Some(stats) = opts
                .store
                .as_ref()
                .and_then(|s| s.load(name, spec.ops, *seed, *fp))
            {
                from_cache.fetch_add(1, Ordering::Relaxed);
                return Ok(stats);
            }
        }
        let trace = traces[slots[k]]
            .get_or_init(|| generate(&point.profile, spec.ops, point.seed))
            .clone();
        let mut core = Core::new(point.config.clone(), point.scheme, trace);
        core.set_cancel_token(ctx.cancel.clone());
        core.run(MAX_CYCLES);
        if core.interrupted() {
            return Err(ctx.interruption());
        }
        if !core.is_done() {
            return Err(JobFailure::permanent(format!(
                "{name} on {} ({}) did not finish within {MAX_CYCLES} cycles",
                point.config.name, point.scheme.scheme
            )));
        }
        let stats = core.stats().clone();
        simulated.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &opts.store {
            // A failed save is a cache bypass, never a run failure.
            if let Ok(path) = store.save(name, spec.ops, *seed, *fp, &stats) {
                if let Some(plan) = &opts.policy.faults {
                    if plan.corrupts_stats_at(k) {
                        let _ = crate::faults::corrupt_file(&path);
                    }
                }
            }
        }
        Ok(stats)
    });
    let run_report = RunReport {
        simulated: simulated.into_inner(),
        from_cache: from_cache.into_inner(),
        total: unique.len(),
        failures: report.failures,
    };
    let results = PointResults {
        index,
        stats: report.results,
    };
    (results, run_report)
}

/// All suite results for a set of configurations and schemes. Suites may
/// be *partial* after a degraded run (some jobs failed); the accessors
/// return typed errors instead of panicking so report functions surface
/// exactly which point is missing or incomplete.
#[derive(Debug, Default)]
pub struct GridResults {
    /// `(config name, scheme)` → per-benchmark rows (survivors only).
    suites: HashMap<(String, Scheme), Vec<BenchResult>>,
    /// Configuration names actually in the grid, in run order — the list
    /// report builders iterate instead of hardwiring the BOOM names.
    configs: Vec<String>,
    /// Rows a complete suite must have (0 = accept any, for hand-built
    /// grids in tests).
    benchmarks: usize,
}

impl GridResults {
    /// The configuration names this grid was run over, in run order.
    ///
    /// Report builders derive their rows and trend points from this list,
    /// so a grid built from any config set (not just the four BOOM points)
    /// reports exactly the configurations it actually contains.
    #[must_use]
    pub fn configs(&self) -> &[String] {
        &self.configs
    }

    /// Looks up one suite.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::MissingGridPoint`] if the point was not part of
    /// the grid; [`ExperimentError::IncompleteSuite`] if some of its
    /// benchmark jobs failed.
    pub fn suite(&self, config: &str, scheme: Scheme) -> Result<&[BenchResult], ExperimentError> {
        let rows = self
            .suites
            .get(&(config.to_string(), scheme))
            .ok_or_else(|| ExperimentError::MissingGridPoint {
                config: config.to_string(),
                scheme,
            })?;
        if self.benchmarks > 0 && rows.len() != self.benchmarks {
            return Err(ExperimentError::IncompleteSuite {
                config: config.to_string(),
                scheme,
                have: rows.len(),
                want: self.benchmarks,
            });
        }
        Ok(rows)
    }

    /// Baseline-normalized summary for one (config, scheme).
    ///
    /// # Errors
    ///
    /// Propagates [`GridResults::suite`] errors for either the baseline or
    /// the scheme suite.
    pub fn summary(&self, config: &str, scheme: Scheme) -> Result<SuiteSummary, ExperimentError> {
        Ok(SuiteSummary::new(
            self.suite(config, Scheme::Baseline)?.to_vec(),
            self.suite(config, scheme)?.to_vec(),
        ))
    }

    /// The grid over `configs` read out of `results`: one suite per
    /// (config, scheme), holding the rows of the benchmarks whose points
    /// produced results.
    pub(crate) fn from_points(
        configs: &[CoreConfig],
        results: &PointResults,
        spec: &RunSpec,
    ) -> Self {
        let profiles = spec2017_profiles();
        let mut grid = GridResults {
            suites: HashMap::new(),
            configs: Vec::new(),
            benchmarks: profiles.len(),
        };
        for config in configs {
            // A repeated config is listed once.
            if !grid.configs.iter().any(|n| n == config.name) {
                grid.configs.push(config.name.to_string());
            }
            for scheme in Scheme::all() {
                let rows = profiles
                    .iter()
                    .filter_map(|p| {
                        let point = Point::bench(config, scheme, p, spec);
                        Some(point.row(results.get(&point).ok()?))
                    })
                    .collect();
                grid.suites.insert((config.name.to_string(), scheme), rows);
            }
        }
        grid
    }

    /// Absolute baseline suite IPC for a configuration (Table 1's row).
    ///
    /// # Errors
    ///
    /// Propagates [`GridResults::suite`] errors.
    pub fn baseline_ipc(&self, config: &str) -> Result<f64, ExperimentError> {
        Ok(sb_stats::suite_ipc(self.suite(config, Scheme::Baseline)?))
    }
}

/// Execution options for a run (`run_grid_with`, `simulate`, `run_sweep`).
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Job-layer policy: workers, deadlines, budget, retries, faults.
    pub policy: JobPolicy,
    /// Read the stats store before simulating (the `--resume` path).
    /// Writes happen whenever the store is enabled, resume or not, so
    /// every completed run leaves a resumable cache behind.
    pub resume: bool,
    /// The result store; `None` disables persistence entirely.
    pub store: Option<StatsStore>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            policy: JobPolicy::default(),
            resume: false,
            store: StatsStore::from_env(),
        }
    }
}

/// What a run did: how much was simulated versus served from the
/// stats store, and every per-job failure.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Points simulated this run.
    pub simulated: usize,
    /// Points served from the stats store (`--resume` hits).
    pub from_cache: usize,
    /// Total distinct points in the run.
    pub total: usize,
    /// Every failed job, in index order.
    pub failures: Vec<JobError>,
}

impl RunReport {
    /// True when every point produced a result.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The per-job failure report (empty string when clean); same format
    /// as [`jobs::BatchReport::render_failures`].
    #[must_use]
    pub fn render_failures(&self) -> String {
        jobs::render_failures(&self.failures, self.total)
    }
}

/// Runs the whole grid under explicit execution options: every scheme on
/// every given configuration, as one `run_points` job list. Returns the
/// (possibly partial) grid plus a run report of cache hits, simulations,
/// and per-job failures.
#[must_use]
pub fn run_grid_with(
    configs: &[CoreConfig],
    spec: &RunSpec,
    opts: &RunOptions,
) -> (GridResults, RunReport) {
    let (results, report) = run_points(grid_points(configs, spec), spec, opts);
    (GridResults::from_points(configs, &results, spec), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    fn tiny() -> RunSpec {
        RunSpec {
            ops: 3_000,
            seed: 7,
        }
    }

    /// Options pinned to a scratch store so tests neither read nor write
    /// the developer's real `target/stats-cache`.
    fn scratch_opts(tag: &str) -> (RunOptions, StatsStore) {
        let dir = std::env::temp_dir().join(format!("sb-engine-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StatsStore::new(&dir);
        (
            RunOptions {
                policy: JobPolicy::default(),
                resume: false,
                store: Some(store.clone()),
            },
            store,
        )
    }

    fn cleanup(store: &StatsStore) {
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn repeated_points_run_once_and_keep_full_stats() {
        let p = spec2017_profiles();
        let spec = tiny();
        let a = Point::bench(&CoreConfig::medium(), Scheme::Baseline, &p[0], &spec);
        let b = Point::bench(&CoreConfig::medium(), Scheme::Nda, &p[0], &spec);
        let opts = RunOptions {
            store: None,
            ..RunOptions::default()
        };
        let (results, report) = run_points([a.clone(), b.clone(), a.clone()], &spec, &opts);
        assert!(report.ok());
        assert_eq!((report.total, report.simulated), (2, 2));
        assert_eq!(results.get(&a).unwrap().committed.get(), 3_000);
        assert!(results.get(&b).unwrap().cycles.get() > 0);
        let absent = Point::bench(&CoreConfig::small(), Scheme::Baseline, &p[0], &spec);
        assert_eq!(
            results.get(&absent).unwrap_err(),
            ExperimentError::MissingPoint("small/Baseline/500.perlbench".into())
        );
    }

    #[test]
    fn an_explicit_scheme_config_keys_apart_from_the_default() {
        let p = spec2017_profiles();
        let spec = tiny();
        let default = Point::bench(&CoreConfig::mega(), Scheme::SttRename, &p[18], &spec);
        let mut split = default.clone();
        split.scheme.split_store_taints = true;
        assert_ne!(default.key(), split.key());
        let mut futuristic = default.clone();
        futuristic.scheme = futuristic
            .scheme
            .with_threat_model(sb_core::ThreatModel::Futuristic);
        assert_ne!(default.key(), futuristic.key());
        assert_ne!(split.key(), futuristic.key());
        assert_eq!(default.label(), "mega/STT-Rename/548.exchange2");
        assert!(split.label().contains("+split-store"), "{}", split.label());
    }

    #[test]
    fn label_names_the_threat_model_of_a_non_default_scheme_config() {
        let mcf = spec2017_profiles()[3];
        let default = Point::bench(&CoreConfig::mega(), Scheme::Nda, &mcf, &tiny());
        let mut spectre = default.clone();
        spectre.scheme.broadcast_bandwidth = None;
        let mut futuristic = spectre.clone();
        futuristic.scheme = futuristic
            .scheme
            .with_threat_model(sb_core::ThreatModel::Futuristic);
        assert_eq!(default.label(), "mega/NDA/505.mcf");
        assert_eq!(spectre.label(), "mega/NDA (bw inf)/spectre/505.mcf");
        assert_eq!(futuristic.label(), "mega/NDA (bw inf)/futuristic/505.mcf");
    }

    #[test]
    fn per_benchmark_seeds_differ() {
        assert_ne!(fxhash("503.bwaves"), fxhash("505.mcf"));
    }

    #[test]
    fn grid_lookup_roundtrip() {
        let (opts, store) = scratch_opts("roundtrip");
        let (grid, report) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert!(report.ok());
        assert_eq!(report.simulated, 4 * 22);
        assert_eq!(report.from_cache, 0);
        let s = grid.summary("small", Scheme::SttIssue).unwrap();
        assert_eq!(s.normalized_ipc().len(), 22);
        assert!(grid.baseline_ipc("small").unwrap() > 0.0);
        cleanup(&store);
    }

    #[test]
    fn missing_grid_point_is_a_typed_error() {
        // Regression: this used to panic ("no grid point") from deep
        // inside a report function.
        let err = GridResults::default()
            .suite("mega", Scheme::Baseline)
            .unwrap_err();
        assert_eq!(
            err,
            ExperimentError::MissingGridPoint {
                config: "mega".to_string(),
                scheme: Scheme::Baseline,
            }
        );
        assert!(err.to_string().contains("no grid point"));
    }

    #[test]
    fn warm_resume_serves_the_whole_grid_from_cache() {
        let (mut opts, store) = scratch_opts("warm");
        let (cold_grid, cold) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert_eq!((cold.simulated, cold.from_cache), (88, 0));
        opts.resume = true;
        let (warm_grid, warm) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert_eq!(
            (warm.simulated, warm.from_cache),
            (0, 88),
            "a fully-cached resume must perform zero simulations"
        );
        for scheme in Scheme::all() {
            assert_eq!(
                cold_grid.suite("small", scheme).unwrap(),
                warm_grid.suite("small", scheme).unwrap(),
                "cached results must be identical to simulated ones"
            );
        }
        cleanup(&store);
    }

    #[test]
    fn resume_simulates_only_missing_points_and_heals_corruption() {
        let (mut opts, store) = scratch_opts("partial");
        // Corrupt one point's entry on the cold run (fault injection) and
        // delete another outright: resume must re-simulate exactly those.
        opts.policy.faults = Some(FaultPlan::parse("corrupt-stats@3").unwrap());
        let (_, cold) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert_eq!(cold.simulated, 88);
        let profiles = spec2017_profiles();
        let victim = &profiles[5];
        let spec = tiny();
        let fp = combine_fp([
            CoreConfig::small().fingerprint(),
            tag_fp(&Scheme::Baseline.to_string()),
            victim.fingerprint(),
        ]);
        let victim_path = store.path_for(victim.name, spec.ops, bench_seed(victim, &spec), fp);
        assert!(victim_path.exists());
        std::fs::remove_file(&victim_path).unwrap();
        opts.policy.faults = None;
        opts.resume = true;
        let (grid, warm) = run_grid_with(&[CoreConfig::small()], &spec, &opts);
        assert!(warm.ok());
        assert_eq!(
            (warm.simulated, warm.from_cache),
            (2, 86),
            "exactly the corrupted and the deleted entries re-simulate"
        );
        assert!(victim_path.exists(), "the resume pass heals the store");
        assert_eq!(grid.suite("small", Scheme::Baseline).unwrap().len(), 22);
        cleanup(&store);
    }

    #[test]
    fn injected_panic_yields_a_partial_grid_and_a_named_failure() {
        let (mut opts, store) = scratch_opts("panic");
        opts.policy.faults = Some(FaultPlan::parse("panic@0").unwrap());
        let (grid, report) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert_eq!(report.failures.len(), 1);
        let e = &report.failures[0];
        assert_eq!(e.index, 0);
        assert_eq!(e.label, "small/Baseline/500.perlbench");
        assert!(matches!(e.cause, JobFailure::Panicked(_)));
        // The victim suite is incomplete; every other suite survived whole.
        assert!(matches!(
            grid.suite("small", Scheme::Baseline),
            Err(ExperimentError::IncompleteSuite {
                have: 21,
                want: 22,
                ..
            })
        ));
        for scheme in Scheme::secure() {
            assert_eq!(grid.suite("small", scheme).unwrap().len(), 22);
        }
        assert!(report.render_failures().contains("panic@0"));
        cleanup(&store);
    }

    #[test]
    fn disabled_store_still_runs_and_counts_nothing_cached() {
        let opts = RunOptions {
            policy: JobPolicy::default(),
            resume: true, // resume with no store is a clean no-op
            store: None,
        };
        let (grid, report) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert!(report.ok());
        assert_eq!((report.simulated, report.from_cache), (88, 0));
        assert!(grid.baseline_ipc("small").unwrap() > 0.0);
    }
}
