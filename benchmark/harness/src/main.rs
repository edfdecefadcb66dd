//! `sb-perf-harness`: the compiled half of the repository benchmark.
//! `benchmark/run.py` drives it; each subcommand prints one JSON object.
//!
//! ```text
//! sb-perf-harness info
//! sb-perf-harness store-scan --stats DIR --seed N
//! sb-perf-harness grid-trace --resume 0|1 --seed N --trace-store DIR
//!                 --stats-store DIR --out DIR --spans FILE --run-id ID
//! sb-perf-harness core-mega --seeds N,N,... --seconds S
//!                 --traced 0|1 --spans FILE
//! sb-perf-harness calibrate --seconds S
//! ```

#![forbid(unsafe_code)]

mod calib;
mod layers;
mod spans;

use layers::SimRun;
use spans::{self_ns_by_name, span, top_level_ns, Span, Tracer, NO_PARENT};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn fail(msg: &str) -> ! {
    eprintln!("sb-perf-harness: {msg}");
    std::process::exit(2);
}

/// `--flag value` pairs after the subcommand.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(rest: &[String]) -> Flags {
        let mut map = BTreeMap::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                fail(&format!("unexpected argument {flag}"));
            };
            let value = it
                .next()
                .unwrap_or_else(|| fail(&format!("{flag} requires a value")));
            map.insert(name.to_string(), value.clone());
        }
        Flags(map)
    }

    fn str(&self, name: &str) -> &str {
        self.0
            .get(name)
            .unwrap_or_else(|| fail(&format!("missing --{name}")))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> T {
        self.str(name)
            .parse()
            .unwrap_or_else(|_| fail(&format!("invalid --{name}")))
    }

    fn path(&self, name: &str) -> PathBuf {
        PathBuf::from(self.str(name))
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// A JSON number; non-finite values (an empty ratio) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn digests_json(points: &[Option<u64>]) -> String {
    let items: Vec<String> = points
        .iter()
        .map(|d| d.map_or("null".into(), |d| format!("\"{d:016x}\"")))
        .collect();
    format!("[{}]", items.join(","))
}

fn metrics_json(metrics: &BTreeMap<String, f64>) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    format!("{{{}}}", items.join(","))
}

/// Simulated micro-ops per host second, in millions, over `runs`.
fn mops<'a>(runs: impl Iterator<Item = &'a SimRun>) -> f64 {
    let (committed, ns) = runs.fold((0u64, 0u64), |(c, n), r| (c + r.committed, n + r.run_ns));
    if ns == 0 {
        0.0
    } else {
        committed as f64 / ns as f64 * 1e3
    }
}

/// The per-layer metrics one traced operation's spans and runs give.
/// Layers the operation never entered read 0.
fn layer_metrics(spans: &[Span], runs: &[SimRun]) -> BTreeMap<String, f64> {
    let self_ns = self_ns_by_name(spans);
    let self_s = |name: &str| self_ns.get(name).map_or(0.0, |&ns| secs(ns));
    let mut m = BTreeMap::new();
    for (metric, span_name) in [
        ("uarch.run_s", "uarch.run"),
        ("uarch.new_s", "uarch.new"),
        ("workloads.generate_s", "workloads.generate"),
        ("workloads.store_load_s", "workloads.store_load"),
        ("workloads.store_save_s", "workloads.store_save"),
        ("isa.encode_s", "isa.encode"),
        ("isa.decode_s", "isa.decode"),
        (
            "experiments.stats_store.save_s",
            "experiments.stats_store.save",
        ),
        (
            "experiments.stats_store.load_s",
            "experiments.stats_store.load",
        ),
        ("experiments.reports.render_s", "experiments.reports.render"),
        ("experiments.reports.sim_s", "experiments.reports.sim"),
    ] {
        m.insert(metric.to_string(), self_s(span_name));
    }
    for scheme in sb_core::Scheme::all() {
        let key = format!("uarch.mops.{}", scheme.to_string().to_lowercase());
        m.insert(key, mops(runs.iter().filter(|r| r.scheme == scheme)));
    }
    m.insert(
        "uarch.mops.compute".into(),
        mops(runs.iter().filter(|r| r.bench == layers::COMPUTE_BENCH)),
    );
    m.insert(
        "uarch.mops.memory".into(),
        mops(runs.iter().filter(|r| r.bench == layers::MEMORY_BENCH)),
    );
    let cycles: u64 = runs.iter().map(|r| r.cycles).sum();
    let run_ns: u64 = runs.iter().map(|r| r.run_ns).sum();
    m.insert("uarch.sim_cycles".into(), cycles as f64);
    m.insert(
        "uarch.committed".into(),
        runs.iter().map(|r| r.committed).sum::<u64>() as f64,
    );
    m.insert("uarch.ns_per_cycle".into(), run_ns as f64 / cycles as f64);
    m.insert(
        "uarch.stt_rename_slowdown".into(),
        m["uarch.mops.baseline"] / m["uarch.mops.stt-rename"],
    );
    // Job-layer and store counts; the grid operation fills them in.
    for key in [
        "experiments.pool.util",
        "experiments.jobs.simulated",
        "experiments.jobs.from_cache",
        "workloads.store_hits",
        "workloads.store_misses",
        "experiments.stats_store.hits",
        "experiments.stats_store.misses",
        "experiments.stats_store.hit_ratio",
    ] {
        m.insert(key.into(), 0.0);
    }
    m
}

fn write_spans(path: &PathBuf, tracers: &[Tracer]) {
    let body: Vec<String> = tracers.iter().map(Tracer::to_json).collect();
    std::fs::write(path, format!("[{}]\n", body.join(",\n")))
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
}

fn cmd_grid_trace(f: &Flags) {
    let seed: u64 = f.num("seed");
    let resume = f.str("resume") == "1";
    let tracer = Tracer::new(f.str("run-id"));
    let (root, outcome) = span(Some(&tracer), "run", NO_PARENT, |root| {
        let outcome = layers::grid_op(
            &tracer,
            root,
            seed,
            resume,
            &f.path("trace-store"),
            &f.path("stats-store"),
            &f.path("out"),
        );
        (root, outcome)
    });
    let spans = tracer.spans();
    let mut m = layer_metrics(&spans, &outcome.runs);
    let busy: u64 = spans
        .iter()
        .filter(|s| s.name == "experiments.jobs.job")
        .map(Span::duration_ns)
        .sum();
    let batch: u64 = spans
        .iter()
        .filter(|s| s.name == "experiments.jobs.run_batch")
        .map(Span::duration_ns)
        .sum();
    m.insert(
        "experiments.pool.util".into(),
        busy as f64 / (outcome.workers as f64 * batch as f64),
    );
    m.insert(
        "experiments.jobs.simulated".into(),
        outcome.runs.len() as f64,
    );
    m.insert(
        "experiments.jobs.from_cache".into(),
        outcome.from_cache as f64,
    );
    m.insert("workloads.store_hits".into(), outcome.trace_hits as f64);
    m.insert("workloads.store_misses".into(), outcome.trace_misses as f64);
    let (hits, misses) = (outcome.stats_hits as f64, outcome.stats_misses as f64);
    m.insert("experiments.stats_store.hits".into(), hits);
    m.insert("experiments.stats_store.misses".into(), misses);
    m.insert(
        "experiments.stats_store.hit_ratio".into(),
        hits / (hits + misses),
    );
    write_spans(&f.path("spans"), &[tracer]);
    println!(
        "{{\"points\":{},\"covered_s\":{},\"metrics\":{}}}",
        digests_json(&outcome.points),
        num(secs(top_level_ns(&spans, root))),
        metrics_json(&m)
    );
}

/// CPU seconds of the calling thread so far.
fn cpu_seconds() -> f64 {
    secs(layers::thread_cpu_ns())
}

/// The process's resident-set high-water mark in kB.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn seconds_json(ns: &[u64]) -> String {
    let items: Vec<String> = ns.iter().map(|&ns| num(secs(ns))).collect();
    format!("[{}]", items.join(","))
}

/// One `core-mega` operation as JSON, with the calibrations run between
/// its simulations. A traced one also carries the time its top-level
/// spans cover and its layer metrics.
fn core_op_json(
    seed: u64,
    wall: f64,
    cpu: f64,
    runs: &[Option<SimRun>],
    cal_ns: &[u64],
    trace: Option<(f64, &BTreeMap<String, f64>)>,
) -> String {
    let mut out = format!(
        "{{\"seed\":{seed},\"traced\":{},\"wall_s\":{},\"cpu_s\":{},\"cal_s\":{},\"runs\":[",
        trace.is_some(),
        num(wall),
        num(cpu),
        seconds_json(cal_ns)
    );
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match r {
            Some(r) => {
                let _ = write!(
                    out,
                    "{{\"key\":\"{}/{}\",\"digest\":\"{:016x}\",\"committed\":{},\
                     \"wall_s\":{},\"cpu_s\":{}}}",
                    r.scheme.to_string().to_lowercase(),
                    r.bench,
                    r.digest,
                    r.committed,
                    num(secs(r.wall_ns)),
                    num(secs(r.cpu_ns))
                );
            }
            None => out.push_str("null"),
        }
    }
    let done: Vec<SimRun> = runs.iter().flatten().cloned().collect();
    let losses: Vec<String> = layers::secure_losses(&done).into_iter().map(num).collect();
    let _ = write!(out, "],\"losses\":[{}]", losses.join(","));
    if let Some((covered_s, m)) = trace {
        let _ = write!(
            out,
            ",\"covered_s\":{},\"metrics\":{}",
            num(covered_s),
            metrics_json(m)
        );
    }
    out.push('}');
    out
}

fn cmd_core_mega(f: &Flags) {
    let seeds: Vec<u64> = f
        .str("seeds")
        .split(',')
        .map(|s| s.parse().unwrap_or_else(|_| fail("invalid --seeds")))
        .collect();
    let budget = Duration::from_secs_f64(f.num("seconds"));
    let traced = f.str("traced") == "1";

    // Set-up: generate the basket's traces, once per program seed.
    let setup_tracer = Tracer::new("core-mega-setup");
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for &seed in &seeds {
        let t0 = Instant::now();
        inputs.push(span(Some(&setup_tracer), "setup", NO_PARENT, |id| {
            layers::basket_traces(Some(&setup_tracer), id, seed)
        }));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let generate_s = self_ns_by_name(&setup_tracer.spans())
        .get("workloads.generate")
        .map_or(0.0, |&ns| secs(ns))
        / seeds.len() as f64;

    // Measured operations until the budget is spent, cycling over the
    // seeds. A traced run pairs each untraced operation with a traced one
    // and stays on the first seed, so its counts repeat exactly.
    let mut op_json = Vec::new();
    let mut tracers = vec![setup_tracer];
    let mut kernel = calib::Kernel::new();
    let start = Instant::now();
    for k in 0.. {
        let pick = if traced { 0 } else { k % seeds.len() };
        let (seed, traces) = (seeds[pick], &inputs[pick]);
        let mut cal_ns = Vec::new();
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let runs = layers::core_mega_op(None, NO_PARENT, traces, &mut || {
            cal_ns.push(kernel.time_ns());
        });
        let wall = t0.elapsed().as_secs_f64();
        op_json.push(core_op_json(
            seed,
            wall,
            cpu_seconds() - c0,
            &runs,
            &cal_ns,
            None,
        ));
        if traced {
            let (c0, t0) = (cpu_seconds(), Instant::now());
            let tracer = Tracer::new(format!("core-mega-{seed}-op{k}"));
            let (root, runs) = span(Some(&tracer), "run", NO_PARENT, |root| {
                (
                    root,
                    layers::core_mega_op(Some(&tracer), root, traces, &mut || {}),
                )
            });
            let wall = t0.elapsed().as_secs_f64();
            let spans = tracer.spans();
            let done: Vec<SimRun> = runs.iter().flatten().cloned().collect();
            let mut m = layer_metrics(&spans, &done);
            m.insert("workloads.generate_s".into(), generate_s);
            let covered_s = secs(top_level_ns(&spans, root));
            op_json.push(core_op_json(
                seed,
                wall,
                cpu_seconds() - c0,
                &runs,
                &[],
                Some((covered_s, &m)),
            ));
            tracers.push(tracer);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    if traced {
        write_spans(&f.path("spans"), &tracers);
    }
    let setup: Vec<String> = setup_s.into_iter().map(num).collect();
    println!(
        "{{\"setup_s\":[{}],\"peak_rss_kb\":{},\"ops\":[{}]}}",
        setup.join(","),
        peak_rss_kb(),
        op_json.join(",")
    );
}

/// Calibrations on as many threads as the grid's pool has workers, for
/// `--seconds`; prints each thread's fastest one.
fn cmd_calibrate(f: &Flags) {
    let budget = Duration::from_secs_f64(f.num("seconds"));
    let fastest: Vec<u64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..sb_experiments::pool::default_workers())
            .map(|_| {
                scope.spawn(move || {
                    let (mut kernel, start, mut best) =
                        (calib::Kernel::new(), Instant::now(), u64::MAX);
                    while best == u64::MAX || start.elapsed() < budget {
                        best = best.min(kernel.time_ns());
                    }
                    best
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| fail("a calibration thread panicked"))
            })
            .collect()
    });
    println!("{{\"cal_s\":{}}}", seconds_json(&fastest));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        fail("usage: sb-perf-harness info|store-scan|grid-trace|core-mega|calibrate [--flag value]...");
    };
    let flags = Flags::parse(rest);
    match cmd.as_str() {
        "info" => println!(
            "{{\"profile\":\"{}\",\"nproc\":{}}}",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            sb_experiments::pool::default_workers()
        ),
        "store-scan" => {
            let (points, committed) =
                layers::scan_stats_store(&flags.path("stats"), flags.num("seed"));
            println!(
                "{{\"points\":{},\"committed\":{committed}}}",
                digests_json(&points)
            );
        }
        "grid-trace" => cmd_grid_trace(&flags),
        "calibrate" => cmd_calibrate(&flags),
        "core-mega" => cmd_core_mega(&flags),
        other => fail(&format!("unknown subcommand {other}")),
    }
}
