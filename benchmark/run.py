#!/usr/bin/env python3
"""Repository benchmark for the ShadowBinding simulator.

    python3 benchmark/run.py --workload grid-cold|grid-warm|core-mega|all
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmark/run.py --pin     # re-take the pinned output digests

Builds `sb-experiments` and the benchmark's own harness (release profile,
into $CARGO_TARGET_DIR, default `.bench_build`), sets the workload up
several times, then repeats the workload's operation for `--seconds`
seconds and checks every output against the digests pinned in
`benchmark/pinned.json`. With `--trace 0` it reports the end-to-end
metrics named in BENCHMARK.json (each summarised over the operations); with
`--trace 1` it alternates untraced and traced operations and reports the
per-layer metrics from the spans. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Everything it writes stays in the checkout: fresh stores and outputs
under `.bench_tmp/` (removed on exit), a record of every run and its
spans under `.bench_results/`. See benchmark/README.md for why each
workload exists and which end-to-end metric each layer metric moves.
"""

import argparse
import csv
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINNED = BENCH_DIR / "pinned.json"
HARNESS_MANIFEST = BENCH_DIR / "harness" / "Cargo.toml"

# grid-warm is not in BENCHMARK.json (see benchmark/README.md) but runs
# the same way when named.
WORKLOADS = ("grid-cold", "grid-warm", "core-mega")
DEFAULT_SEED = 2025
# Set-ups per run; the median is reported.
SETUPS = 3
# The grid-cold set-up's warm-up run length (micro-ops per trace).
WARMUP_OPS = 20_000
# A traced operation's top-level layer spans must cover at least this
# share of its measured wall.
COVERAGE_FLOOR = 0.95
# No child process may outlive this many seconds.
CHILD_TIMEOUT_S = 150
# Table 5 of the paper: IPC loss in percent of STT-Rename, STT-Issue and
# NDA on the RTL-fidelity BOOM configurations.
PAPER_TABLE5 = {
    "medium": (7.3, 6.4, 10.7),
    "large": (11.3, 10.0, 18.6),
    "mega": (17.6, 15.8, 22.4),
}
LOSS_COLUMNS = ("stt_rename_loss", "stt_issue_loss", "nda_loss")
# Interference on a shared host comes in bursts of several seconds that
# slow an operation by up to 40%, so a run reports its best operation for
# these (best-of-N); every other sample is summarised by its median.
BEST_OF = {"wall_s": min, "cpu_s": min, "sim_mops": max, "op_wall_s": min, "trace_wall": min}
# core-mega's samples of these are already best cases, one per program
# seed (see Run.run_core_mega), so their median is reported.
CORE_MEGA_MEDIANS = ("wall_s", "cpu_s", "sim_mops")
# The host also has slow phases of minutes, in which it runs the simulator
# up to 1.8x slower throughout; no best case within a run escapes them. So
# a run also times the harness's calibration kernel (benchmark/harness/
# src/calib.rs), and the end-to-end host times are restated at the speed
# of a host whose fastest calibration takes CAL_REF_S: each multiplied by
# CAL_REF_S / the run's fastest calibration.
CAL_REF_S = 0.005
# A grid run calibrates for this long after each operation.
CAL_SECONDS = 0.4
# End-to-end metric -> the host measurement it restates.
REFERENCE_OF = {"ref_wall_s": "wall_s", "ref_cpu_s": "cpu_s", "ref_sim_mops": "sim_mops",
                "setup_s": "host_setup_s"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


# ---------------------------------------------------------------------------
# Output checks (pure functions, unit-tested in benchmark/tests)
# ---------------------------------------------------------------------------


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def check_csvs(out_dir, pinned_csv, reference_dir=None):
    """Checks every pinned CSV in `out_dir`: present, digest as pinned,
    and byte-identical to `reference_dir`'s copy when one is given.
    Returns (attempted, failed, problems)."""
    failed, problems = 0, []
    for name, digest in sorted(pinned_csv.items()):
        path = Path(out_dir) / name
        data = path.read_bytes() if path.is_file() else None
        if data is None:
            problems.append(f"{name}: missing")
        elif sha256(data) != digest:
            problems.append(f"{name}: digest differs from the pinned one")
        elif reference_dir is not None and data != (Path(reference_dir) / name).read_bytes():
            problems.append(f"{name}: differs from the cold run's copy")
        else:
            continue
        failed += 1
    return len(pinned_csv), failed, problems


def check_digests(got, pinned, what):
    """Compares per-run SimStats digests with the pinned ones, position by
    position; a missing or extra entry is a failure too.
    Returns (attempted, failed, problems)."""
    got = list(got)
    failed = sum(1 for g, p in zip(got, pinned) if g != p) + abs(len(got) - len(pinned))
    problems = [f"{what}: {failed} of {len(pinned)} SimStats digests differ"] if failed else []
    return len(pinned), failed, problems


def best_case_by_seed(ops):
    """core-mega's best-case operation per program seed: over the untraced
    operations, each simulation's fastest repetition, summed.
    Returns {seed: (wall_s, cpu_s, committed)}."""
    best = {}
    for op in ops:
        if op["traced"]:
            continue
        for r in filter(None, op["runs"]):
            wall, cpu, _ = best.get((op["seed"], r["key"]), (r["wall_s"], r["cpu_s"], 0))
            best[op["seed"], r["key"]] = (min(wall, r["wall_s"]), min(cpu, r["cpu_s"]),
                                          r["committed"])
    out = {}
    for (seed, _), (wall, cpu, committed) in best.items():
        w, c, n = out.get(seed, (0.0, 0.0, 0))
        out[seed] = (w + wall, c + cpu, n + committed)
    return out


def at_reference_speed(summary, cal_s):
    """The host times in `summary` restated at the reference host speed,
    given the run's calibration times (rates are divided, not multiplied)."""
    factor = CAL_REF_S / min(cal_s)
    out = {}
    for name, host in REFERENCE_OF.items():
        if host in summary:
            out[name] = summary[host] / factor if host == "sim_mops" else summary[host] * factor
    return out


def summariser(workload, name):
    """How a run's samples of one metric become the reported value."""
    if workload == "core-mega" and name in CORE_MEGA_MEDIANS:
        return statistics.median
    return BEST_OF.get(name, statistics.median)


def trace_coverage(covered_s, wall_s):
    """Share of a traced operation's wall, measured outside its spans,
    that its top-level layer spans cover."""
    return covered_s / wall_s if wall_s > 0 else 0.0


def coverage_problems(shares):
    """The median traced operation's top-level spans must cover nearly
    all of its wall."""
    share = statistics.median(shares) if shares else 0.0
    if share < COVERAGE_FLOOR:
        return [f"top-level spans cover {share:.3f} of the traced wall"]
    return []


def paper_loss_err(losses_by_config):
    """Mean absolute difference in percentage points between simulated
    and published IPC losses, over the configurations given."""
    errs = [
        abs(sim - paper)
        for config, sims in losses_by_config.items()
        for sim, paper in zip(sims, PAPER_TABLE5[config])
    ]
    return statistics.fmean(errs) if errs else 0.0


def table5_losses(path):
    """The BOOM rows of a table5.csv: {config: (rename, issue, nda)}."""
    out = {}
    if not Path(path).is_file():
        return out
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            if row.get("config") in PAPER_TABLE5:
                out[row["config"]] = tuple(float(row[c]) for c in LOSS_COLUMNS)
    return out


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Child:
    """One finished child process with its resource usage."""

    def __init__(self, code, wall, cpu, rss_mb, stdout):
        self.code, self.wall, self.cpu, self.rss_mb, self.stdout = code, wall, cpu, rss_mb, stdout

    def json(self):
        lines = self.stdout.strip().splitlines()
        return json.loads(lines[-1]) if self.code == 0 and lines else None


# Children not yet reaped, so a signal can stop them before exiting.
_children = set()


def _stop_children(signum, _frame):
    for pid in list(_children):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass
    raise SystemExit(128 + signum)


def spawn(argv, env, log_dir, timeout=CHILD_TIMEOUT_S):
    """Runs argv to completion; wall from spawn to reap, CPU and peak RSS
    from the child's own rusage. A child past `timeout` is killed."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _children.add(pid)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            reaped.set()
            timer.cancel()
            _children.discard(pid)
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        print(f"# {Path(argv[0]).name} {argv[1]} exited {code}: {tail}", file=sys.stderr)
    return Child(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 out_path.read_text(errors="replace"))


# ---------------------------------------------------------------------------
# Build and machine record
# ---------------------------------------------------------------------------


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def profile_overrides():
    """The repository's [profile.release] as cargo --config flags, so the
    harness is compiled exactly like the CLI it is compared with."""
    manifest = tomllib.loads((ROOT / "Cargo.toml").read_text())
    flags = []
    for key, value in manifest.get("profile", {}).get("release", {}).items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, (int, float)):
            text = str(value)
        elif isinstance(value, str):
            text = json.dumps(value)
        else:
            continue
        flags += ["--config", f"profile.release.{key}={text}"]
    return flags


def build():
    """Builds the CLI and the harness; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "experiments").is_dir():
        raise BenchError(f"no ShadowBinding workspace at {ROOT}: the benchmark "
                         "builds the simulator from source and needs the whole checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "sb-experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HARNESS_MANIFEST)]
        + profile_overrides(),
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise BenchError(f"{' '.join(cmd[:4])} failed:\n{done.stderr[-4000:]}")
    release = target_dir() / "release"
    return release / "sb-experiments", release / "sb-perf-harness"


def source_digest():
    """sha256 over the sources the build reads (commit stand-in when the
    checkout is not a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "src"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.relative_to(ROOT).parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def machine_record(harness_info):
    def stdout_of(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            return None

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), "unknown")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": harness_info["nproc"],
        "cpu": cpu,
        "rustc": stdout_of(["rustc", "--version"]),
        "commit": stdout_of(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": source_digest(),
        "profile": harness_info["profile"],
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def program_seeds(seed, pinned_seeds, n=SETUPS):
    """The program seeds of a run: `n` consecutive pinned seeds from the
    one `seed` selects. Each set-up prepares one of them and the
    operations cycle over them, so a run measures several inputs."""
    k = len(pinned_seeds)
    return [pinned_seeds[(seed - pinned_seeds[0] + j) % k] for j in range(n)]


class Run:
    """One benchmark run: its inputs, scratch space and tallies."""

    def __init__(self, cli, harness, seed, seconds, trace, pinned):
        self.cli, self.harness = str(cli), str(harness)
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.seeds = program_seeds(seed, pinned["program_seeds"])
        self.pins = pinned["seeds"]
        self.tmp = ROOT / ".bench_tmp" / str(os.getpid())
        self.results = ROOT / ".bench_results"
        self.workload = None
        self.counter = 0
        self.attempted = self.failed = 0
        self.problems = []
        self.samples = {}
        # Calibration times (s); the fastest sets the run's host speed.
        self.cal = []
        # Program seed -> paper_loss_err_pp (deterministic per seed).
        self.loss_err = {}

    def fresh(self, tag):
        self.counter += 1
        path = self.tmp / f"{self.counter:03d}-{tag}"
        path.mkdir(parents=True)
        return path

    def fresh_stores(self):
        return self.fresh("traces"), self.fresh("stats")

    def env(self, trace_store, stats_store):
        env = {k: v for k, v in os.environ.items() if k != "SB_FAULT_INJECT"}
        env.update(SB_TRACE_CACHE=str(trace_store), SB_STATS_CACHE=str(stats_store))
        return env

    def tally(self, result):
        attempted, failed, problems = result
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def harness_json(self, args, env=None, timeout=CHILD_TIMEOUT_S):
        child = spawn([self.harness] + args, env or os.environ.copy(),
                      self.fresh("harness"), timeout)
        return child, child.json()

    # -- grid ---------------------------------------------------------------

    def cli_all(self, stores, out, seed, extra=()):
        argv = [self.cli, "all", "--seed", str(seed), "--out", str(out), *extra]
        return spawn(argv, self.env(*stores), self.fresh("cli"))

    def grid_run(self, stores, seed, resume, reference=None):
        """One untraced `all` run with its points and CSVs checked; a
        failed exit fails every output."""
        out = self.fresh("out")
        child = self.cli_all(stores, out, seed, ["--resume"] if resume else [])
        _, scan = self.harness_json(["store-scan", "--stats", str(stores[1]),
                                     "--seed", str(seed)])
        points = scan["points"] if scan else []
        pins = self.pins[str(seed)]
        results = [check_digests(points, pins["grid_points"], "grid points"),
                   check_csvs(out, pins["csv"], reference)]
        if child.code != 0:
            results = [(a, a, p + [f"exit code {child.code}"]) for a, _, p in results]
        for r in results:
            self.tally(r)
        self.loss_err.setdefault(seed, paper_loss_err(table5_losses(out / "table5.csv")))
        return child, points, (scan or {}).get("committed", 0), out

    def calibrate(self):
        """One calibration with as many threads as the pool has workers;
        their mean fastest time."""
        _, res = self.harness_json(["calibrate", "--seconds", str(CAL_SECONDS)])
        if res:
            self.cal.append(statistics.fmean(res["cal_s"]))

    def grid_op(self, stores, seed, resume, reference=None):
        """A measured `all` run: records its end-to-end samples."""
        child, points, committed, _ = self.grid_run(stores, seed, resume, reference)
        self.sample("wall_s", child.wall)
        self.sample("op_wall_s", child.wall)
        self.sample("cpu_s", child.cpu)
        self.sample("peak_rss_mb", child.rss_mb)
        self.sample("sim_mops", committed / child.wall / 1e6)
        return points

    def grid_traced_op(self, stores, seed, resume, untraced_points):
        """One traced replay; its digests must equal the untraced run's."""
        out = self.fresh("out")
        k = len(self.samples.get("trace_wall", [])) + 1
        run_id = f"{self.workload}-seed{self.seed}-op{k}"
        child, res = self.harness_json(
            ["grid-trace", "--resume", "1" if resume else "0", "--seed", str(seed),
             "--trace-store", str(stores[0]), "--stats-store", str(stores[1]),
             "--out", str(out), "--spans", str(self.results / f"{run_id}.spans.json"),
             "--run-id", run_id],
            env=self.env(*stores))
        self.sample("trace_wall", child.wall)
        covered_s = (res or {}).get("covered_s", 0.0)
        self.sample("trace.coverage", trace_coverage(covered_s, child.wall))
        points = res["points"] if res else []
        pins = self.pins[str(seed)]
        self.tally(check_digests(points, pins["grid_points"], "traced grid points"))
        self.tally(check_csvs(out, pins["csv"]))
        if points != untraced_points:
            self.tally((1, 1, ["traced SimStats digests differ from the untraced run's"]))
        for name, value in (res or {}).get("metrics", {}).items():
            self.sample(name, value)

    def run_grid(self, cold):
        """Set-up per program seed, then `all` runs cycling over them.
        grid-cold's set-up is a short warm-up `all` into throwaway stores;
        grid-warm's fills the stores its `all --resume` runs read."""
        setups, inputs = [], []
        for seed in self.seeds:
            if cold:
                child = self.cli_all(self.fresh_stores(), self.fresh("out"), seed,
                                     ["--ops", str(WARMUP_OPS)])
                self.tally((1, int(child.code != 0),
                            [f"warm-up exit code {child.code}"] if child.code else []))
                inputs.append((seed, None, None))
            else:
                stores = self.fresh_stores()
                child, _, _, out = self.grid_run(stores, seed, resume=False)
                inputs.append((seed, stores, out))
            setups.append(child.wall)
        start = time.perf_counter()
        for k in itertools.count():
            # A traced run stays on its first program seed, so its counts
            # repeat exactly from run to run.
            seed, stores, reference = inputs[0 if self.trace else k % len(inputs)]
            points = self.grid_op(stores or self.fresh_stores(), seed, not cold, reference)
            if self.trace:
                self.grid_traced_op(stores or self.fresh_stores(), seed, not cold, points)
            else:
                self.calibrate()
            if time.perf_counter() - start >= self.seconds:
                break
        return setups

    # -- core-mega ----------------------------------------------------------

    def run_core_mega(self):
        """Untraced operations give the end-to-end samples. A simulation's
        host time swings by up to 1.8x within seconds on a shared host, so
        per program seed each of the 16 simulations keeps its fastest
        repetition, and the seed's wall, CPU and rate come from the sum
        of those (one best-case operation per seed)."""
        spans = self.results / f"core-mega-seed{self.seed}.spans.json"
        child, res = self.harness_json(
            ["core-mega", "--seeds", ",".join(map(str, self.seeds)), "--seconds", str(self.seconds),
             "--traced", str(int(self.trace)), "--spans", str(spans)],
            timeout=self.seconds + CHILD_TIMEOUT_S)
        if res is None:
            self.tally((1, 1, [f"core-mega harness exited {child.code}"]))
            return [0.0]
        untraced = None
        for op in res["ops"]:
            pins = self.pins[str(op["seed"])]["core_mega"]
            runs = {r["key"]: r for r in op["runs"] if r}
            got = [runs[k]["digest"] if k in runs else None for k in sorted(pins)]
            self.tally(check_digests(got, [pins[k] for k in sorted(pins)], "core-mega runs"))
            if not op["traced"]:
                untraced = got
                self.sample("op_wall_s", op["wall_s"])
                self.cal += op["cal_s"]
                self.loss_err.setdefault(op["seed"],
                                         paper_loss_err({"mega": tuple(op["losses"])}))
            else:
                if got != untraced:
                    self.tally((1, 1, ["traced SimStats digests differ from the untraced run's"]))
                self.sample("trace_wall", op["wall_s"])
                self.sample("trace.coverage", trace_coverage(op["covered_s"], op["wall_s"]))
                for name, value in op["metrics"].items():
                    self.sample(name, value)
        for wall, cpu, committed in best_case_by_seed(res["ops"]).values():
            self.sample("wall_s", wall)
            self.sample("cpu_s", cpu)
            self.sample("sim_mops", committed / wall / 1e6)
        self.sample("peak_rss_mb", res["peak_rss_kb"] / 1024)
        return res["setup_s"]

    # -- result -------------------------------------------------------------

    def execute(self, workload):
        self.workload = workload
        # Traced operations write their spans here as they finish.
        self.results.mkdir(exist_ok=True)
        try:
            if workload == "core-mega":
                setups = self.run_core_mega()
            else:
                setups = self.run_grid(cold=workload == "grid-cold")
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)
            try:
                self.tmp.parent.rmdir()
            except OSError:
                pass  # another run is still using it
        self.samples["host_setup_s"] = setups


def metric_table(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def finish(run, spec, workload):
    """Turns a run's samples into the reported metrics; checks the traced
    run's own invariants."""
    summary = {name: summariser(workload, name)(v) for name, v in run.samples.items() if v}
    frac_failed = run.failed / run.attempted if run.attempted else 1.0
    summary["ok_ops_frac"] = 1.0 - frac_failed
    if run.loss_err:
        summary["paper_loss_err_pp"] = statistics.fmean(run.loss_err.values())
    if run.cal:
        summary.update(at_reference_speed(summary, run.cal))
    if run.trace:
        # Best traced operation minus best untraced one.
        summary["trace.overhead_s"] = summary.get("trace_wall", 0.0) - summary.get("op_wall_s", 0.0)
        run.problems += coverage_problems(run.samples.get("trace.coverage", []))
        if workload == "grid-warm" and summary.get("experiments.stats_store.hit_ratio") != 1.0:
            run.problems.append("stats store hit ratio on grid-warm is not 1.0")
    metrics, missing = {}, []
    for m in metric_table(spec, run.trace):
        if m["name"] not in summary:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": summary[m["name"]], "unit": m["unit"]}
    if missing:
        run.problems.append(f"metrics not measured: {', '.join(missing)}")
    return metrics, frac_failed


def print_human(run, metrics, spec, workload, frac_failed):
    print(f"# workload {workload}: seed {run.seed} (program seeds {run.seeds}), "
          f"trace {int(run.trace)}, {len(run.samples.get('host_setup_s', []))} set-ups")
    if run.cal:
        print(f"# host speed: fastest of {len(run.cal)} calibrations {min(run.cal):.6g} s, "
              f"reference {CAL_REF_S} s")
    for m in metric_table(spec, run.trace):
        if m["name"] not in metrics:
            continue
        host = REFERENCE_OF.get(m["name"], m["name"])
        values = run.samples.get(host, [])
        how = "best" if summariser(workload, host) is not statistics.median else "median"
        extra = (f"  ({how} of {len(values)}; min {min(values):.6g}, max {max(values):.6g})"
                 if len(values) > 1 else "")
        if host != m["name"]:
            extra = (f"  (host {host.removeprefix('host_')}: "
                     f"{summariser(workload, host)(values):.6g}){extra}")
        print(f"{workload:10s} {m['name']:36s} {metrics[m['name']]['value']:.6g} {m['unit']}{extra}")
    print(f"{workload:10s} {'failed_ops_frac':36s} {frac_failed:.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for p in run.problems[:20]:
        print(f"# problem: {p}")


def run_workload(workload, args, spec, pinned, tools, machine):
    run = Run(*tools, args.seed, args.seconds, args.trace, pinned)
    run.execute(workload)
    metrics, frac_failed = finish(run, spec, workload)
    print_human(run, metrics, spec, workload, frac_failed)
    record = {"workload": workload, "seed": args.seed, "program_seeds": run.seeds,
              "seconds": args.seconds, "trace": args.trace, "machine": machine,
              "samples": run.samples, "metrics": metrics, "attempted": run.attempted,
              "failed": run.failed, "problems": run.problems}
    name = f"{workload}-seed{args.seed}-trace{int(args.trace)}.json"
    (run.results / name).write_text(json.dumps(record, indent=1) + "\n")
    correct = run.failed == 0 and not run.problems
    return correct, run.attempted, run.failed, metrics


# ---------------------------------------------------------------------------
# Pinning
# ---------------------------------------------------------------------------


def pin(tools, seeds):
    """Re-takes every pinned digest. Run only on a commit whose outputs
    are known good, and say so in the change that updates the pins."""
    cli, harness = tools
    pinned = {"program_seeds": seeds, "seeds": {}}
    for seed in seeds:
        run = Run(cli, harness, seed, 0, False, {"program_seeds": [seed], "seeds": {}})
        try:
            stores, out = run.fresh_stores(), run.fresh("out")
            child = run.cli_all(stores, out, seed)
            if child.code != 0:
                raise BenchError(f"cold run at seed {seed} failed")
            _, scan = run.harness_json(["store-scan", "--stats", str(stores[1]),
                                        "--seed", str(seed)])
            _, core = run.harness_json(["core-mega", "--seeds", str(seed), "--seconds", "0",
                                        "--traced", "0", "--spans", str(run.tmp / "unused")])
            csvs = {p.name: sha256(p.read_bytes()) for p in sorted(out.glob("*.csv"))}
        finally:
            shutil.rmtree(run.tmp, ignore_errors=True)
        if scan is None or core is None or None in scan["points"] or not csvs:
            raise BenchError(f"pinning seed {seed}: a run did not complete")
        pinned["seeds"][str(seed)] = {
            "csv": csvs,
            "grid_points": scan["points"],
            "core_mega": {r["key"]: r["digest"] for r in core["ops"][0]["runs"]},
        }
        print(f"# pinned seed {seed}", file=sys.stderr)
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="re-take benchmark/pinned.json from this commit's outputs")
    args = ap.parse_args(argv)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _stop_children)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 0:
        ap.error("--seconds must be non-negative")
    try:
        tools = build()
        info = json.loads(subprocess.run([str(tools[1]), "info"], capture_output=True,
                                         text=True, check=True).stdout)
        if info["profile"] != "release":
            raise BenchError("the harness was built without optimisations; "
                             "only release builds are measured")
        if args.pin:
            pin(tools, [DEFAULT_SEED + i for i in range(8)])
            return 0
        pinned = json.loads(PINNED.read_text())
        machine = machine_record(info)
        print("# machine: " + json.dumps(machine))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args, spec, pinned, tools, machine) for w in workloads}
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        correct, attempted, failed, metrics = next(iter(results.values()))
    else:
        correct = all(r[0] for r in results.values())
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
