"""Tests of the benchmark's own checks and arithmetic.

    python3 -m unittest discover -s benchmark/tests

Span self-time arithmetic is tested where it lives, in the harness:
    cargo test --manifest-path benchmark/harness/Cargo.toml
"""

import importlib.util
import tempfile
import unittest
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_run", Path(__file__).resolve().parent.parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def failed_ops_frac(*results):
    attempted = sum(r[0] for r in results)
    failed = sum(r[1] for r in results)
    return failed / attempted


class CsvChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.files = {"table5.csv": b"config,baseline_ipc\nmega,1.2700\n",
                      "fig6.csv": b"scheme,ipc\nnda,0.9\n"}
        for name, data in self.files.items():
            (self.dir / name).write_bytes(data)
        self.pins = {name: run.sha256(data) for name, data in self.files.items()}

    def tearDown(self):
        self.tmp.cleanup()

    def test_pinned_outputs_pass(self):
        result = run.check_csvs(self.dir, self.pins)
        self.assertEqual(result[:2], (2, 0))
        self.assertEqual(failed_ops_frac(result), 0)

    def test_one_perturbed_byte_counts_as_a_failure(self):
        data = bytearray(self.files["table5.csv"])
        data[-3] ^= 0x01
        (self.dir / "table5.csv").write_bytes(bytes(data))
        result = run.check_csvs(self.dir, self.pins)
        self.assertEqual(result[:2], (2, 1))
        self.assertGreater(failed_ops_frac(result), 0)

    def test_missing_csv_counts_as_a_failure(self):
        (self.dir / "fig6.csv").unlink()
        self.assertEqual(run.check_csvs(self.dir, self.pins)[1], 1)

    def test_warm_copy_must_match_the_cold_copy(self):
        with tempfile.TemporaryDirectory() as cold:
            for name, data in self.files.items():
                (Path(cold) / name).write_bytes(data)
            self.assertEqual(run.check_csvs(self.dir, self.pins, cold)[1], 0)
            (Path(cold) / "fig6.csv").write_bytes(b"scheme,ipc\nnda,0.8\n")
            self.assertEqual(run.check_csvs(self.dir, self.pins, cold)[1], 1)


class DigestChecks(unittest.TestCase):
    PINNED = ["00000000000000a1", "00000000000000b2", "00000000000000c3"]

    def test_identical_digests_pass(self):
        self.assertEqual(run.check_digests(list(self.PINNED), self.PINNED, "x")[:2], (3, 0))

    def test_perturbed_simstats_digest_counts_as_a_failure(self):
        got = list(self.PINNED)
        got[1] = "00000000000000b3"
        result = run.check_digests(got, self.PINNED, "x")
        self.assertEqual(result[:2], (3, 1))
        self.assertGreater(failed_ops_frac(result), 0)

    def test_missing_points_count_as_failures(self):
        self.assertEqual(run.check_digests([self.PINNED[0], None], self.PINNED, "x")[1], 2)
        self.assertEqual(run.check_digests([], self.PINNED, "x")[1], 3)


class Arithmetic(unittest.TestCase):
    def test_paper_loss_error_is_the_mean_absolute_gap(self):
        err = run.paper_loss_err({"mega": (18.6, 15.8, 20.4), "medium": (7.3, 6.4, 10.7)})
        self.assertAlmostEqual(err, (1.0 + 0.0 + 2.0) / 6)

    def test_table5_rows_are_read_by_config_name(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "table5.csv"
            path.write_text("config,baseline_ipc,stt_rename_loss,stt_issue_loss,nda_loss\n"
                            "large,0.9,11.00,10.00,18.00\ngem5-stt,1.0,17.0,,\n")
            self.assertEqual(run.table5_losses(path), {"large": (11.0, 10.0, 18.0)})

    def test_coverage_is_measured_against_the_traced_wall(self):
        # Top-level spans that cover the whole wall pass; 0.5 s of a 5 s
        # wall that no top-level span covers (start-up, writing output)
        # makes the run incorrect.
        self.assertEqual(run.coverage_problems([run.trace_coverage(4.99, 5.0)]), [])
        shares = [run.trace_coverage(4.5, 5.0), run.trace_coverage(4.5, 5.0)]
        self.assertAlmostEqual(shares[0], 0.9)
        self.assertEqual(len(run.coverage_problems(shares)), 1)
        self.assertEqual(len(run.coverage_problems([])), 1)

    def test_core_mega_best_case_sums_each_runs_fastest_repetition(self):
        def op(seed, walls, traced=False):
            return {"seed": seed, "traced": traced, "runs": [
                {"key": key, "wall_s": w, "cpu_s": w - 0.01, "committed": 100}
                for key, w in walls.items()]}
        ops = [op(7, {"a": 0.5, "b": 0.2}), op(7, {"a": 0.3, "b": 0.4}),
               op(7, {"a": 0.1, "b": 0.1}, traced=True), op(8, {"a": 1.0, "b": 2.0})]
        ops[1]["runs"].append(None)  # a failed run adds nothing
        best = run.best_case_by_seed(ops)
        self.assertEqual(sorted(best), [7, 8])
        wall, cpu, committed = best[7]
        self.assertAlmostEqual(wall, 0.3 + 0.2)
        self.assertAlmostEqual(cpu, 0.29 + 0.19)
        self.assertEqual(committed, 200)
        self.assertAlmostEqual(best[8][0], 3.0)

    def test_host_times_are_restated_at_the_reference_speed(self):
        # The fastest calibration took twice the reference: the host ran at
        # half speed, so times halve and rates double; other metrics stay out.
        cal = [run.CAL_REF_S * 3, run.CAL_REF_S * 2]
        summary = {"wall_s": 4.0, "cpu_s": 6.0, "sim_mops": 1.5, "host_setup_s": 0.8,
                   "peak_rss_mb": 80.0}
        ref = run.at_reference_speed(summary, cal)
        self.assertEqual(set(ref), {"ref_wall_s", "ref_cpu_s", "ref_sim_mops", "setup_s"})
        self.assertAlmostEqual(ref["ref_wall_s"], 2.0)
        self.assertAlmostEqual(ref["ref_cpu_s"], 3.0)
        self.assertAlmostEqual(ref["ref_sim_mops"], 3.0)
        self.assertAlmostEqual(ref["setup_s"], 0.4)

    def test_program_seeds_cycle_through_the_pinned_set(self):
        pinned = [2025, 2026, 2027, 2028]
        self.assertEqual(run.program_seeds(2025, pinned), [2025, 2026, 2027])
        self.assertEqual(run.program_seeds(3, pinned), [2027, 2028, 2025])
        self.assertEqual(run.program_seeds(3, pinned), run.program_seeds(3, pinned))


if __name__ == "__main__":
    unittest.main()
