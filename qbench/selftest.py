"""Self-tests of the benchmark harness: failure accounting, trace accounting,
determinism and the result contract.

    python3 qbench/selftest.py

Takes about half a minute; the traced runs execute one round of each workload.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_qmetro()

import tracing  # noqa: E402
import workloads  # noqa: E402
from qmetro import cli, qfi  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

SETUP_SAMPLE = {"wall_s": 1.0, "calibrated_s": 1.0}


def _run_items(items, tracer=None):
    """One round of `items` in a closed loop; returns the run.Pass."""
    workdir = tempfile.mkdtemp(dir=run.OUT)
    try:
        return run.run_rounds(iter([items]), workdir, tracer, rounds=1)
    finally:
        shutil.rmtree(workdir)


def _cli(*argv, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "qbench", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


class FailureAccounting(unittest.TestCase):
    def test_corrupted_result_is_a_failure(self):
        good = cli.format_csv

        def corrupted(header, rows):
            return good(header, [{**row, "fidelity": 0.5} for row in rows])

        item = workloads.qpt_point("ad", 0.3, single=True, seed=1)
        with mock.patch.object(cli, "format_csv", corrupted):
            passed = _run_items([item, workloads.optics_point("ad", 0.3)])
        records = passed.records
        self.assertIn("fidelity", records[0].error)
        self.assertFalse(records[0].known)
        self.assertIsNone(records[1].error)
        failures, failed = run.summarize(records)
        self.assertEqual(len(failures), 1)
        self.assertEqual(failed, 1)
        metrics, detail = run.end_to_end(passed, [SETUP_SAMPLE])
        self.assertEqual(detail["fail_frac"], 0.5)
        self.assertEqual(metrics["ok_frac"]["value"], 0.5)

    def test_convergence_error_is_a_counted_failure_not_a_crash(self):
        def diverges(*args, **kwargs):
            raise qfi.ConvergenceError("objective still moving")

        ad, depol = next(workloads.information(1))[4:6]
        self.assertEqual(depol.label, "supremum depol(0.4)")
        with mock.patch.object(qfi, "channel_qfi_supremum", diverges):
            records = _run_items([depol, ad, workloads.optics_point("ad", 0.3)]).records
        self.assertIn("ConvergenceError", records[0].error)
        self.assertTrue(records[0].known)
        # declared only where the baseline fails, so the ad supremum's is not
        self.assertIn("ConvergenceError", records[1].error)
        self.assertFalse(records[1].known)
        self.assertIsNone(records[2].error)
        failures, failed = run.summarize(records)
        self.assertEqual(len(failures), 2)
        self.assertEqual(failed, 1)  # the depol supremum's is known, so not failed

    def test_unexpected_raise_is_an_unknown_failure(self):
        with mock.patch.object(cli, "cmd_optics_verify", side_effect=RuntimeError("boom")):
            records = _run_items([workloads.optics_point("ad", 0.3),
                                  workloads.qpt_point("ad", 0.3, single=True)]).records
        self.assertIn("RuntimeError: boom", records[0].error)
        self.assertFalse(records[0].known)
        self.assertIsNone(records[1].error)


class TraceAccounting(unittest.TestCase):
    def test_self_times_never_exceed_traced_wall(self):
        items = next(workloads.characterization(3))
        tracer = tracing.Tracer()
        with tracer.patched():
            passed = _run_items(items, tracer)
        self.assertTrue(all(r.error is None for r in passed.records))
        metrics = tracer.metrics(passed.wall_s, 0.0, 0.5)
        self_ms = [m["value"] for k, m in metrics.items() if k.endswith(".self_ms")]
        self.assertTrue(all(v >= 0 for v in self_ms))
        self.assertLessEqual(sum(self_ms), metrics["trace.wall_ms"]["value"])
        self.assertEqual(metrics["tomography.reconstructions_per_dataset"]["value"], 51)

    def test_patches_reach_every_binding_and_are_restored(self):
        original = qfi.channel_qfi_minimax
        tracer = tracing.Tracer()
        with tracer.patched():
            self.assertIsNot(cli.channel_qfi_minimax, original)
            self.assertIs(cli.channel_qfi_minimax, qfi.channel_qfi_minimax)
        self.assertIs(cli.channel_qfi_minimax, original)
        self.assertIs(qfi.channel_qfi_minimax, original)

    def test_traced_run_of_every_workload(self):
        per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                proc = _cli("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"])
                self.assertEqual(list(last["metrics"]), per_layer)
                self.assertIn("trace.overhead_frac", last["metrics"])
                with open(os.path.join(run.OUT, "results", f"{name}-seed5-trace1.json")) as fh:
                    digest = json.load(fh)["digest"]
                self.assertEqual(digest["untraced"], digest["traced"])


class SetUp(unittest.TestCase):
    def test_setup_sample_is_calibrated_phase_by_phase(self):
        with mock.patch.object(run, "SETUP_SAMPLES", 1):
            (sample,) = run.setup_seconds("characterization")
        self.assertGreater(sample["wall_s"], 0)
        self.assertGreater(sample["calibrated_s"], 0)
        self.assertNotEqual(sample["wall_s"], sample["calibrated_s"])


class Determinism(unittest.TestCase):
    def test_same_seed_same_digest(self):
        a, b, c = (_run_items(next(workloads.characterization(seed))).records
                   for seed in (7, 7, 8))
        self.assertEqual(workloads.digest(a), workloads.digest(b))
        self.assertNotEqual(workloads.digest(a), workloads.digest(c))


class Contract(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        value, pct = run.tail(list(range(30)))
        self.assertEqual(value, 19)
        self.assertEqual(sum(x > value for x in range(30)), 10)
        self.assertAlmostEqual(pct, 100 * 20 / 30)

    def test_end_to_end_metrics_match_benchmark_json(self):
        metrics, _ = run.end_to_end(_run_items([workloads.optics_point("ad", 0.1)]),
                                      [SETUP_SAMPLE])
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(run.WORKLOAD_NAMES))
        self.assertEqual(set(workloads.WORKLOADS), set(run.WORKLOAD_NAMES))
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: m["unit"] for k, m in metrics.items()}, declared)
        units = dict(tracing.metric_names())
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}, units)

    def test_fails_without_sources(self):
        bare = tempfile.mkdtemp(dir=run.OUT)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "qbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _cli("--workload", "information", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    os.makedirs(run.OUT, exist_ok=True)
    unittest.main()
