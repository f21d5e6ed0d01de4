#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py          (or python3 -m pytest perfbench/selftest.py)

Not named ``test_*.py``, so the package's test suite does not collect it.
Each run here is a smoke run: a few ops of each kind, one pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().splitlines()


def smoke(workload, trace=0, *extra):
    return bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke", *extra)


class NamesMatchBenchmarkJson(unittest.TestCase):
    def test_workloads_and_metrics(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)

    def test_metric_map_covers_every_metric(self):
        mapping = json.loads((HERE / "metric_map.json").read_text())
        self.assertEqual(sorted(mapping["workloads"]), sorted(run.WORKLOADS))
        self.assertEqual(mapping["second_seed"], W.SECOND_SEED)
        mapped = [m for link in mapping["links"] for m in link["metrics"]]
        self.assertEqual(sorted(mapped), sorted(run.PER_LAYER))
        for link in mapping["links"]:
            for metric, workload in link["moves"]:
                self.assertIn(metric, run.END_TO_END)
                self.assertIn(workload, run.WORKLOADS)


class SmokeRuns(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        for workload in run.WORKLOADS:
            for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc, lines = smoke(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, units)
                    if trace:
                        coverage = result["metrics"]["trace.coverage"]["value"]
                        self.assertGreater(coverage, 0.9)
                        self.assertLessEqual(coverage, 1.0)
                    else:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_same_seed_same_inputs(self):
        refs = W.load_refs(HERE / "reference", "cli-session")
        order = [[op[1].__defaults__ for op in W.build_cli(5, False, refs, None)]
                 for _ in range(2)]
        self.assertEqual(order[0], order[1])
        self.assertNotEqual(order[0], [op[1].__defaults__ for op in W.build_cli(6, False, refs, None)])


class CorruptedReference(unittest.TestCase):
    def test_one_corrupted_reference_is_one_failed_op(self):
        (ROOT / ".perfbench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
            refs_dir = Path(tmp) / "reference"
            shutil.copytree(HERE / "reference", refs_dir)
            refs = W.load_refs(refs_dir, "strata-lattice")
            key = "banana-6/enumerate_picard_strata"
            good = refs["digests"][key]
            refs["digests"][key] = ("0" if good[0] != "0" else "1") + good[1:]
            W.save_refs(refs_dir, "strata-lattice", refs)
            proc, lines = smoke("strata-lattice", 0, "--refs", str(refs_dir))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)
        self.assertIn("enumerate_picard_strata", proc.stdout)


class ProbeCorrection(unittest.TestCase):
    def test_factor_is_nominal_over_the_trimmed_mean_nearby(self):
        sampler = probe.Sampler()
        sampler.times = [0.0, 0.01, 0.02, 0.03, 1.0]
        nominal = probe.PROBE_NOMINAL_S
        # a probe cut by an interrupt (10x) falls in the trimmed quarter
        sampler.durations = [2 * nominal, 2 * nominal, 10 * nominal, 2 * nominal, nominal]
        self.assertAlmostEqual(sampler.factor(0.005, 0.015), 0.5)
        # no probe within the window: the nearest one
        self.assertAlmostEqual(sampler.factor(0.5, 0.6), 1.0)
        self.assertEqual(probe.Sampler(active=False).factor(0.0, 1.0), 1.0)

    def test_probes_run_and_are_left_out_of_timings(self):
        with probe.Sampler() as sampler:
            end = time.perf_counter() + 0.1
            while time.perf_counter() < end:
                pass
        self.assertGreater(len(sampler.times), 5)
        self.assertGreater(sampler.spent, 0.0)
        self.assertLess(sampler.spent, 0.05)


class WithoutThePackage(unittest.TestCase):
    def test_refuses_without_printing_a_result(self):
        (ROOT / ".perfbench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, lines = bench("--workload", "strata-lattice", "--seed", "1", "--seconds", "1",
                                cwd=tmp, script=Path(tmp) / HERE.name / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
