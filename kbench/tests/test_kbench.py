"""Self-tests of the repository benchmark.

    python3 -m unittest discover -s kbench/tests

The last two tests build the benchmark and run every workload for a second,
untraced and traced, so they take a few minutes.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
KBENCH = HERE.parent
ROOT = KBENCH.parent
sys.path.insert(0, str(KBENCH))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(KBENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


class TailRuleTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct = run.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_highest_such_percentile(self):
        values = [float(v) for v in range(1, 41)]
        value, pct = run.tail(values)
        # Any higher rank leaves fewer than ten samples beyond it.
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 75.0)

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3] * 6
        self.assertEqual(run.tail(values), run.tail(sorted(values)))

    def test_few_samples_fall_back_to_median(self):
        value, pct = run.tail([1.0, 2.0, 3.0, 10.0])
        self.assertEqual((value, pct), (2.5, 50.0))


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_names(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(set(run.WORKLOAD_NAMES),
                         {w["name"] for w in self.spec["workloads"]})

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class RunTest(unittest.TestCase):
    """Runs the benchmark itself (builds it on first use)."""

    def check_run(self, workload, seed, trace):
        spec = run.load_spec()
        group = spec["per_layer" if trace else "end_to_end"]
        proc = run_bench(workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in group})
        for m in group:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_every_metric_printed_with_its_unit(self):
        for workload in run.WORKLOAD_NAMES:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.check_run(workload, 1, trace)
                    if not trace:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_second_seed_runs_clean(self):
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                self.check_run(workload, 2, 0)


if __name__ == "__main__":
    unittest.main()
