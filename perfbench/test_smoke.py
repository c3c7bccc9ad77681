"""Tests of the benchmark itself.

    python3 perfbench/test_smoke.py

The smoke test builds the sample program if needed (about half a minute on
four cores) and runs every workload once at a tiny input.
"""

import json
import subprocess
import sys
import unittest

import run


class MetricTableTest(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOADS))
        self.assertEqual(run.END_TO_END,
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})
        self.assertEqual(run.PER_LAYER,
                         {m["name"]: m["unit"] for m in spec["per_layer"]})


class OracleTest(unittest.TestCase):
    NATIVE = {"clients": [{"exit": 3, "halted": True, "output": "aa",
                           "cycles": 10, "wire_bytes": 0}]}

    def sample(self, **changes):
        client = {"exit": 3, "halted": True, "output": "aa", "cycles": 50,
                  "wire_bytes": 7}
        client.update(changes)
        return {"clients": [client]}

    def test_counts_each_mismatch_once(self):
        oracle = run.Oracle("w", 1, self.NATIVE)
        oracle.check("plain", self.sample())
        oracle.check("plain", self.sample(output="bb"))
        oracle.check("traced", self.sample(cycles=51))
        oracle.check("plain", self.sample(exit=4, halted=False))
        oracle.lost("plain", "crashed")
        self.assertEqual((oracle.attempted, oracle.failed), (5, 4))


class PercentileTest(unittest.TestCase):
    def test_caps_at_ten_samples_beyond(self):
        buckets = [[1000 * v, 1] for v in range(1, 101)]
        self.assertEqual(run.percentile_us(buckets, 0.5), 50)
        # p99 of 100 samples would leave one beyond it; p90 leaves ten.
        self.assertEqual(run.percentile_us(buckets, 0.99), 90)

    def test_pools_buckets_of_samples(self):
        buckets = [[2000, 600], [5000, 400], [2000, 500], [9000, 12]]
        self.assertEqual(run.percentile_us(buckets, 0.5), 2)
        self.assertEqual(run.percentile_us(buckets, 0.99), 5)


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        proc = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                               "--smoke"], capture_output=True, text=True,
                              timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        results = [json.loads(line) for line in proc.stdout.splitlines()]
        self.assertEqual(
            [(r["workload"], r["trace"]) for r in results],
            [(w, t) for w in run.WORKLOADS for t in (0, 1)])
        for r in results:
            self.assertTrue(r["correct"], r)
            self.assertEqual(r["failed"], 0)
            self.assertGreater(r["attempted"], 0)
            names = run.PER_LAYER if r["trace"] else run.END_TO_END
            self.assertEqual(set(r["metrics"]), set(names))


if __name__ == "__main__":
    unittest.main()
