#!/usr/bin/env python3
"""Check that the metrics and workloads the benchmark binary prints match
BENCHMARK.json, name for name and unit for unit.

    python3 perfbench/tests/test_metric_names.py .bench_build/perfbench/epoch_bench
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BINARY = None


def listed(*args):
    out = subprocess.run([BINARY] + list(args), capture_output=True, text=True, check=True)
    return [line.split() for line in out.stdout.splitlines() if line.strip()]


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, key, trace):
        want = [[m["name"], m["unit"]] for m in self.spec[key]]
        self.assertEqual(listed("--list-metrics", trace), want)

    def test_end_to_end(self):
        self.check("end_to_end", "0")

    def test_per_layer(self):
        self.check("per_layer", "1")

    def test_workloads(self):
        want = [[w["name"]] for w in self.spec["workloads"]]
        self.assertEqual(listed("--list-workloads"), want)


if __name__ == "__main__":
    BINARY = sys.argv.pop(1) if len(sys.argv) > 1 else os.path.join(
        ROOT, ".bench_build", "perfbench", "epoch_bench")
    unittest.main()
