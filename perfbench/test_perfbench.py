#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json and the driver agree on workloads, metric
names and units, that every name matches [A-Za-z0-9_.-]+, and runs the
driver's --self-test on a two-app subset of fig5a and cmp:
  - the traced replay reproduces runWorkload byte-for-byte;
  - sim_digest is identical across two passes;
  - a traced pass reproduces the untimed one;
  - every span is closed under one root, and the named layers cover at
    least 95% of the traced pass wall time.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        out = subprocess.run([cls.binary, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        cls.driver = json.loads(out)

    def test_metric_names_are_well_formed(self):
        for kind in ("end_to_end", "per_layer"):
            for metric in self.spec[kind]:
                self.assertTrue(NAME_RE.fullmatch(metric["name"]),
                                metric["name"])

    def test_benchmark_json_matches_driver(self):
        for kind in ("end_to_end", "per_layer"):
            declared = [[m["name"], m["unit"]] for m in self.spec[kind]]
            self.assertEqual(declared, self.driver[kind], kind)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         self.driver["workloads"])
        self.assertEqual(list(run.WORKLOADS), self.driver["workloads"])

    def test_driver_self_test(self):
        os.makedirs(run.WORK_DIR, exist_ok=True)
        result = subprocess.run(
            [self.binary, "--self-test", "--workdir", run.WORK_DIR],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        lines = [l for l in result.stdout.splitlines()
                 if l.startswith(("PASS", "FAIL"))]
        self.assertEqual(len(lines), 6, result.stdout)
        self.assertTrue(all(l.startswith("PASS") for l in lines),
                        result.stdout)


if __name__ == "__main__":
    unittest.main()
