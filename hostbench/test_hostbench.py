#!/usr/bin/env python3
"""Self-tests of the host-cost benchmark. Run from the checkout root:

    python3 hostbench/test_hostbench.py

They build hostbench_cells like a benchmark run does, then check that a
perturbed cell is caught, that every printed metric is declared in
BENCHMARK.json, and that spec-nosweep sweeps no page. About 30 seconds
on a 4-CPU host.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as hb  # noqa: E402

BENCHMARK_JSON = os.path.join(hb.ROOT, "BENCHMARK.json")


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                          list(args), cwd=hb.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return json.loads(proc.stdout.splitlines()[-1]), proc.returncode


def declared(kind):
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


class HostbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        hb.build()

    def test_workloads_declared(self):
        with open(BENCHMARK_JSON) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        self.assertEqual(names, list(hb.WORKLOADS))

    def test_perturbed_cell_is_caught(self):
        cell = "pgbench/cherivoke"
        golden = hb.load_golden("server")
        for seed in (hb.DEFAULT_SEED, hb.DEFAULT_SEED + 1):
            records, rc = hb.run_bin(["cells", "--workload", "server",
                                      "--seed", str(seed), "--passes", "1"])
            self.assertEqual(rc, 0)
            fps = hb.pass_fingerprints(hb.cell_records(records))
            # Judge every run against the default seed's fingerprints.
            failures = hb.check_cells(golden, hb.DEFAULT_SEED, fps)
            if seed == hb.DEFAULT_SEED:
                self.assertEqual(failures, {})
            else:
                self.assertIn("differs from the stored", failures[cell])
        self.assertIn("crashed", hb.check_cells(golden, hb.DEFAULT_SEED,
                                                {})[cell])

    def test_e2e_metrics_are_declared(self):
        result, rc = bench("--workload", "server", "--seed", "1",
                           "--seconds", "1", "--trace", "0")
        self.assertEqual(rc, 0)
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         declared("end_to_end"))
        for v in result["metrics"].values():
            self.assertGreater(v["value"], 0)

    def test_traced_metrics_declared_and_nosweep_sweeps_nothing(self):
        result, rc = bench("--workload", "spec-nosweep", "--seed", "1",
                           "--seconds", "1", "--trace", "1")
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         declared("per_layer"))
        self.assertEqual(metrics["sweep.pages_swept"]["value"], 0)
        self.assertEqual(metrics["oracle.violations"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
