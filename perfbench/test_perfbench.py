#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench (as run.py does) and checks that:
  * every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+ and each
    workload prints it with its declared unit, untraced and traced;
  * virtual and exact metrics and the outcome digest are bit-identical
    across two runs with the same seed;
  * a different seed changes the device_swap touch stream;
  * device_swap reads every value back when its payload cache is large
    enough for delta swap-outs to ship (fails on the current library: with
    the RAM and flash tiers on, delta-swapped clusters lose their base
    replicas);
  * a directory holding only BENCHMARK.json and perfbench/ fails without
    printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = "0.5"


def bench_json():
    return run.load_json(os.path.join(ROOT, "BENCHMARK.json"))


def spec_json():
    return run.load_json(os.path.join(HERE, "spec.json"))


def run_bench(workload, seed, trace, all_metrics=False, cwd=ROOT, extra=()):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
           "--trace", str(trace), *extra]
    if all_metrics:
        cmd.append("--all-metrics")
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)
    return done


def result_line(done):
    if done.returncode != 0:
        raise AssertionError(f"benchmark failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if run.build() is None:
            raise RuntimeError("perfbench does not build")

    def test_names_and_units_printed_for_every_workload(self):
        bench = bench_json()
        spec = spec_json()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["name"], spec["metrics"])
            self.assertEqual(spec["metrics"][metric["name"]]["unit"],
                             metric["unit"])
        for workload in [w["name"] for w in bench["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    line = result_line(run_bench(workload, 1, trace))
                    self.assertEqual(set(line), {"correct", "attempted",
                                                 "failed", "metrics"})
                    self.assertIs(line["correct"], True)
                    self.assertGreaterEqual(line["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in bench[key]}
                    self.assertEqual(set(line["metrics"]), set(declared))
                    for name, metric in line["metrics"].items():
                        self.assertEqual(metric["unit"], declared[name])
                        self.assertIsInstance(metric["value"], (int, float))
                    if key == "end_to_end":
                        for name, metric in line["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_simulated_outcome_repeats_for_a_seed(self):
        spec = spec_json()
        for workload in [w["name"] for w in bench_json()["workloads"]]:
            with self.subTest(workload=workload):
                first = result_line(run_bench(workload, 7, 0, True))
                second = result_line(run_bench(workload, 7, 0, True))
                self.assertEqual(first["digest"], second["digest"])
                self.assertEqual(first["input_digest"],
                                 second["input_digest"])
                for name, metric in first["metrics"].items():
                    if spec["metrics"].get(name, {}).get("clock") in (
                            "virtual", "exact"):
                        self.assertEqual(metric["value"],
                                         second["metrics"][name]["value"],
                                         name)

    def test_seed_changes_the_touch_stream(self):
        one = result_line(run_bench("device_swap", 1, 0, True))
        two = result_line(run_bench("device_swap", 2, 0, True))
        self.assertNotEqual(one["input_digest"], two["input_digest"])
        self.assertNotEqual(one["digest"], two["digest"])

    def test_device_swap_reads_back_with_shipped_deltas(self):
        line = result_line(run_bench("device_swap", 1, 0, True,
                                     extra=("--payload-cache-kib", "64")))
        self.assertGreater(line["metrics"]["swap.delta_out_ratio"]["value"], 0)
        self.assertEqual(line["failed"], 0)

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("traverse", 1, 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
