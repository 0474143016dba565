#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

They build the driver through perfbench/run.py and check that inputs and
simulated statistics are a function of the seed, that every metric
BENCHMARK.json declares is emitted under a well-formed name, and that
the workloads load the layers they are meant to (rch_async_gc flips
instead of re-inflating; restart_corpus re-inflates and never flips).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
SHORT = "0.5"
_cache = {}


def driver(*args):
    proc = subprocess.run([run.BINARY] + list(args), cwd=run.ROOT, env=run.pinned_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError("driver failed: %s\n%s" % (args, proc.stderr[-2000:]))
    return proc.stdout


def measured(workload, seed, trace):
    """(info, result) of a short run, cached per argument tuple."""
    key = (workload, seed, trace)
    if key not in _cache:
        lines = driver("--workload", workload, "--seed", str(seed), "--seconds", SHORT,
                       "--trace", str(trace)).splitlines()
        info = json.loads(lines[-2])["info"]
        _cache[key] = (info, json.loads(lines[-1]))
    return _cache[key]


def declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[section]]


class SeedTest(unittest.TestCase):
    def test_same_seed_same_tape_different_seed_different_tape(self):
        for workload in run.WORKLOADS:
            a = driver("--workload", workload, "--seed", "7", "--describe")
            b = driver("--workload", workload, "--seed", "7", "--describe")
            c = driver("--workload", workload, "--seed", "8", "--describe")
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a, c, workload)

    def test_same_seed_same_digest(self):
        for workload in run.WORKLOADS:
            first, _ = measured(workload, 5, 0)
            again = json.loads(driver("--workload", workload, "--seed", "5", "--seconds",
                                      "0.2", "--trace", "0").splitlines()[-2])["info"]
            traced, _ = measured(workload, 5, 1)
            self.assertEqual(first["digest"], again["digest"], workload)
            self.assertEqual(first["digest"], traced["digest"], workload)

    def test_outputs_correct(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                info, result = measured(workload, 5, trace)
                self.assertTrue(result["correct"], (workload, trace, info["failures"]))
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)


class MetricNamesTest(unittest.TestCase):
    def test_every_declared_metric_is_emitted_with_a_valid_name(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            names = declared(section)
            for workload in run.WORKLOADS:
                _, result = measured(workload, 5, trace)
                emitted = result["metrics"]
                for name in emitted:
                    self.assertRegex(name, NAME_RE)
                    self.assertIsInstance(emitted[name]["value"], (int, float))
                self.assertEqual(sorted(set(names) - set(emitted)), [], (workload, section))

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in run.WORKLOADS:
            _, result = measured(workload, 5, 0)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, (workload, name))


class DiscriminationTest(unittest.TestCase):
    def test_restart_corpus_reinflates_and_never_flips(self):
        _, result = measured("restart_corpus", 5, 1)
        m = result["metrics"]
        self.assertEqual(m["rch.flips"]["value"], 0)
        self.assertGreaterEqual(m["view.inflations_per_episode"]["value"], 1.0)

    def test_rch_async_gc_flips_instead_of_inflating(self):
        _, result = measured("rch_async_gc", 5, 1)
        m = result["metrics"]
        self.assertLess(m["view.inflations_per_episode"]["value"], 0.05)
        self.assertGreater(m["rch.flips"]["value"], 0)
        self.assertGreater(m["rch.views_migrated"]["value"], 0)

    def test_mc_catalogue_explores(self):
        _, result = measured("mc_catalogue", 5, 1)
        m = result["metrics"]
        self.assertGreater(m["mc.executions"]["value"], 0)
        self.assertGreater(m["mc.schedules_covered"]["value"], m["mc.executions"]["value"])


if __name__ == "__main__":
    if not run.build():
        sys.exit(2)
    unittest.main()
