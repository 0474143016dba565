#!/usr/bin/env python3
"""Unit tests for tools/compare_mc.py.

Runs with the standard library only (unittest, no pytest): invoke as

  python3 tests/tools/test_compare_mc.py

or through CTest, which registers it when a Python3 interpreter is
found at configure time.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 os.pardir, os.pardir, "tools"))

import compare_mc  # noqa: E402


def cell(schedules=1000, executions=100, truncated=False, violations=0,
         replayed=1100, wall=25.0):
    """One scenario's bench_mc cell with sane defaults."""
    return {
        "schedules_covered": schedules, "executions": executions,
        "truncated": truncated, "violations": violations,
        "events_replayed": replayed,
        "replayed_per_execution": replayed / executions,
        "wall_ms": wall,
    }


def report(scenarios, depth=10):
    return {
        "depth": depth,
        "scenarios": scenarios,
        "totals": {"wall_ms": sum(c["wall_ms"] for c in scenarios.values())},
    }


class CounterGateTest(unittest.TestCase):
    def test_identical_counters_pass(self):
        base = report({"quickstart": cell(), "seeded_gc": cell()})
        cur = report({"quickstart": cell(), "seeded_gc": cell()})
        self.assertEqual(compare_mc.check_counters(base, cur), [])

    def test_every_gated_counter_fails_hard(self):
        for key, value in (("executions", 101),
                           ("schedules_covered", 999),
                           ("truncated", True),
                           ("violations", 1)):
            with self.subTest(key=key):
                drifted = cell()
                drifted[key] = value
                base = report({"quickstart": cell()})
                cur = report({"quickstart": drifted})
                errors = compare_mc.check_counters(base, cur)
                self.assertEqual(len(errors), 1)
                self.assertIn(key, errors[0])
                self.assertIn("quickstart", errors[0])

    def test_replayed_events_and_wall_do_not_gate(self):
        base = report({"quickstart": cell(replayed=1100, wall=25.0)})
        cur = report({"quickstart": cell(replayed=900, wall=90.0)})
        self.assertEqual(compare_mc.check_counters(base, cur), [])

    def test_missing_scenario_is_an_error(self):
        base = report({"quickstart": cell(), "gone": cell()})
        cur = report({"quickstart": cell()})
        errors = compare_mc.check_counters(base, cur)
        self.assertEqual(len(errors), 1)
        self.assertIn("gone", errors[0])
        self.assertIn("missing", errors[0])

    def test_scenario_absent_from_baseline_is_an_error(self):
        base = report({"quickstart": cell()})
        cur = report({"quickstart": cell(), "fresh": cell()})
        errors = compare_mc.check_counters(base, cur)
        self.assertEqual(len(errors), 1)
        self.assertIn("not in baseline", errors[0])

    def test_depth_mismatch_is_an_error(self):
        base = report({"quickstart": cell()}, depth=10)
        cur = report({"quickstart": cell()}, depth=12)
        errors = compare_mc.check_counters(base, cur)
        self.assertEqual(len(errors), 1)
        self.assertIn("depth", errors[0])


class WallAdvisoryTest(unittest.TestCase):
    def test_wall_within_ratio_is_silent(self):
        base = report({"quickstart": cell(wall=25.0)})
        cur = report({"quickstart": cell(wall=49.0)})
        self.assertEqual(compare_mc.check_wall(base, cur, 2.0), [])

    def test_wall_beyond_ratio_warns(self):
        base = report({"quickstart": cell(wall=25.0)})
        cur = report({"quickstart": cell(wall=51.0)})
        warnings = compare_mc.check_wall(base, cur, 2.0)
        self.assertEqual(len(warnings), 1)
        self.assertIn("advisory", warnings[0])

    def test_zero_baseline_wall_carries_no_signal(self):
        base = report({"quickstart": cell(wall=0.0)})
        cur = report({"quickstart": cell(wall=10.0)})
        self.assertEqual(compare_mc.check_wall(base, cur, 2.0), [])


class MainTest(unittest.TestCase):
    def run_main(self, baseline, current, *extra):
        """Write both reports to a tempdir and run main(); returns
        (exit_code, stdout_text). A None report is left unwritten."""
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "baseline.json")
            cur_path = os.path.join(tmp, "current.json")
            for path, data in ((base_path, baseline), (cur_path, current)):
                if data is not None:
                    with open(path, "w") as handle:
                        json.dump(data, handle)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = compare_mc.main(
                    ["compare_mc.py", base_path, cur_path, *extra])
            return code, stdout.getvalue()

    def test_clean_run_exits_zero(self):
        code, out = self.run_main(report({"quickstart": cell()}),
                                  report({"quickstart": cell()}))
        self.assertEqual(code, 0)
        self.assertIn("gates passed", out)

    def test_counter_drift_exits_one(self):
        code, out = self.run_main(
            report({"quickstart": cell(executions=100)}),
            report({"quickstart": cell(executions=99)}))
        self.assertEqual(code, 1)
        self.assertIn("::error::", out)

    def test_slow_wall_alone_warns_but_passes(self):
        code, out = self.run_main(
            report({"quickstart": cell(wall=10.0)}),
            report({"quickstart": cell(wall=100.0)}), "--wall-ratio=3.0")
        self.assertEqual(code, 0)
        self.assertIn("::warning::", out)

    def test_missing_baseline_exits_one(self):
        code, out = self.run_main(None, report({"quickstart": cell()}))
        self.assertEqual(code, 1)
        self.assertIn("baseline", out)

    def test_missing_run_exits_one(self):
        code, out = self.run_main(report({"quickstart": cell()}), None)
        self.assertEqual(code, 1)
        self.assertIn("run", out)

    def test_too_few_arguments_prints_usage(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = compare_mc.main(["compare_mc.py"])
        self.assertEqual(code, 2)
        self.assertIn("Usage", stdout.getvalue())


if __name__ == "__main__":
    unittest.main()
