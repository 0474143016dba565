#!/usr/bin/env python3
"""What the instrumentation observers emit for the five examples.

Each example runs with --trace-out and --metrics-json, and the two
files are checked two ways:

  golden   the Chrome trace and the metrics JSON equal the checked-in
           goldens in tests/examples/golden/, byte for byte; gc_tuning's
           ~400 KB trace is pinned by its size and FNV-1a hash instead.
  recount  every counter the metrics registry derives from framework
           events equals a recount of the matching events in the trace
           (telemetry instants, dispatch spans, episode ends, RCH spans).

After an intentional change to the trace or the metrics, regenerate the
goldens with

  RCHDROID_UPDATE_GOLDEN=1 python3 tests/examples/test_example_observability.py \\
      BUILD/examples tests/examples/golden golden

and review their diff like any other source change.

Usage: test_example_observability.py EXAMPLES_DIR GOLDEN_DIR {golden,recount}
(CTest passes the built examples directory).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

EXAMPLES_DIR = None
GOLDEN_DIR = None

EXAMPLES = ("quickstart", "login_form", "mail_navigation", "photo_gallery",
            "gc_tuning")
#: Traces too large to check in: pinned by size and hash.
HASHED_TRACES = ("gc_tuning",)


def fnv1a64(data):
    value = 0xcbf29ce484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001b3) & 0xffffffffffffffff
    return value


def run_example(name, out_dir):
    trace = os.path.join(out_dir, name + ".trace.json")
    metrics = os.path.join(out_dir, name + ".metrics.json")
    proc = subprocess.run(
        [os.path.join(EXAMPLES_DIR, name), "--trace-out=" + trace,
         "--metrics-json=" + metrics],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise AssertionError(f"{name} exited {proc.returncode}: "
                             f"{proc.stderr[-2000:]}")
    with open(trace, "rb") as handle:
        trace_bytes = handle.read()
    with open(metrics, "rb") as handle:
        metrics_bytes = handle.read()
    return trace_bytes, metrics_bytes


def first_difference(actual, expected):
    line, at = 1, 0
    limit = min(len(actual), len(expected))
    while at < limit and actual[at] == expected[at]:
        if actual[at] == ord("\n"):
            line += 1
        at += 1
    return line


class ExampleOutputs(unittest.TestCase):
    outputs = {}

    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()
        for name in EXAMPLES:
            cls.outputs[name] = run_example(name, cls._tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()


class GoldenTest(ExampleOutputs):
    def check(self, actual, golden_name):
        path = os.path.join(GOLDEN_DIR, golden_name)
        if os.environ.get("RCHDROID_UPDATE_GOLDEN"):
            with open(path, "wb") as handle:
                handle.write(actual)
            return
        with open(path, "rb") as handle:
            expected = handle.read()
        if actual != expected:
            self.fail(f"{golden_name} diverges from the golden at line "
                      f"{first_difference(actual, expected)} — if the "
                      f"change is intentional, regenerate with "
                      f"RCHDROID_UPDATE_GOLDEN=1")

    def test_traces_and_metrics_match_the_goldens(self):
        for name in EXAMPLES:
            trace, metrics = self.outputs[name]
            with self.subTest(example=name):
                self.check(metrics, name + ".metrics.json")
                if name in HASHED_TRACES:
                    digest = f"{len(trace)} {fnv1a64(trace):016x}\n"
                    self.check(digest.encode(), name + ".trace.fnv1a")
                else:
                    self.check(trace, name + ".trace.json")


def recount(trace):
    """The event-derived counters, recounted from the Chrome trace."""
    events = json.loads(trace)["traceEvents"]

    def instants(kind):
        return sum(1 for e in events if e["ph"] == "i" and e["name"] == kind)

    def spans(name):
        return sum(1 for e in events if e["ph"] == "B" and e["name"] == name)

    dispatches = sum(1 for e in events
                     if e["ph"] == "B" and e["cat"] == "dispatch")
    ends = [e for e in events if e["ph"] == "e" and e["cat"] == "episode"]
    aborted = sum(1 for e in ends
                  if e.get("args", {}).get("detail") == "aborted")
    return {
        ("counters", "config_changes"): instants("atms.configChange"),
        ("counters", "relaunches"): instants("atms.relaunch"),
        ("counters", "coin_flip_hit"): instants("atms.coinFlip"),
        ("counters", "coin_flip_miss"): instants("atms.sunnyCreate"),
        ("counters", "app_crashes"): instants("app.crash"),
        ("counters", "messages_dispatched"): dispatches,
        ("histograms", "dispatch_latency_us"): dispatches,
        ("histograms", "dispatch_cost_us"): dispatches,
        ("counters", "episodes_completed"): len(ends) - aborted,
        ("histograms", "handling_ms"): len(ends) - aborted,
        ("counters", "episodes_aborted"): aborted,
        ("counters", "shadow_entered"): spans("rch.shadowDemotion"),
        ("histograms", "mapped_views_per_build"): spans("rch.buildMapping"),
        # Every GC check ends in exactly one of its three outcomes.
        ("gc", "checks"): spans("rch.gcCheck"),
    }


def measured(metrics, section, key):
    """The registry's value for one recount() entry."""
    if section == "gc":
        counters = metrics["counters"]
        return (counters["gc_collected"] + counters["gc_kept_young"] +
                counters["gc_kept_frequent"])
    value = metrics[section][key]
    return value["count"] if section == "histograms" else value


class RecountTest(ExampleOutputs):
    def test_metrics_equal_a_recount_of_the_trace(self):
        for name in EXAMPLES:
            trace, metrics = self.outputs[name]
            metrics = json.loads(metrics)
            for (section, key), expected in recount(trace).items():
                with self.subTest(example=name, metric=f"{section}.{key}"):
                    self.assertEqual(measured(metrics, section, key),
                                     expected)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] not in ("golden", "recount"):
        print(__doc__)
        sys.exit(2)
    EXAMPLES_DIR, GOLDEN_DIR, which = sys.argv[1:4]
    del sys.argv[1:4]
    selected = GoldenTest if which == "golden" else RecountTest
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(selected)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    sys.exit(0 if result.wasSuccessful() else 1)
