#!/usr/bin/env python3
"""Repository benchmark: build the simulator and run one seeded workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload restart_corpus --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (the simulator libraries from src/ plus the driver
binary) into .bench_build/perfbench, then runs the driver. With
--trace 0 the last stdout line is the end-to-end metrics, with --trace 1
the per-layer metrics; both in the form

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An end-to-end run is split over several fresh driver processes; each
metric, setup_s included, is the median over them. Environment knobs
that change what the simulator does (RCHDROID_*) are removed from the
driver's environment.

Exits 0 with a result, or non-zero without one (build failure, bad
arguments, a driver crash, or a metric missing from the output).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "rch_perfbench")
WORKLOADS = ("restart_corpus", "rch_async_gc", "mc_catalogue")
PROCESSES = 5
# Functions of the seed alone; every process must report them equal.
DETERMINISTIC = ("virt_handling_ms_p50", "virt_handling_ms_p99", "virt_heap_mb",
                 "paper_err_pct")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def pinned_env():
    """The environment minus every knob the simulator reads."""
    return {k: v for k, v in os.environ.items() if not k.startswith("RCHDROID_")}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "rch_perfbench", "rch_perfbench_ref"])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=850)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed:", " ".join(step))
            return False
    return True


def run_driver(args, timeout):
    proc = subprocess.run([BINARY] + args, cwd=ROOT, env=pinned_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.stderr:
        log(proc.stderr[-2000:])
    if proc.returncode != 0:
        raise RuntimeError("driver exited %d: %s" % (proc.returncode, " ".join(args)))
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("driver printed nothing: " + " ".join(args))
    return lines


def measure(common, seconds):
    """The end-to-end run: PROCESSES fresh driver processes share the
    time, and each metric is the median over them, so neither one
    process's memory placement nor one slow stretch of the host decides
    the result. Set-up is timed once per process; virtual-time metrics
    and the digest must be identical in every process."""
    runs = []
    for _ in range(PROCESSES):
        lines = run_driver(common + ["--seconds", repr(seconds / PROCESSES),
                                     "--trace", "0"], 170)
        runs.append((json.loads(lines[-2])["info"], json.loads(lines[-1])))
    results = [r for _, r in runs]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    same = all(r["metrics"][n]["value"] == results[0]["metrics"][n]["value"]
               for r in results for n in DETERMINISTIC)
    same = same and len({info["digest"] for info, _ in runs}) == 1
    if not same:
        log("perfbench: virtual metrics or digests differ between processes")
    info = dict(runs[0][0], processes=PROCESSES,
                failures=[f for info, _ in runs for f in info["failures"]])
    result = {
        "correct": all(r["correct"] for r in results) and same,
        "attempted": sum(r["attempted"] for r in results) + 1,
        "failed": sum(r["failed"] for r in results) + (0 if same else 1),
        "metrics": metrics,
    }
    return [json.dumps({"info": info})], result


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            spans = os.path.join(BUILD_DIR, "spans-%s-%d.json" % (args.workload, args.seed))
            lines = run_driver(common + ["--seconds", repr(args.seconds), "--trace", "1",
                                         "--spans-out", spans], 170)
            infos, result = lines[:-1], json.loads(lines[-1])
        else:
            infos, result = measure(common, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        log("perfbench:", err)
        return 1
    metrics = result["metrics"]

    expected = declared_metrics(args.trace)
    missing = sorted(set(expected) - set(metrics))
    bad = sorted(n for n in metrics if not NAME_RE.match(n))
    wrong_unit = sorted(n for n in expected if n in metrics and metrics[n]["unit"] != expected[n])
    if missing or bad or wrong_unit:
        log("perfbench: metrics missing %s, badly named %s, wrong unit %s"
            % (missing, bad, wrong_unit))
        return 1

    for line in infos:
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in sorted(expected)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
