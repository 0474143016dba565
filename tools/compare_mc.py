#!/usr/bin/env python3
"""Gate a BENCH_mc.json run against bench/BENCH_mc.baseline.json.

Usage: compare_mc.py BASELINE_JSON CURRENT_JSON [--wall-ratio=3.0]

bench_mc explores every model-check scenario once and reports two kinds
of numbers, which (following tools/compare_simcore.py) gate differently:

Deterministic counters gate HARD (exit 1 with a ::error::): per
scenario, `executions`, `schedules_covered`, `truncated` and the
violation count must equal the baseline exactly, and the run must cover
the same scenarios at the same depth. The explorer is deterministic, so
any difference is a behaviour change; when it is intended, re-record
the baseline in the same change.

Wall-clock numbers only WARN: shared CI runners make them advisory. A
scenario whose wall time exceeds `--wall-ratio` times the baseline's
gets a ::warning::. The baseline comes from a different machine than
the runner, and repeat runs on one machine already spread by almost
2x, so the default ratio is a loose 3.0.

A missing or unreadable report (baseline or run) is an error: with no
baseline there is nothing to hold the counters to.
"""

import json
import sys

#: The per-scenario counters that must match the baseline exactly.
GATED_COUNTERS = ("executions", "schedules_covered", "truncated",
                  "violations")


def load_report(path, role):
    """Load one report; None (with an error line) when unusable."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"::error::bench_mc {role} {path} unusable ({exc})")
        return None


def check_counters(baseline, current):
    """Hard gate: every deterministic counter equals the baseline.

    Returns a list of error strings (empty = pass): one per differing
    counter, per scenario present on one side only, and one for a depth
    mismatch.
    """
    errors = []
    if baseline.get("depth") != current.get("depth"):
        errors.append(f"depth {current.get('depth')} differs from the "
                      f"baseline's {baseline.get('depth')}")
    base_cells = baseline.get("scenarios", {})
    cur_cells = current.get("scenarios", {})
    for name in sorted(set(base_cells) | set(cur_cells)):
        if name not in cur_cells:
            errors.append(f"scenario {name} missing from run")
            continue
        if name not in base_cells:
            errors.append(f"scenario {name} not in baseline")
            continue
        for key in GATED_COUNTERS:
            base = base_cells[name].get(key)
            cur = cur_cells[name].get(key)
            if base != cur:
                errors.append(
                    f"scenario {name}: {key} {cur} differs from baseline "
                    f"{base} — re-record bench/BENCH_mc.baseline.json if "
                    f"the exploration change is intended")
    return errors


def check_wall(baseline, current, ratio):
    """Advisory: scenarios whose wall time grew past ratio x baseline."""
    warnings = []
    base_cells = baseline.get("scenarios", {})
    for name, cell in sorted(current.get("scenarios", {}).items()):
        base_ms = base_cells.get(name, {}).get("wall_ms", 0.0)
        cur_ms = cell.get("wall_ms", 0.0)
        if base_ms > 0.0 and cur_ms > ratio * base_ms:
            warnings.append(
                f"scenario {name}: wall {cur_ms:.1f} ms > {ratio:.1f}x "
                f"baseline {base_ms:.1f} ms (advisory)")
    return warnings


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    wall_ratio = 3.0
    for arg in argv[3:]:
        if arg.startswith("--wall-ratio="):
            wall_ratio = float(arg.split("=", 1)[1])

    baseline = load_report(argv[1], "baseline")
    current = load_report(argv[2], "run")
    if baseline is None or current is None:
        return 1

    errors = check_counters(baseline, current)
    warnings = check_wall(baseline, current, wall_ratio)

    for name, cell in sorted(current.get("scenarios", {}).items()):
        print(f"{name}: {cell.get('executions')} executions, "
              f"{cell.get('schedules_covered')} schedules, replayed/exec "
              f"{cell.get('replayed_per_execution', 0):.1f}, wall "
              f"{cell.get('wall_ms', 0):.1f} ms")

    for warning in warnings:
        print(f"::warning::bench_mc {warning}")
    for error in errors:
        print(f"::error::bench_mc {error}")
    if errors:
        return 1
    print("bench_mc gates passed (counters identical to the baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
