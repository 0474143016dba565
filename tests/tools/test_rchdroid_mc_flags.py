#!/usr/bin/env python3
"""rchdroid_mc must reject malformed numeric flags with exit status 2.

A misread flag is worse than a refused one: `--max-states=abc` once
parsed to 0, truncated the search after one execution and exited 0 —
a clean "no violation" verdict for a search that never ran. Each case
below passes one bad flag to an otherwise valid command line.

Usage: python3 tests/tools/test_rchdroid_mc_flags.py PATH/TO/rchdroid_mc
(CTest passes the built binary).
"""

import subprocess
import sys
import unittest

BINARY = None

#: (flag, name the error message must mention)
BAD_FLAGS = (
    ("--max-states=abc", "--max-states"),
    ("--max-states=-1", "--max-states"),
    ("--max-states=", "--max-states"),
    ("--max-states=18446744073709551616", "--max-states"),  # 2^64
    ("--depth=3x", "--depth"),
    ("--depth=-3", "--depth"),
    ("--depth=+3", "--depth"),
    ("--depth=2147483648", "--depth"),  # INT_MAX + 1
    ("--replay=1,x,0", "--replay"),
    ("--replay=1,,0", "--replay"),
    ("--replay=1,-1", "--replay"),
    ("--replay=", "--replay"),
)


def run(*args):
    return subprocess.run([BINARY, "--app=gc_tuning", *args],
                          capture_output=True, text=True, timeout=60)


class StrictNumericFlagsTest(unittest.TestCase):
    def test_bad_numeric_flags_exit_2(self):
        for flag, name in BAD_FLAGS:
            with self.subTest(flag=flag):
                proc = run(flag)
                self.assertEqual(proc.returncode, 2, proc.stdout)
                self.assertIn(name, proc.stderr)

    def test_well_formed_flags_still_run(self):
        proc = run("--depth=2", "--max-states=5", "--replay=0,1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("replay 0,1", proc.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(2)
    BINARY = sys.argv.pop(1)
    unittest.main()
