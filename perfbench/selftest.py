#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gates.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Every gate is exercised by a
short run whose oracle has one bit flipped; each such run must exit
nonzero and report "correct": false. One clean run per workload must
pass. Exits 1 if any expectation fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, corrupted oracle, message the failing gate prints): the
# served-request oracle on every serving path, and the three dtype
# oracles of the offline batches.
CASES = [
    ("fc6-serve", None, None),
    ("fc6-serve", "serve", "served outputs differ"),
    ("zoo-mix", None, None),
    ("zoo-mix", "serve", "served outputs differ"),
    ("fc7-cluster", None, None),
    ("fc7-cluster", "serve", "served outputs differ"),
    ("lstm-offline", None, None),
    ("lstm-offline", "serve", "served outputs differ"),
    ("lstm-offline", "f64", "f64 batch outputs differ"),
    ("lstm-offline", "f32", "f32 batch outputs differ"),
    ("lstm-offline", "fxp", "fxp batch outputs differ"),
]


def run(workload, corrupt):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "11", "--seconds", "1", "--trace", "0"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=300)
    last = p.stdout.strip().split("\n")[-1] if p.stdout.strip() else "{}"
    try:
        correct = json.loads(last).get("correct")
    except ValueError:
        correct = None
    return p.returncode, correct, p.stdout


def main():
    bad = 0
    for workload, corrupt, message in CASES:
        code, correct, out = run(workload, corrupt)
        if corrupt is None:
            ok = code == 0 and correct is True and "FAILED" not in out
        else:
            ok = code != 0 and correct is False and any(
                line.startswith("FAILED: ") and message in line
                for line in out.split("\n"))
        print("%-4s %-13s corrupt=%-5s exit=%d correct=%s"
              % ("ok" if ok else "FAIL", workload, corrupt or "-", code,
                 correct))
        bad += not ok
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
