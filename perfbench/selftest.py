#!/usr/bin/env python3
"""Self-test of the benchmark's answer check.

    python3 perfbench/selftest.py

Runs a short `serve_point` measurement with one expected answer
corrupted and asserts that the wrong answers are counted (fail_ratio > 0,
`correct` false) and that the command exits nonzero. Then runs the same
measurement uncorrupted and asserts it passes with no failures.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def measure(*extra):
    cmd = [sys.executable, RUN, "--workload", "serve_point", "--seed", "7", "--seconds", "2"]
    proc = subprocess.run([*cmd, "--trace", "0", *extra], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no result line (exit {proc.returncode})"
    return proc.returncode, json.loads(lines[-1])


def main():
    code, result = measure("--corrupt-expected")
    fail_ratio = result["failed"] / result["attempted"]
    assert code != 0, "a corrupted expected answer must make the command fail"
    assert not result["correct"], result
    assert fail_ratio > 0, result
    assert result["metrics"]["ok_ratio"]["value"] < 1, result
    print(f"corrupted: exit {code}, fail_ratio {fail_ratio:.4f}")

    code, result = measure()
    assert code == 0 and result["correct"] and result["failed"] == 0, result
    print(f"clean: exit {code}, attempted {result['attempted']}, failed 0")


if __name__ == "__main__":
    main()
