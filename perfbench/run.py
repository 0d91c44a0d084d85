#!/usr/bin/env python3
"""Run one benchmark workload against the `sxv serve` daemon.

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 10 --trace 0

Builds the `perfbench` binary from source (cargo, offline, into
$CARGO_TARGET_DIR or .bench_build), generates the seeded inputs in a
separate process, then runs the measuring process (client and daemon on
one CPU at a time) and prints its JSON result as the last line of stdout.
The measuring process's peak RSS (its own high-water mark, input
generation excluded) is added as `peak_rss_mb` when tracing is off.

Exit status: 0 when every answer was correct, 1 on any wrong answer,
2 on any other failure (no result line is printed then).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_point", "exec_scan", "plan_churn")
# Generation plus measurement must end within this many seconds.
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout_s):
    """Run `cmd`, forwarding its stderr; return (exit code, stdout, max RSS in KiB)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        # wait4 reports the resource usage of exactly this child.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
    return proc.returncode, out.decode(), usage.ru_maxrss


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-expected",
        action="store_true",
        help="self-test: corrupt one expected answer; the run must then fail",
    )
    args = parser.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        fail("the repository's crates/ sources are missing; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(target, "release", "perfbench")
    started = time.monotonic()

    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    code, _, _ = run_child([exe, "gen", *common], RUN_LIMIT_S)
    if code != 0:
        fail("input generation failed")

    cmd = [exe, "run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    code, out, max_rss_kib = run_child(cmd, max(remaining, 1))
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        fail(f"measuring process failed (exit {code})")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": max_rss_kib / 1024, "unit": "MB"}
    # Inputs are regenerated on every run; only the span file is kept.
    for name in os.listdir(work):
        if name != "spans.tsv":
            os.remove(os.path.join(work, name))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
