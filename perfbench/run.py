#!/usr/bin/env python3
"""Runs one benchmark workload end to end.

    python3 perfbench/run.py --workload batch_hub --seed 7 --seconds 30 --trace 0

Run from the repository root. The script builds the harness (CMake, into
.bench_build/), generates the workload's inputs for the seed into a
scratch directory under .bench_build/work/ in a process of their own,
runs the measurement in another process, removes the scratch directory,
and passes the harness output through: the last stdout line is the
result JSON. With --trace 1 the Chrome trace and the self-time table go
to .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "cmake"
BINARY = BUILD_DIR / "ngd_perfbench"
WORKLOADS = ("batch_hub", "violation_flood", "epoch_stream")
# Input generation gets this long; measurement gets --seconds plus this.
SLACK_SECONDS = 75


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"{ROOT} holds no ngd sources (src/, CMakeLists.txt) to build")
    jobs = str(len(os.sched_getaffinity(0)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "ngd_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, timeout=840)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() or "unknown"


def stop(signum, _frame):
    # Unwinds through subprocess.run, which kills and reaps the running
    # child, and through the finally that removes the scratch inputs.
    raise SystemExit(f"perfbench: stopped by signal {signum}")


def main():
    signal.signal(signal.SIGTERM, stop)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced-size inputs (the self-test)")
    ap.add_argument("--break", dest="break_check", default="",
                    choices=("", "oracle", "pdect", "pincdect", "closure"),
                    help="self-test: corrupt one expected value")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    work = BUILD_ROOT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(work)]
    if args.small:
        common.append("--small")
    try:
        gen = subprocess.run(
            [str(BINARY), "generate", *common,
             "--rules-dir", str(BENCH_DIR / "rules")],
            stdout=sys.stderr, timeout=SLACK_SECONDS)
        if gen.returncode != 0:
            fail(f"input generation exited with {gen.returncode}")
        cmd = [str(BINARY), "measure", *common,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", str(BUILD_ROOT / "traces"),
               "--git-sha", git_sha()]
        if args.break_check:
            cmd += ["--break", args.break_check]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + SLACK_SECONDS)
        if res.returncode != 0:
            sys.stdout.write(res.stdout)
            fail(f"measurement exited with {res.returncode}")
        sys.stdout.write(res.stdout)
        sys.stdout.flush()
    except subprocess.TimeoutExpired as e:
        fail(f"timed out: {' '.join(e.cmd[:3])}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
