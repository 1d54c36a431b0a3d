#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Run from the repository root. It runs every workload at reduced size
(--small), untraced and traced, and requires a correct result carrying
exactly the metrics BENCHMARK.json names. Then it breaks each output
check on purpose and requires the run to report the failure:

  oracle    a wrong expected digest for the Dect cursor stream
  pdect     a wrong expected digest for PDect (it must equal Dect's)
  pincdect  a wrong IncDect ΔVio to compare PIncDect's against
  closure   a wrong Vio_prev − removed + added on the check epochs
  spill     a real spill fault (NGD_FAILPOINTS=vioseg_write=enospc)

Last, it runs the benchmark in a directory holding only BENCHMARK.json and
the benchmark's own files, where it must fail without printing a result.
Exits 0 when every case behaves.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

failures = []


def run(cwd, workload, trace=0, extra=(), env=None):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "5",
           "--seconds", "2", "--trace", str(trace), "--small", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main():
    for w in WORKLOADS:
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            proc = run(ROOT, w, trace)
            r = result(proc)
            good = (r is not None and r["correct"] and r["failed"] == 0
                    and r["attempted"] >= 1 and set(r["metrics"]) == names)
            if good and trace == 0:
                good = all(m["value"] > 0 for m in r["metrics"].values())
            expect(good, f"{w} --trace {trace}: correct, every metric present")
            if not good:
                print(proc.stdout[-2000:], proc.stderr[-2000:])

    broken = [("batch_hub", "oracle"), ("batch_hub", "pdect"),
              ("epoch_stream", "pincdect"), ("epoch_stream", "closure")]
    for w, check in broken:
        r = result(run(ROOT, w, extra=("--break", check)))
        expect(r is not None and not r["correct"] and r["failed"] > 0,
               f"{w} --break {check}: reported as failed")
    env = dict(os.environ, NGD_FAILPOINTS="vioseg_write=enospc")
    r = result(run(ROOT, "violation_flood", env=env))
    expect(r is not None and not r["correct"] and r["failed"] > 0,
           "violation_flood with a spill fault: reported as failed")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, Path(bare) / p)
        proc = run(bare, WORKLOADS[0])
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "bare directory: exits non-zero without a result")

    if failures:
        print(f"{len(failures)} case(s) failed")
        return 1
    print("all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
