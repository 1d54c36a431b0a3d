#!/usr/bin/env bash
# Tier-1 verification: build and test the full tree in the two
# configurations CI cares about:
#   1. Release (-DNDEBUG): the guards that must survive assert() removal.
#   2. Debug + ASan/UBSan: memory and signed-overflow regressions.
# then run the benchmark harness's self-test (perfbench/selftest.py).
#
# Usage: ci/verify.sh [build-dir-prefix]
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_config() {
  local name="$1"
  shift
  local dir="${prefix}-${name}"
  echo "==== [${name}] configure ===="
  cmake -B "${dir}" -S . "$@"
  echo "==== [${name}] build ===="
  cmake --build "${dir}" -j "${jobs}"
  echo "==== [${name}] ctest ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

run_config release -DCMAKE_BUILD_TYPE=Release
# Project-invariant lint over the tree (failpoint arming, format-magic
# uniqueness, banned constructs, header hygiene) — the same binary the
# CI lint job runs, so regressions fail tier-1 locally first.
echo "==== ngdlint ===="
"${prefix}-release/ngdlint" .
# Reduced randomized sweeps under the sanitizers, matching the CI job
# (full sweeps run in the release configuration above).
(
  export NGD_DIFF_CASES=150 NGD_SIGMA_CASES=120 NGD_IO_CASES=8 \
    NGD_RECOVERY_CASES=3 NGD_VIO_CASES=40 NGD_SPILL_CASES=6 \
    NGD_SPILL_HEAVY=0 NGD_OVERLAY_CASES=1
  run_config asan -DCMAKE_BUILD_TYPE=Debug -DNGD_SANITIZE=ON
)

# The benchmark's own test (every workload at --small size, each output
# check broken on purpose must be caught), as CI's perfbench-selftest job.
echo "==== perfbench selftest ===="
python3 perfbench/selftest.py

echo "==== tier-1 verification passed ===="
