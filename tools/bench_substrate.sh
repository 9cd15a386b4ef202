#!/usr/bin/env bash
# Run the substrate micro-benchmarks (bench/micro_substrate) and write
# BENCH_substrate.json: the current numbers next to the recorded
# baseline, plus the per-benchmark speedup and the context they were
# measured in (nproc, CPU model, build type, compiler), so the sync
# hot-path gains (shared payloads, indexed store, summary exchange,
# contiguous knowledge) stay measurable instead of anecdotal.
#
# Only Release builds are accepted: debug-build numbers vary 5-10x and
# silently poison the baseline comparison. Build one with
#   cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
#   cmake --build build-release --target micro_substrate
#
# Usage: tools/bench_substrate.sh [output.json]
#   BUILD_DIR=...       build tree holding bench/micro_substrate
#                       (default: <repo>/build-release)
#   BENCH_MIN_TIME=...  forwarded as --benchmark_min_time (a plain
#                       seconds double, e.g. 0.01 for a smoke run;
#                       unset for full accuracy)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build-release}"
OUT="${1:-$ROOT/BENCH_substrate.json}"
BENCH="$BUILD/bench/micro_substrate"
MIN_TIME="${BENCH_MIN_TIME:-}"

if [[ ! -x "$BENCH" ]]; then
  echo "error: $BENCH not built" >&2
  echo "  cmake -B $BUILD -S $ROOT -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD --target micro_substrate" >&2
  exit 1
fi

CACHE="$BUILD/CMakeCache.txt"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE" 2>/dev/null | head -1)"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "error: $BUILD is built as '${BUILD_TYPE:-unset}', not Release" >&2
  echo "benchmark numbers from non-Release builds are not comparable;" >&2
  echo "reconfigure with -DCMAKE_BUILD_TYPE=Release (e.g. in a separate" >&2
  echo "build-release tree) and point BUILD_DIR at it." >&2
  exit 1
fi

# Where the numbers came from, recorded next to them: a comparison
# across different hardware or toolchains is not a regression.
CXX="$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "$CACHE" | head -1)"
CPU_MODEL="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)"
COMPILER="$("${CXX:-c++}" --version 2> /dev/null | head -1)"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT
"$BENCH" --benchmark_out="$TMP" --benchmark_out_format=json \
  ${MIN_TIME:+--benchmark_min_time="$MIN_TIME"} >&2

python3 - "$TMP" "$OUT" "$(nproc)" "$CPU_MODEL" "$BUILD_TYPE" \
  "$COMPILER" << 'PY'
import json
import sys

# Baseline real-time numbers (ns) for the sync hot path, measured at
# the summary-exchange PR (PR 7) on the reference container,
# -DCMAKE_BUILD_TYPE=Release. This re-baselines the previous
# default-build-type numbers: the script now refuses non-Release
# builds, so the old figures were no longer comparable. Re-baseline
# here if the reference hardware changes.
BASELINE_NS = {
    "BM_SyncColdTarget/16": 15687,
    "BM_SyncColdTarget/128": 98540,
    "BM_SyncColdTarget/512": 348070,
    "BM_SyncColdTargetSummary/16": 13967,
    "BM_SyncColdTargetSummary/128": 105122,
    "BM_SyncColdTargetSummary/512": 315826,
    "BM_SyncNothingNew/16": 8200,
    "BM_SyncNothingNew/128": 37570,
    "BM_SyncNothingNew/512": 154942,
    "BM_SyncNothingNewSummary/16": 3570,
    "BM_SyncNothingNewSummary/128": 15668,
    "BM_SyncNothingNewSummary/512": 67888,
    "BM_SyncEpidemicRelay/16": 19551,
    "BM_SyncEpidemicRelay/128": 154877,
}

# The headline protocol claim: a converged no-op sync with summaries on
# ends in O(1) wire bytes regardless of store/knowledge size. The exact
# path's request re-ships the sparse knowledge every sync (~1.1 KB at
# n=512); the summary exchange is a digest + match frame. Guarded here
# so a regression fails the bench run, not just a figure.
MAX_SUMMARY_NOOP_WIRE_BYTES = 64

with open(sys.argv[1]) as f:
    current = json.load(f)

benches = [
    b for b in current.get("benchmarks", [])
    if b.get("run_type", "iteration") == "iteration"
]
current_ns = {b["name"]: b["real_time"] for b in benches}
speedup = {
    name: round(BASELINE_NS[name] / current_ns[name], 2)
    for name in BASELINE_NS
    if current_ns.get(name)
}

failures = []
for b in benches:
    if b["name"].startswith("BM_SyncNothingNewSummary/") and \
            b["name"] != "BM_SyncNothingNewSummary/16":
        wire = b.get("wire_bytes")
        if wire is None or wire > MAX_SUMMARY_NOOP_WIRE_BYTES:
            failures.append(
                f"{b['name']}: wire_bytes={wire} exceeds O(1) bound "
                f"{MAX_SUMMARY_NOOP_WIRE_BYTES}")

with open(sys.argv[2], "w") as f:
    json.dump(
        {
            "context": {
                "nproc": int(sys.argv[3]),
                "cpu_model": sys.argv[4],
                "build_type": sys.argv[5],
                "compiler": sys.argv[6],
            },
            "baseline_release_ns": BASELINE_NS,
            "speedup_vs_baseline": speedup,
            "current": current,
        },
        f,
        indent=2,
    )
    f.write("\n")

if failures:
    for line in failures:
        print("wire-bytes regression:", line, file=sys.stderr)
    sys.exit(1)
PY

echo "wrote $OUT"
