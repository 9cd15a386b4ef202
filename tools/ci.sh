#!/usr/bin/env bash
# Local CI: a plain build, an ASan+UBSan build, and a TSan build, each
# running the full test suite (all tiers: fast, slow, e2e), followed by
# a randomized check-harness stage on each build — a long run on the
# plain build, shorter ones under the sanitizers. TSan exists for the
# concurrent serve path: the multi-worker event-loop server, its
# cross-worker quarantine table, and the drain protocol all run under
# it via the net_server_test / concurrent_e2e tiers. A violation prints
# the exact replay command. Run from anywhere; builds land next to the
# repo checkout under build-ci/.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2> /dev/null || echo 4)"
source "$ROOT/tools/e2e_lib.sh"

run_suite() {
  local name="$1"
  shift
  local dir="$ROOT/build-ci/$name"
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S "$ROOT" "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$name] test ==="
  ctest --test-dir "$dir" --output-on-failure
}

# GCC warns at -O3 where it does not at -O2 (-Wrestrict on inlined
# string concatenation), so the library and the CLI also build
# warning-free in Release. The tests are not rebuilt here: the plain
# suite already runs them.
run_release_werror() {
  local dir="$ROOT/build-ci/release"
  echo "=== [release] configure ==="
  cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror
  echo "=== [release] build pfrdtn, pfrdtn_cli ==="
  cmake --build "$dir" --target pfrdtn pfrdtn_cli -j "$JOBS"
}

# Benchmarks are code too: build the micro-benchmark binary and run it
# briefly so bench/ cannot bit-rot against substrate API changes. The
# tiny min-time keeps this a compile-and-run smoke, not a measurement —
# tools/bench_substrate.sh is the measuring entry point.
run_bench_smoke() {
  local dir="$ROOT/build-ci/plain"
  echo "=== [plain] bench smoke ==="
  cmake --build "$dir" --target micro_substrate -j "$JOBS"
  "$dir/bench/micro_substrate" --benchmark_min_time=0.01 > /dev/null
}

# The end-to-end benchmark's own self-test (perfbench/README.md): every
# declared metric is emitted with its unit, each output check rejects a
# tampered result, and run.py refuses a tree without the program's
# sources. Its Release build lands under build-ci/perfbench.
run_perfbench_selftest() {
  echo "=== perfbench self-test ==="
  (cd "$ROOT" && CARGO_TARGET_DIR="$ROOT/build-ci" \
    python3 perfbench/test_perfbench.py)
}

# Work, not time: traced perfbench runs must report exactly the per-op
# counts pinned in tools/work_ledger.tsv (WAL records, fsyncs, bytes
# appended and sent, items applied, syncs). Counts repeat exactly where
# timings spread, so a speed-up that adds or drops work fails here. It
# reads perfbench's result line from outside and reuses the Release
# build of run_perfbench_selftest under build-ci/perfbench.
run_work_ledger() {
  echo "=== perfbench work ledger ==="
  local workload seed metric want got result run=""
  while IFS=$'\t' read -r workload seed metric want; do
    [[ -z "$workload" || "$workload" == \#* ]] && continue
    if [[ "$run" != "$workload $seed" ]]; then
      run="$workload $seed"
      result="$(cd "$ROOT" && CARGO_TARGET_DIR="$ROOT/build-ci" \
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds 1 --trace 1 < /dev/null | tail -1)"
    fi
    got="$(sed -n "s/.*\"$metric\": {\"value\": \([^,}]*\).*/\1/p" \
      <<< "$result")"
    [[ "$got" == "$want" ]] ||
      fail "work ledger: $workload seed $seed $metric is ${got:-missing}, want $want"
  done < "$ROOT/tools/work_ledger.tsv"
  echo "work ledger: every count matches"
}

# The check harness must be a pure function of its seed: replay the
# same fixed-seed corpus twice and require byte-identical summaries.
# This is what makes the printed replay commands, the shrinker, and
# cross-change corpus comparisons trustworthy.
run_check_replay() {
  local bin="$ROOT/build-ci/plain/tools/pfrdtn"
  echo "=== [plain] check: fixed-seed corpus replays identically ==="
  local first second
  first="$("$bin" check --seed 1876 --runs 50)"
  second="$("$bin" check --seed 1876 --runs 50)"
  if [[ "$first" != "$second" ]]; then
    echo "fixed-seed check corpus diverged between runs:" >&2
    echo "  1st: $first" >&2
    echo "  2nd: $second" >&2
    exit 1
  fi
  echo "$first"
}

# Randomized invariant checking over the real sync stack. The seed
# base moves with the date so every CI day explores fresh schedules,
# while any failure stays reproducible from the printed replay line.
run_check_stage() {
  local name="$1"
  local runs="$2"
  local bin="$ROOT/build-ci/$name/tools/pfrdtn"
  local seed
  seed="$(date -u +%Y%m%d)"
  # band DIVISOR FLAGS...: runs/DIVISOR schedules of one fault band.
  band() { "$bin" check --seed "$seed" --runs "$((runs / $1))" "${@:2}"; }
  echo "=== [$name] check: $runs randomized schedules (seed $seed) ==="
  band 1
  band 4 --cut-rate 0.7 --storage 1
  # Crash-restart events against the WAL + checkpoint recovery path:
  # every crash must recover the exact acknowledged state (the
  # durability probe digests state before and after).
  band 4 --crash-rate 0.2 --cut-rate 0.3
  # Chaos-peer adversary events against the hardened session boundary:
  # every hostile script must be rejected (violations) or absorbed
  # (link-indistinguishable closes/trickles) with the serving replica's
  # state untouched, and the slow-loris cut by the session deadline.
  band 4 --adversary-rate 0.4
  band 8 --adversary-rate 0.25 --cut-rate 0.3 --crash-rate 0.1
  # Summary-exchange syncs (plus forced digest collisions) against the
  # equivalence and quiescence probes: summaries must change wire
  # bytes, never outcomes, and a spurious Match may defer items but
  # never lose them.
  band 4 --summary-rate 0.5 --summary-collision-rate 0.2
  band 8 --summary-rate 0.4 --cut-rate 0.3 --crash-rate 0.1
  # Flaky-contact schedules against the retrying contact discipline:
  # every cut sync earns re-dial attempts that must make monotone
  # forward progress, deliver nothing twice (the at-most-once probe
  # audits received events), and strike nobody over a link fault.
  band 4 --retry-max 3 --cut-rate 0.6
  band 8 --retry-max 3 --cut-rate 0.4 --crash-rate 0.15 \
    --summary-rate 0.3 --adversary-rate 0.1
  # Storage-fault schedules against the degrade-to-read-only path:
  # every injected disk fault must refuse the mutation with zero trace
  # (nothing acknowledged is ever lost), degraded replicas keep serving
  # reads but strike nobody, and a heal + restart converges.
  band 4 --disk-fault-rate 0.05 --crash-rate 0.15
  band 8 --disk-fault-rate 0.1 --crash-rate 0.2 --cut-rate 0.3 \
    --summary-rate 0.2 --adversary-rate 0.1
}

# Every injected bug must actually be caught: its fixed-seed schedule
# has to fail an invariant probe, reproduce byte-identically and
# shrink small (expect_caught, tools/e2e_lib.sh). Guards each probe
# against silently degrading into a no-op:
#   learn-truncated        an incomplete sync still merges the source's
#                          knowledge; knowledge-soundness must fire
#   skip-fsync             the WAL acks records it never fsyncs; the
#                          crash probe must see state forgotten
#   ack-before-fsync       fsync failures are swallowed; under disk
#                          faults the durability probe must see it
#   skip-limit-check,      adversary sessions run unlimited / without
#   no-deadline            a deadline; the containment / deadline
#                          probes must fire
#   summary-skip-fallback  a digest mismatch gets an empty "complete"
#                          batch; knowledge-soundness must fire
#   retry-forgets-progress re-dials re-count applied items; the
#                          monotone-progress / at-most-once probes
#                          must fire
# Each row runs ten seeds: one fixed replay seed catches a bug only as
# long as the schedule it draws stays the same.
ORACLE_PROOFS=(
  "learn-truncated --seed 1 --runs 10"
  "skip-fsync --seed 1 --runs 10 --crash-rate 0.3"
  "ack-before-fsync --seed 1 --runs 10 --crash-rate 0.2 --disk-fault-rate 0.05"
  "skip-limit-check --seed 7 --runs 10 --adversary-rate 0.5"
  "no-deadline --seed 7 --runs 10 --adversary-rate 0.5"
  "summary-skip-fallback --seed 1 --runs 10 --summary-rate 0.6"
  "retry-forgets-progress --seed 1876 --runs 10 --retry-max 3 --cut-rate 0.6"
)

run_oracle_proofs() {
  local proof bug bugs listed=" ${ORACLE_PROOFS[*]%% *} "
  CLI="$ROOT/build-ci/$1/tools/pfrdtn"
  # Every bug `pfrdtn --help` lists for --inject-bug needs a row above.
  bugs="$("$CLI" --help | sed -n 's/.*--inject-bug \([^ ]*\) .*/\1/p')"
  [ -n "$bugs" ] || fail "pfrdtn --help lists no --inject-bug values"
  for bug in ${bugs//|/ }; do
    [[ "$listed" == *" $bug "* ]] ||
      fail "--inject-bug $bug has no ORACLE_PROOFS row in tools/ci.sh"
  done
  for proof in "${ORACLE_PROOFS[@]}"; do
    echo "=== [$1] check: ${proof%% *} bug is caught ==="
    expect_caught $proof  # unquoted: the row splits into BUG FLAGS...
  done
}

# Every shell script must at least parse.
run_shell_syntax() {
  echo "=== bash -n tools/*.sh ==="
  local script
  for script in "$ROOT"/tools/*.sh; do bash -n "$script"; done
}

run_shell_syntax
# The plain build is warning-free, and -Werror keeps it that way.
run_suite plain -DCMAKE_CXX_FLAGS=-Werror
run_release_werror
run_suite asan-ubsan -DPFRDTN_SANITIZE=address,undefined
run_suite tsan -DPFRDTN_SANITIZE=thread

run_bench_smoke
run_perfbench_selftest
run_work_ledger
run_check_replay
run_check_stage plain 400
# Sanitized execution is ~10x slower; fewer schedules, same coverage
# of the memory-safety dimension.
run_check_stage asan-ubsan 60
# TSan watches the locking discipline (replica state mutex, quarantine
# mutex, event-loop post queues) rather than schedules, so an even
# shorter corpus suffices — the races it hunts live in the server
# tests above, which already ran under this build.
run_check_stage tsan 40
run_oracle_proofs plain
run_oracle_proofs asan-ubsan

echo "CI OK"
