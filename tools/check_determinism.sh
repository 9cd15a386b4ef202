#!/usr/bin/env bash
# CLI-level acceptance for `pfrdtn check`:
#   1. the same (seed, config) produces byte-identical output twice —
#      event logs, verdicts, and summaries;
#   2. the injected knowledge-corruption bug (--inject-bug
#      learn-truncated) is detected, exits nonzero, reproduces
#      byte-identically (including the shrunk schedule), and shrinks to
#      a small schedule;
#   3. clean runs exit zero;
#   4. with crash events enabled, the injected durability bug
#      (--inject-bug skip-fsync) is caught by the crash probe,
#      reproduces byte-identically, and also shrinks small;
#   5. with disk faults enabled, the injected acknowledgement bug
#      (--inject-bug ack-before-fsync: the WAL acks a mutation before
#      it is durable) is caught by the durability probe — the oracle
#      proof that "nothing a peer was told is durable may be lost" is
#      actually enforced under storage faults.
# expect_caught (tools/e2e_lib.sh) runs the catch/reproduce/shrink
# part of 2, 4 and 5.
#
# Usage: check_determinism.sh /path/to/pfrdtn
set -euo pipefail

CLI="${1:?usage: check_determinism.sh /path/to/pfrdtn}"
source "$(dirname "$0")/e2e_lib.sh"

# 1. Bit-identical reruns of a clean batch, logs on.
"$CLI" check --seed 5 --runs 3 --log > "$WORK/clean1"
"$CLI" check --seed 5 --runs 3 --log > "$WORK/clean2"
diff "$WORK/clean1" "$WORK/clean2"

# 2. The injected bug fails, reproduces identically, and shrinks small.
expect_caught learn-truncated --replay 1
grep -q "replay: pfrdtn check --inject-bug learn-truncated --replay 1" \
  "$WORK/learn-truncated.report"

# 3. Clean runs exit zero (already implied by set -e above, but make
# the passing verdict explicit). Crash-restart events with the real
# durability config are invisible: the run still passes.
grep -q "check passed" "$WORK/clean1"
"$CLI" check --seed 5 --runs 3 --crash-rate 0.3 > "$WORK/crash_clean"
grep -q "check passed" "$WORK/crash_clean"

# 4. The injected fsync-skipping bug loses acknowledged state at a
# crash; the durability probe must catch, reproduce, and shrink it.
expect_caught skip-fsync --replay 1 --crash-rate 0.3
grep -Eq "probe: *(durability|crash-recovery)" "$WORK/skip-fsync.report"
grep -q \
  "replay: pfrdtn check --crash-rate 0.3 --inject-bug skip-fsync --replay 1" \
  "$WORK/skip-fsync.report"

# 5. The injected ack-before-fsync bug acknowledges a mutation to the
# replica (and thus to peers) before the record is durable; a disk
# fault plus a crash then loses acknowledged state. The durability
# probe must catch, reproduce, and shrink it — and the same seed must
# pass clean without the bug (the fault schedule itself is innocent).
"$CLI" check --replay 8 --crash-rate 0.2 --disk-fault-rate 0.05 \
  > "$WORK/ack_clean"
grep -q "check passed" "$WORK/ack_clean"
expect_caught ack-before-fsync --replay 8 --crash-rate 0.2 \
  --disk-fault-rate 0.05
grep -Eq "probe: *(durability|crash-recovery)" \
  "$WORK/ack-before-fsync.report"
grep -q "replay: pfrdtn check --crash-rate 0.2 --disk-fault-rate 0.05" \
  "$WORK/ack-before-fsync.report"

echo "check-cli determinism OK"
