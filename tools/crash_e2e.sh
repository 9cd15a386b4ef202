#!/usr/bin/env bash
# Crash-durability end-to-end test: a server replica with a real state
# directory is SIGKILLed mid-batch (--kill-after-records), restarted,
# and re-synced. The test passes iff
#   1. the restarted server recovers from its checkpoint + WAL,
#   2. the re-sync converges it to the full message set, and
#   3. its final state digest is byte-identical to a control server
#      that received the same messages without ever crashing.
# A second client state directory proves client-side recovery too: the
# client is re-run from its own --state-dir and must not re-author or
# lose messages. Helpers come from tools/e2e_lib.sh.
#
# Usage: crash_e2e.sh /path/to/pfrdtn
set -u

CLI="${1:?usage: crash_e2e.sh /path/to/pfrdtn}"
source "$(dirname "$0")/e2e_lib.sh"

# Every server serves address 42 for one session; every client pushes
# from address 7.
serve_once() {
  start_server "$1" --state-dir "$WORK/$1" --addr 42 --max-sessions 1 \
    "${@:2}"
}
PUSH=(--addr 7 --mode push)

# --- crashed pair ----------------------------------------------------

serve_once crashed || fail "server (run 1) failed to start"
sync crashed client "${PUSH[@]}" \
  --send 42=m1 --send 42=m2 --send 42=m3 \
  || fail "initial push failed"
wait_server || fail "server (run 1) exited non-zero"

# Run 2: the client authors three more messages; the server SIGKILLs
# itself mid-batch (after 2 WAL records: the startup filter record plus
# the first applied item), leaving a partially applied batch behind.
serve_once crashed --kill-after-records 2 \
  || fail "server (run 2) failed to start"
sync crashed client "${PUSH[@]}" --send 42=m4 --send 42=m5 --send 42=m6 \
  || true
wait_server
[ $? -eq 137 ] || fail "server (run 2) was not SIGKILLed as arranged"

grep -q "recovered replica" "$WORK/crashed.log" \
  || fail "server (run 2) did not recover from its state directory"

# Run 3: restart once more — recovery must replay the durable prefix of
# the torn batch — and let the client re-sync the remainder. The client
# re-runs from its own state directory with no --send: its six authored
# messages are durable, not re-authored.
serve_once crashed || fail "server (run 3) failed to start"
sync crashed client "${PUSH[@]}" || fail "re-sync after crash failed"
wait_server || fail "server (run 3) exited non-zero"

# --- control pair: same six messages, no crash -----------------------

serve_once control || fail "control server failed to start"
sync control control_client "${PUSH[@]}" \
  --send 42=m1 --send 42=m2 --send 42=m3 \
  --send 42=m4 --send 42=m5 --send 42=m6 \
  || fail "control push failed"
wait_server || fail "control server exited non-zero"

# --- compare ---------------------------------------------------------

same_digest crashed control \
  "crashed+recovered state diverged from the never-crashed control"

# All six deliveries must have been reported across the server's runs.
for m in m1 m2 m3 m4 m5 m6; do
  grep -q "delivered from=7 to=42 body=$m" "$WORK/crashed.log" \
    || fail "message $m was never delivered at the crashed server"
done

echo "PASS: crash + recovery converged byte-identically to the control"
grep '^digest=' "$WORK/crashed.digest" | sed 's/^/  /'
