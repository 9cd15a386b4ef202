#!/usr/bin/env bash
# Concurrent-serve end-to-end test: one `pfrdtn serve --workers 4`
# versus 100+ simultaneous clients — honest pushers, violation-class
# chaos peers, and a slow-loris — over real TCP. The test passes iff
#   1. every honest push lands: all N unique messages are applied and
#      reported by the server, none lost to the concurrency,
#   2. chaos peers are quarantined (structured strike lines, and an
#      accept-time refusal for an immediate reconnect) while honest
#      traffic keeps flowing,
#   3. the slow-loris is cut by the event-loop session deadline,
#   4. two pull clients sharing a replica id converge to byte-identical
#      state digests afterwards,
#   5. SIGTERM drains gracefully: bounded by --drain-ms even with a
#      trickler in flight, exit status 0, state-dir lock released.
# Helpers come from tools/e2e_lib.sh.
#
# Usage: concurrent_e2e.sh /path/to/pfrdtn [num_honest_clients]
set -u

CLI="${1:?usage: concurrent_e2e.sh /path/to/pfrdtn [clients]}"
CLIENTS="${2:-104}"
source "$(dirname "$0")/e2e_lib.sh"

PORT_FILE="$WORK/server.port"

# Quarantine windows are tiny because every client shares 127.0.0.1:
# a chaos strike must not lock honest pushers out for long (they retry
# through it). The 2s session deadline is what cuts the slow-loris.
start_server server --addr 42 --state-dir "$WORK/server" --workers 4 \
  --drain-ms 500 --session-deadline-ms 2000 --io-timeout-ms 5000 \
  --quarantine-base-ms 100 --quarantine-max-ms 300 ||
  fail "server did not start"

# One honest push, retried through transient refusals (a chaos strike
# quarantines the shared client IP for up to 300ms at a time).
push_client() {
  local i="$1"
  for _ in $(seq 1 60); do
    if "$CLI" sync-with --host 127.0.0.1 --port-file "$PORT_FILE" \
         --addr "$((500 + i))" --id "$((100 + i))" --mode push \
         --send "42=msg_$i" --timeout-ms 8000 --retries 3 \
         >> "$WORK/push_$i.log" 2>&1; then
      return 0
    fi
    sleep 0.15
  done
  return 1
}

# byte_trickle LOG: a slow-loris probe the session deadline has to cut.
byte_trickle() {
  "$CLI" chaos --port-file "$PORT_FILE" --attack byte-trickle \
    --trickle-delay-ms 100 --timeout-ms 8000 >> "$WORK/$1.log" 2>&1
}

# ---- 1. the storm: honest pushers + chaos, all at once --------------
PUSH_PIDS=()
for i in $(seq 1 "$CLIENTS"); do
  push_client "$i" &
  PUSH_PIDS+=("$!")
done

# Chaos fires mid-storm: protocol violations (strikes + an immediate
# reconnect that must be refused at accept) and a mid-batch closer.
"$CLI" chaos --port-file "$PORT_FILE" --attack bad-magic \
  --attack bad-magic --attack oversize-request \
  --attack close-mid-batch --timeout-ms 8000 \
  > "$WORK/chaos.log" 2>&1 || fail "chaos sweep did not run"

# The slow-loris joins the storm only once the violators' quarantine
# windows are over. Every client shares the quarantine key 127.0.0.1,
# so a trickler dialing inside a window would be refused at accept and
# never reach the session deadline. Each strike is recorded before the
# server closes on its attacker, so all of them predate the chaos
# client's exit, and no window outlasts --quarantine-max-ms 300.
sleep 0.4
byte_trickle chaos_trickle &
TRICKLE_PID=$!

PUSH_FAILURES=0
for pid in "${PUSH_PIDS[@]}"; do
  wait "$pid" || PUSH_FAILURES=$((PUSH_FAILURES + 1))
done
wait "$TRICKLE_PID" || fail "slow-loris probe did not run"
kill -0 "$SERVER_PID" 2> /dev/null || fail "server died during the storm"
[ "$PUSH_FAILURES" -eq 0 ] ||
  fail "$PUSH_FAILURES of $CLIENTS honest pushes never succeeded"

# ---- 2. nothing lost: every message is on the server ----------------
for i in $(seq 1 "$CLIENTS"); do
  wait_for_log server "body=msg_$i" || fail "message msg_$i never applied"
done

# ---- 3. containment is visible in the logs --------------------------
grep -q "quarantined strikes=" "$WORK/server.log" ||
  fail "no quarantine strike was logged"
grep -q "reject \[" "$WORK/server.log" ||
  fail "quarantined reconnect was not refused at accept time"
grep -q "session deadline exceeded" "$WORK/server.log" ||
  fail "slow-loris was not cut by the session deadline"
# The trickler never finishes its Hello, so its session has no peer.
grep -q "peer=none transport_failed: .*session deadline exceeded" \
  "$WORK/server.log" || fail "slow-loris session was not logged as peer=none"
! grep -q "peer=18446744073709551615" "$WORK/server.log" ||
  fail "a session without a Hello was logged with the unset replica id"

# ---- 4. convergence: same-id pullers get byte-identical state -------
sleep 0.4  # outlast the last quarantine window
for puller in puller_a puller_b; do
  ok=""
  for _ in $(seq 1 40); do
    if sync server "$puller" --addr 42 --id 9 --mode pull \
         --timeout-ms 8000; then
      ok=1
      break
    fi
    sleep 0.15
  done
  [ -n "$ok" ] || fail "pull client $puller never synced"
done
same_digest puller_a puller_b "same-id pullers diverged"

# ---- 5. graceful drain under load, bounded by --drain-ms ------------
byte_trickle chaos_trickle &
DRAIN_TRICKLE_PID=$!
sleep 0.3  # let the trickler be adopted so the drain has work to bound
DRAIN_START="$(date +%s)"
stop_server
SERVER_RC=$?
DRAIN_SECONDS=$(($(date +%s) - DRAIN_START))
wait "$DRAIN_TRICKLE_PID" 2> /dev/null

[ "$SERVER_RC" -eq 0 ] || fail "SIGTERM exit status was $SERVER_RC"
grep -q "draining:" "$WORK/server.log" || fail "no drain log line"
[ "$DRAIN_SECONDS" -le 5 ] ||
  fail "drain took ${DRAIN_SECONDS}s; --drain-ms 500 did not bound it"
# The state-dir lock must be free again (state-digest takes it).
DIGEST_SERVER="$(digest_of server)"
[ -n "$DIGEST_SERVER" ] || fail "state-dir lock not released after drain"

echo "PASS: $CLIENTS concurrent honest pushes all landed through the" \
     "chaos storm, attackers were quarantined, same-id pullers" \
     "converged ($(digest_of puller_a)), and SIGTERM drained in" \
     "${DRAIN_SECONDS}s"
