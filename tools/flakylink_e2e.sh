#!/usr/bin/env bash
# Flaky-contact end-to-end test, the tentpole proof for the retrying
# contact discipline:
#   1. pushes through a link that faults on BOTH sides (seeded cuts /
#      resets on the server, cuts / stalls / truncates on the clients)
#      must converge: every client exits 0 within its --retry-max, the
#      re-dials are visible in the logs, the server injected real
#      faults, NO honest peer was ever quarantined, and the final state
#      digest is byte-identical to a control server that never saw a
#      fault — exactly-once delivery through an unreliable contact;
#   2. overload shedding: with --max-concurrent-sessions 1 and the one
#      slot held by a byte-trickling peer, a concurrent push is refused
#      with the structured transient Busy error (exit 3, no strike);
#      with retries enabled the same push waits the occupant out and
#      lands — shed, then recover.
# Helpers come from tools/e2e_lib.sh; server stderr lands in NAME.err.
#
# Usage: flakylink_e2e.sh /path/to/pfrdtn
set -u

CLI="${1:?usage: flakylink_e2e.sh /path/to/pfrdtn}"
source "$(dirname "$0")/e2e_lib.sh"
SERVER_STDERR=err

# serve NAME EXTRA...: serves address 42 until SIGTERM.
serve() {
  start_server "$1" --state-dir "$WORK/$1" --addr 42 --drain-ms 2000 \
    "${@:2}"
}

# --- 1. convergence through a flaky link -----------------------------

# The server cuts or resets roughly half its accepted connections at a
# byte offset small enough to land inside every session; each client
# additionally cuts / stalls / truncates its own side. Only the
# retrying contact discipline gets a push through this.
serve flaky --link-fault-rate 0.5 --link-fault-seed 3 \
  --link-fault-max-bytes 150 \
  || fail "flaky server failed to start"

for i in $(seq 1 6); do
  sync flaky "client$i" --addr $((100 + i)) --id $((100 + i)) \
    --mode push --send "42=flaky-msg-$i" \
    --link-fault-rate 0.35 --link-fault-seed $((200 + i)) \
    --link-fault-max-bytes 150 \
    --retry-max 25 --retry-base-ms 5 --timeout-ms 4000 \
    || fail "client $i did not converge through the flaky link (exit $?)"
done

grep -q "retrying in" "$WORK"/client*.log \
  || fail "no client ever re-dialed: the fault mix never bit"
grep -q "quarantined" "$WORK/flaky.err" \
  && fail "an honest client earned a quarantine strike from link faults"

stop_server || fail "flaky server did not drain clean on SIGTERM"
INJECTED="$(sed -n 's/.*link_faults_injected=\([0-9]*\).*/\1/p' \
  "$WORK/flaky.log" | tail -1)"
[ -n "$INJECTED" ] || fail "no flaky-link summary line on the server"
[ "$INJECTED" -ge 1 ] \
  || fail "the server never actually injected a link fault"

# The control never faults anywhere; the same clients re-push their
# durable state cleanly.
serve control || fail "control server failed to start"
for i in $(seq 1 6); do
  sync control "client$i" --addr $((100 + i)) --mode push \
    || fail "control push of client $i failed"
done
stop_server || fail "control server did not drain clean"

same_digest flaky control "retried pushes diverged from the fault-free control"

# --- 2. shed at the session cap, then recover ------------------------

serve shed --max-concurrent-sessions 1 --workers 2 \
  || fail "shedding server failed to start"

# A byte-trickling peer (a legal, non-violating slow client) occupies
# the only session slot for a few seconds.
"$CLI" chaos --host 127.0.0.1 --port-file "$WORK/shed.port" \
  --attack byte-trickle --trickle-delay-ms 100 --timeout-ms 8000 \
  > "$WORK/trickler.log" 2>&1 &
CHAOS_PID=$!
sleep 0.5

# Over the cap and not retrying: the structured transient Busy refusal,
# exit 3 — never a hang, never a deadline starve, never a strike.
rc=0
sync shed busyclient --addr 200 --id 200 --mode push \
  --send "42=shed-then-land" --retry-max 0 || rc=$?
[ "$rc" -eq 3 ] || fail "over-cap push exited $rc (want the refusal, 3)"
grep -q "refused: server refused session (busy)" "$WORK/busyclient.log" \
  || fail "the refusal was not the structured busy error"
grep -q "shed \[" "$WORK/shed.err" \
  || fail "no shed line on the server's stderr"

# Same client, retries on: the backoff loop waits the trickler out and
# the push lands.
sync shed busyclient --addr 200 --mode push \
  --retry-max 30 --retry-base-ms 50 \
  || fail "retrying push never landed after the slot freed (exit $?)"
wait "$CHAOS_PID" 2> /dev/null
CHAOS_PID=""

grep -q "quarantined" "$WORK/shed.err" \
  && fail "shedding or trickling earned a quarantine strike"

stop_server || fail "shedding server did not drain clean"
SHED="$(sed -n 's/.*shed=\([0-9]*\).*/\1/p' "$WORK/shed.log" | tail -1)"
[ -n "$SHED" ] && [ "$SHED" -ge 1 ] \
  || fail "the server's summary does not count the shed connection"

# The recovered push really landed: the drained state holds the item.
[ -n "$(digest_of shed)" ] \
  || fail "no digest line for the shedding server"

echo "PASS: retried pushes converged byte-identically through a" \
  "two-sided flaky link ($INJECTED server faults injected, no honest" \
  "quarantine), and the session cap shed with Busy then recovered"
grep '^digest=' "$WORK/flaky.digest" | sed 's/^/  /'
