#!/usr/bin/env bash
# Hostile-peer end-to-end test: every chaos attack is fired at a live
# `pfrdtn serve` over real TCP. The test passes iff
#   1. the server survives the whole sweep (never crashes, never
#      wedges),
#   2. every violation-class attack earns a structured quarantine log
#      line and the attacker's immediate reconnect is refused at
#      accept time,
#   3. the byte-trickler is cut by the absolute session deadline (the
#      per-op timeout alone cannot stop it),
#   4. once the quarantine window lapses, an honest client syncs and
#      both the server's and the client's state digests are
#      byte-identical to a control pair that never saw an attack.
# lying-count-short — the one attack that applies an item before its
# lie is detectable — runs against a separate sacrificial server, so
# the digest comparison stays exact while the attack still proves
# containment + quarantine. Helpers come from tools/e2e_lib.sh.
#
# Usage: hostile_e2e.sh /path/to/pfrdtn
set -u

CLI="${1:?usage: hostile_e2e.sh /path/to/pfrdtn}"
source "$(dirname "$0")/e2e_lib.sh"

# Small quarantine windows keep the sweep fast; the 2s session deadline
# is what cuts byte-trickle; io-timeout stays high so the deadline (not
# the per-op timeout) is provably the cutter.
serve() {
  start_server "$1" --state-dir "$WORK/$1" --addr 42 \
    --session-deadline-ms 2000 --io-timeout-ms 5000 \
    --quarantine-base-ms 200 --quarantine-max-ms 1000
}

# Identical in the control and attacked runs, so the digests must come
# out identical.
HONEST=(--addr 7 --id 9 --mode encounter --send 42=first --send 42=second)

# ---- 1. control: the attack never happened --------------------------
serve control_server || fail "control server did not start"
sync control_server control_client "${HONEST[@]}" ||
  fail "control sync failed"
# The server is still applying the push when the client returns; its
# log proves the session (and every durable record) finished before
# the digest is taken.
wait_for_log control_server "body=second" ||
  fail "control server never finished the session"
stop_server

# ---- 2. the sweep: every attack against one live server -------------
serve attacked_server || fail "attacked server did not start"
PORT_FILE="$WORK/attacked_server.port"

for attack in $("$CLI" chaos --list); do
  [ "$attack" = "lying-count-short" ] && continue
  "$CLI" chaos --port-file "$PORT_FILE" --attack "$attack" \
    --trickle-delay-ms 100 --timeout-ms 8000 \
    >> "$WORK/chaos.log" 2>&1 || fail "chaos $attack did not run"
  kill -0 "$SERVER_PID" 2> /dev/null || fail "server died on $attack"
  # Let the quarantine window lapse so the NEXT attack reaches the
  # session layer instead of being refused at accept.
  sleep 1.2
done

# Violations must have produced structured quarantine decisions...
grep -q "quarantined strikes=" "$WORK/attacked_server.log" ||
  fail "no quarantine decision was logged"
# ...and the slow-loris must have died to the deadline, not a timeout.
grep -q "session deadline exceeded" "$WORK/attacked_server.log" ||
  fail "byte-trickle was not cut by the session deadline"

# ---- 3. quarantined reconnects are refused at accept ----------------
"$CLI" chaos --port-file "$PORT_FILE" --attack oversize-request \
  >> "$WORK/chaos.log" 2>&1
"$CLI" chaos --port-file "$PORT_FILE" --attack oversize-request \
  >> "$WORK/chaos.log" 2>&1
grep -q "reject \[" "$WORK/attacked_server.log" ||
  fail "quarantined reconnect was not refused at accept time"

# ---- 4. honest convergence after the storm --------------------------
sleep 1.2  # outlast the final quarantine window
sync attacked_server attacked_client "${HONEST[@]}" ||
  fail "honest sync after the sweep failed"
wait_for_log attacked_server "body=second" ||
  fail "attacked server never finished the honest session"
kill -0 "$SERVER_PID" 2> /dev/null || fail "server died before shutdown"
stop_server

same_digest attacked_server control_server \
  "attacked server digest diverged from control"
same_digest attacked_client control_client \
  "honest client digest diverged from control"

# ---- 5. lying-count-short: contained on a sacrificial server --------
serve sacrificial_server || fail "sacrificial server did not start"
"$CLI" chaos --port-file "$WORK/sacrificial_server.port" \
  --attack lying-count-short >> "$WORK/chaos.log" 2>&1
kill -0 "$SERVER_PID" 2> /dev/null ||
  fail "server died on lying-count-short"
sleep 0.2
grep -q "quarantined strikes=" "$WORK/sacrificial_server.log" ||
  fail "lying-count-short was not quarantined"
stop_server

echo "PASS: server survived $("$CLI" chaos --list | wc -l) attacks," \
     "quarantined the attacker, and converged an honest peer to the" \
     "attack-free digests"
