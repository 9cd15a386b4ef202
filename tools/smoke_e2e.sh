#!/usr/bin/env bash
# End-to-end smoke test: two OS processes replicate over TCP on
# localhost. A server replica subscribed to address 42 is started with
# `pfrdtn serve`; a client injects a message for 42 and pushes it with
# `pfrdtn sync-with`. The test passes iff the server process reports
# the delivery. Helpers come from tools/e2e_lib.sh.
#
# Usage: smoke_e2e.sh /path/to/pfrdtn
set -u

CLI="${1:?usage: smoke_e2e.sh /path/to/pfrdtn}"
source "$(dirname "$0")/e2e_lib.sh"

start_server server --addr 42 --id 1 --max-sessions 1 ||
  fail "server never wrote its port file"

"$CLI" sync-with --host 127.0.0.1 --port-file "$WORK/server.port" \
  --addr 7 --id 2 --send 42=hello-e2e --mode push \
  || fail "sync-with exited non-zero"

# --max-sessions 1 makes the server exit after serving us.
wait_server || fail "server exited non-zero"

grep -q "delivered from=7 to=42 body=hello-e2e" "$WORK/server.log" \
  || fail "server never reported the delivery"

echo "PASS: message replicated across processes over TCP"
