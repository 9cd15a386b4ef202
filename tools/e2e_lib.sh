# Shared helpers for the tools/*_e2e.sh scripts. Source it after
# setting CLI to the pfrdtn binary under test:
#
#   CLI="${1:?usage: name_e2e.sh /path/to/pfrdtn}"
#   source "$(dirname "$0")/e2e_lib.sh"
#
# It creates WORK, a scratch directory removed on exit. Every file a
# helper writes is named after a server or client NAME inside it:
# NAME.port, NAME.log (stdout, and stderr unless a script sets
# SERVER_STDERR to another suffix, e.g. err for NAME.err), NAME.digest
# and the state directory NAME itself.

WORK="$(mktemp -d)"
SERVER_PID=""
CHAOS_PID=""
SERVER_STDERR=log

# Kill whatever is still running and remove WORK.
cleanup() {
  local pid
  for pid in $SERVER_PID $CHAOS_PID; do
    kill "$pid" 2> /dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

# fail MESSAGE: report, dump every log, exit 1.
fail() {
  echo "FAIL: $*" >&2
  local log
  for log in "$WORK"/*.log "$WORK"/*.err; do
    [ -e "$log" ] || continue
    echo "--- $log ---" >&2
    cat "$log" >&2 || true
  done
  exit 1
}

# start_server NAME SERVE_ARGS...: `pfrdtn serve --port 0` in the
# background (SERVER_PID), publishing its port in WORK/NAME.port.
# Returns once the port is published; non-zero if the server exited or
# never published it.
start_server() {
  local name="$1"
  shift
  rm -f "$WORK/$name.port"
  "$CLI" serve --port 0 --port-file "$WORK/$name.port" "$@" \
    >> "$WORK/$name.log" 2>> "$WORK/$name.$SERVER_STDERR" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$WORK/$name.port" ] && return 0
    kill -0 "$SERVER_PID" 2> /dev/null || return 1
    sleep 0.05
  done
  return 1
}

# stop_server: SIGTERM the server (a graceful drain) and return its
# exit status.
stop_server() {
  kill -TERM "$SERVER_PID" 2> /dev/null
  wait_server
}

# wait_server: wait for a server that exits on its own (--max-sessions,
# --kill-after-records) and return its exit status.
wait_server() {
  local rc=0
  wait "$SERVER_PID" || rc=$?
  SERVER_PID=""
  return $rc
}

# sync SERVER CLIENT SYNC_ARGS...: `pfrdtn sync-with` against SERVER's
# published port, with state directory WORK/CLIENT, logging to
# WORK/CLIENT.log. Returns the client's exit status.
sync() {
  local name="$1" client="$2"
  shift 2
  "$CLI" sync-with --host 127.0.0.1 --port-file "$WORK/$name.port" \
    --state-dir "$WORK/$client" "$@" >> "$WORK/$client.log" 2>&1
}

# wait_for_log NAME PATTERN: poll WORK/NAME.log (up to 5 s) until it
# matches. A client returns as soon as ITS side of a sync is done, so
# this is how a script knows the server finished a session.
wait_for_log() {
  for _ in $(seq 1 100); do
    grep -q "$2" "$WORK/$1.log" && return 0
    sleep 0.05
  done
  return 1
}

# digest_of NAME: print the digest=... line of state directory
# WORK/NAME; the full state-digest report lands in WORK/NAME.digest.
digest_of() {
  "$CLI" state-digest --state-dir "$WORK/$1" > "$WORK/$1.digest" \
    2>> "$WORK/$1.$SERVER_STDERR"
  grep -o '^digest=[0-9a-f]*' "$WORK/$1.digest"
}

# same_digest A B MESSAGE: state directories WORK/A and WORK/B must hold
# byte-identical replicas; on a mismatch both reports are dumped and
# the test fails with MESSAGE.
same_digest() {
  local a b
  a="$(digest_of "$1")"
  b="$(digest_of "$2")"
  [ -n "$a" ] && [ "$a" = "$b" ] && return 0
  echo "--- $1 ---" >&2; cat "$WORK/$1.digest" >&2
  echo "--- $2 ---" >&2; cat "$WORK/$2.digest" >&2
  fail "$3"
}

# expect_caught BUG CHECK_ARGS...: `pfrdtn check CHECK_ARGS --inject-bug
# BUG` must catch the planted bug — exit 1 with an invariant violation
# and a replay line — reproduce its report byte-identically, and shrink
# it to at most 20 events. The report lands in WORK/BUG.report.
expect_caught() {
  local bug="$1"
  shift
  local report="$WORK/$bug.report" rc=0
  "$CLI" check "$@" --inject-bug "$bug" --log > "$report" || rc=$?
  [ "$rc" -eq 1 ] || fail "--inject-bug $bug was not caught (exit $rc)"
  "$CLI" check "$@" --inject-bug "$bug" --log > "$report.again" || true
  cmp -s "$report" "$report.again" ||
    fail "--inject-bug $bug did not reproduce byte-identically"
  grep -q "INVARIANT VIOLATION" "$report" ||
    fail "--inject-bug $bug: no invariant violation reported"
  grep -q "^replay: pfrdtn check .*--inject-bug $bug" "$report" ||
    fail "--inject-bug $bug: no replay line"
  local events
  events="$(sed -n 's/.*shrunk to \([0-9]*\) event(s).*/\1/p' "$report")"
  [ -n "$events" ] && [ "$events" -le 20 ] ||
    fail "--inject-bug $bug: shrunk schedule too large: '$events' events"
  echo "caught --inject-bug $bug, shrunk to $events event(s)"
}
