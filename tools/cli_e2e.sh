#!/usr/bin/env bash
# CLI surface test for `pfrdtn`: pins what every flag does, that every
# flag the help lists is accepted, and that malformed values are usage
# errors. The test passes iff
#   1. deterministic invocations — gen-mobility and gen-email with every
#      flag, `run` with every flag over the generated files, `check`
#      with each schedule flag plus a failing --inject-bug run and its
#      replay line, and state-digest of a pushed state directory —
#      print exactly the output recorded from a known-good build
#      (first 16 hex digits of its SHA-256);
#   2. `pfrdtn --help` lists exactly the (command, flag) pairs below,
#      and each pair is accepted by the parser;
#   3. malformed values (non-numbers, trailing junk, ports above 65535,
#      ints above INT_MAX, rates outside [0, 1]) exit 2 with "error:".
# Helpers come from tools/e2e_lib.sh.
#
# Usage: cli_e2e.sh /path/to/pfrdtn
set -u

CLI="$(realpath "${1:?usage: cli_e2e.sh /path/to/pfrdtn}")"
source "$(dirname "$0")/e2e_lib.sh"
# Relative paths keep the pinned outputs free of WORK's random name.
cd "$WORK" || exit 1

hash16() { sha256sum | cut -c1-16; }

# pin DIGEST ARGS...: `pfrdtn ARGS` must print output hashing to DIGEST.
pin() {
  local want="$1" got
  shift
  got="$("$CLI" "$@" 2>> cli.log | hash16)"
  [ "$got" = "$want" ] || fail "pfrdtn $* printed $got, want $want"
}

# pin_file DIGEST FILE: FILE's contents must hash to DIGEST.
pin_file() {
  local got
  got="$(hash16 < "$2")"
  [ "$got" = "$1" ] || fail "$2 hashes to $got, want $1"
}

# ---- 1. deterministic outputs ----------------------------------------
pin 8fbfe8ac52159ad0 gen-mobility --out mob.txt --days 3 --fleet 6 \
  --buses 4 --seed 9
pin_file 6f7ca2617de19deb mob.txt
pin c5d7b2829ec22597 gen-email --out mail.txt --users 8 --messages 20 \
  --seed 5
pin_file aa85a60e44fb901a mail.txt
pin 684934ea3c7746af run --scale 0.1 --policy maxprop \
  --param ack_flooding=1 --strategy selected --k 2 --bandwidth 5 \
  --storage 4 --seed 3 --mobility mob.txt --email mail.txt --csv out.csv
pin_file 28845527128e71be out.csv

CHECK=(check --seed 3 --runs 2 --steps 30 --log)
pin 639bbf0535c8db4e "${CHECK[@]}" --replicas 3
pin 905fa3fa2236c916 "${CHECK[@]}" --steps 40
pin 8f7264c5a6523d83 "${CHECK[@]}" --addresses 2
pin 4cfe8608a075f1a9 "${CHECK[@]}" --cut-rate 0.6
pin 2d9cd2e1b9a7ce69 "${CHECK[@]}" --cap-rate 0.5
pin df49469630df47db "${CHECK[@]}" --throttle-rate 0.5
pin bed62238789c7f04 "${CHECK[@]}" --filter-rate 0.2
pin d580688b9474548d "${CHECK[@]}" --discard-rate 0.2
pin ab9f5b1ed45ed6d9 "${CHECK[@]}" --storage 1
pin a5ed03f217bf6194 "${CHECK[@]}" --crash-rate 0.3
pin 0e153d9506d07ad4 "${CHECK[@]}" --adversary-rate 0.4
pin 7f73d4b4836f2213 "${CHECK[@]}" --quiesce 2
pin 579340137c3890d9 "${CHECK[@]}" --summary-rate 0.5
pin b7ec19e5c1b2a38f "${CHECK[@]}" --summary-rate 0.5 \
  --summary-collision-rate 0.5
pin d792b3669a59c96e "${CHECK[@]}" --disk-fault-rate 0.1 --crash-rate 0.3
pin 53077420ea33dfa9 "${CHECK[@]}" --retry-max 2 --cut-rate 0.6

# A failing run carrying every schedule flag: the replay hint re-quotes
# them, in command-line order.
SCHEDULE=(--replicas 3 --steps 40 --addresses 3 --cut-rate 0.5
          --cap-rate 0.3 --throttle-rate 0.2 --filter-rate 0.1
          --discard-rate 0.05 --storage 2 --crash-rate 0.1
          --adversary-rate 0.1 --quiesce 3 --summary-rate 0.2
          --summary-collision-rate 0.1 --disk-fault-rate 0.02
          --retry-max 1 --inject-bug learn-truncated)
pin fc64fbba40ec1abf check --replay 5 "${SCHEDULE[@]}" --shrink-budget 50 \
  --log
pin 50e71dfc71d82648 check --replay 5 "${SCHEDULE[@]}" --no-shrink
"$CLI" check --replay 5 "${SCHEDULE[@]}" > failing.out
grep -qx "replay: pfrdtn check ${SCHEDULE[*]} --replay 5" failing.out ||
  fail "the replay hint does not re-quote the schedule flags"

start_server server --state-dir "$WORK/server" --addr 42 --id 1 \
  --max-sessions 1 || fail "server did not start"
sync server client --addr 7 --id 2 --mode push --send 42=one \
  --send 42=two || fail "push failed"
wait_server || fail "server exited non-zero"
pin 7bf5b77f91341028 state-digest --state-dir server
pin 9c882c11f9b259f1 state-digest --state-dir client

# ---- 2. the flag surface ---------------------------------------------
FLAGS=(
  "gen-mobility --out --days --fleet --buses --seed"
  "gen-email --out --users --messages --seed"
  "run --policy --param --strategy --k --bandwidth --storage --seed
   --mobility --email --csv --scale"
  "serve --port --port-file --addr --id --max-sessions --bandwidth
   --workers --drain-ms --state-dir --kill-after-records
   --checkpoint-every-bytes --checkpoint-generations --disk-fault-rate
   --disk-fault-seed --disk-fault-after-bytes --io-timeout-ms
   --session-deadline-ms --quarantine-base-ms --quarantine-max-ms
   --max-concurrent-sessions --link-fault-rate --link-fault-seed
   --link-fault-max-bytes --max-request-bytes --max-item-bytes
   --max-batch-items --summary-mode"
  "sync-with --host --port --port-file --addr --send --mode --id
   --bandwidth --timeout-ms --state-dir --retries --retry-base-ms
   --retry-max --retry-budget-ms --link-fault-rate --link-fault-seed
   --link-fault-max-bytes --disk-fault-rate --disk-fault-seed
   --disk-fault-after-bytes --summary-mode"
  "chaos --host --port --port-file --attack --all --list
   --trickle-delay-ms --timeout-ms"
  "state-digest --state-dir"
  "check --seed --runs --replay --log --replicas --steps --addresses
   --cut-rate --cap-rate --throttle-rate --filter-rate --discard-rate
   --storage --crash-rate --adversary-rate --quiesce --summary-rate
   --summary-collision-rate --disk-fault-rate --retry-max --no-shrink
   --shrink-budget --inject-bug"
)

# A value each flag accepts.
value_for() {
  case "$1" in
    --log | --no-shrink | --all | --list) ;;
    *-rate) echo 0.5 ;;
    --summary-mode) echo auto ;;
    --mode) echo push ;;
    --strategy) echo self ;;
    --inject-bug) echo skip-fsync ;;
    --attack) echo bad-magic ;;
    --send) echo 42=x ;;
    --param) echo ttl=1 ;;
    --policy) echo epidemic ;;
    --host) echo 127.0.0.1 ;;
    --out | --mobility | --email | --csv | --port-file | --state-dir)
      echo unused ;;
    *) echo 1 ;;
  esac
}

# The help text's pairs: every flag token under each command's line.
"$CLI" --help > help.txt 2> help.err || fail "--help exited non-zero"
[ ! -s help.err ] || fail "--help wrote to stderr: $(head -1 help.err)"
awk '/^commands:/ { on = 1; next }
     on && /^$/ { on = 0 }
     on && /^  [a-z]/ { cmd = $1 }
     on { line = $0
          while (match(line, /--[a-z][a-z-]*/)) {
            print cmd, substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
          } }' help.txt | sort -u > help.pairs
for row in "${FLAGS[@]}"; do
  set -- $row
  cmd="$1"
  shift
  for flag; do
    echo "$cmd $flag"
    # Parsing stops at the first flag it rejects, so an error naming
    # the sentinel proves FLAG and its value were accepted. (A parser
    # may also act on --list at once and exit 0.)
    rc=0
    "$CLI" "$cmd" "$flag" $(value_for "$flag") --no-such-flag \
      > /dev/null 2> flag.err || rc=$?
    [ "$rc" -eq 0 ] || grep -q "unknown flag --no-such-flag" flag.err ||
      fail "$cmd rejects $flag: $(head -1 flag.err)"
  done
done | sort -u > want.pairs
diff want.pairs help.pairs > /dev/null ||
  fail "--help lists other (command, flag) pairs: $(diff want.pairs help.pairs)"

# ---- 3. malformed values are usage errors ----------------------------
# malformed ARGS...: `pfrdtn ARGS` must exit 2 with an error line.
malformed() {
  local rc=0
  "$CLI" "$@" > /dev/null 2> malformed.err || rc=$?
  [ "$rc" -eq 2 ] && grep -q "^error: " malformed.err ||
    fail "pfrdtn $* exited $rc, want a usage error (2)"
}
malformed gen-mobility --out bad.txt --days abc
malformed gen-mobility --out bad.txt --days 2x
malformed sync-with --port 70000 --addr 7 --retries 0
malformed chaos --port 1 --attack bad-magic --timeout-ms 2147483648
malformed check --runs 1 --steps 5 --cut-rate 1.5
malformed check --runs 1 --steps 5 --cut-rate -3
malformed run --scale 0.1x --mobility mob.txt --email mail.txt
malformed run --scale 0.1 --param ttl=abc --mobility mob.txt \
  --email mail.txt
malformed gen-email --out bad.txt --bogus
malformed gen-email --out

echo "PASS: pinned outputs, $(wc -l < help.pairs) accepted flags," \
  "malformed values refused"
