#!/usr/bin/env bash
# Storage-fault end-to-end test: a live server's disk fills mid-service
# (--disk-fault-after-bytes through the fault-injecting env) and the
# server must degrade to read-only rather than lie or die:
#   1. the degrade is announced with one structured stderr line;
#   2. pull syncs are still served while degraded;
#   3. push syncs are refused with a structured transient error (client
#      exit 3, "refused:"), never a protocol strike;
#   4. SIGTERM drains clean (exit 0) and the drain line says degraded=1;
#   5. a healthy restart recovers, the refused clients re-sync from
#      their own state dirs, and the final digest is byte-identical to
#      a control server that never saw a fault.
# Then checkpoint generations: corrupt the newest checkpoint of a
# multi-generation directory and state-digest must fall back one
# generation and report the identical digest. Helpers come from
# tools/e2e_lib.sh; server stderr lands in NAME.err.
#
# Usage: diskfault_e2e.sh /path/to/pfrdtn
set -u

CLI="${1:?usage: diskfault_e2e.sh /path/to/pfrdtn}"
source "$(dirname "$0")/e2e_lib.sh"
SERVER_STDERR=err

# serve NAME EXTRA...: serves address 42 until SIGTERM.
serve() {
  start_server "$1" --state-dir "$WORK/$1" --addr 42 --drain-ms 2000 \
    "${@:2}"
}

# --- 1. fill the disk under load ------------------------------------

# The byte budget admits the boot records plus a few pushed items, then
# every write returns ENOSPC. Payloads are sized so the budget is
# crossed within the first few sessions.
serve victim --disk-fault-after-bytes 900 \
  || fail "victim server failed to start"

PAYLOAD="abcdefghijklmnopqrstuvwxyz-0123456789-abcdefghijklmnopqrstuvwxyz"
# The session that is mid-apply when the budget runs out dies as a
# transport failure (the server ends it as a local fault, not a peer
# strike); every later push gets the polite up-front refusal. So the
# loop may see at most one exit-1 casualty, then only exit 3.
applied=0
refused=0
casualties=0
for i in $(seq 1 8); do
  rc=0
  sync victim "client$i" --addr $((100 + i)) --id $((100 + i)) \
    --mode push --send "42=msg-$i-$PAYLOAD" || rc=$?
  case "$rc" in
    0) applied=$((applied + 1)) ;;
    3) refused=$((refused + 1)) ;;
    1) casualties=$((casualties + 1)) ;;
    *) fail "push client $i exited $rc (want 0/1/3)" ;;
  esac
done
[ "$applied" -ge 1 ] || fail "no push was applied before the disk filled"
[ "$refused" -ge 1 ] || fail "no push was refused after the disk filled"
[ "$casualties" -le 1 ] \
  || fail "$casualties sessions died in flight (only the faulting one may)"

grep -q "degraded: now read-only op=" "$WORK/victim.err" \
  || fail "no structured degrade line on the victim's stderr"
grep -q "refused: peer refused sync" "$WORK"/client*.log \
  || fail "no client saw the structured read-only refusal"
grep -q "quarantined" "$WORK/victim.err" \
  && fail "a refused push earned a quarantine strike (must be transient)"

# --- 2. degraded != down: pulls are still served ---------------------

sync victim puller --addr 42 --id 900 --mode pull \
  || fail "pull from the degraded server failed (exit $?)"
grep -q "delivered from=" "$WORK/puller.log" \
  || fail "degraded server served a pull but delivered nothing"

# --- 3. clean drain, degraded recorded -------------------------------

stop_server || fail "degraded victim did not drain clean on SIGTERM"
grep -q "degraded=1" "$WORK/victim.log" \
  || fail "drain counters do not record degraded=1"

# --- 4. healthy restart: recover, re-sync, converge ------------------

serve victim || fail "victim failed to restart healthy"
grep -q "recovered replica" "$WORK/victim.log" \
  || fail "restarted victim did not recover from its state directory"
for i in $(seq 1 8); do
  sync victim "client$i" --addr $((100 + i)) --mode push \
    || fail "re-sync of client $i after restart failed"
done
stop_server || fail "healthy victim did not drain clean"
grep -q "degraded=0" <(tail -5 "$WORK/victim.log") \
  || fail "restarted victim still reports degraded"

serve control || fail "control server failed to start"
for i in $(seq 1 8); do
  sync control "client$i" --addr $((100 + i)) --mode push \
    || fail "control sync of client $i failed"
done
stop_server || fail "control server did not drain clean"

same_digest victim control "victim diverged from the never-faulted control"
grep -q "^degraded=0" "$WORK/victim.digest" \
  || fail "victim state directory still carries the degraded marker"

# --- 5. checkpoint generations: corrupt the newest, fall back --------

serve gen --checkpoint-every-bytes 64 --checkpoint-generations 3 \
  || fail "generation server failed to start"
sync gen genclient --addr 7 --id 7 --mode push \
  --send 42=g1 --send 42=g2 --send 42=g3 --send 42=g4 \
  || fail "generation push failed"
stop_server || fail "generation server did not drain clean"

# A copy of the directory keeps the pre-corruption state to compare to.
cp -r "$WORK/gen" "$WORK/gen_before"
[ -n "$(digest_of gen_before)" ] \
  || fail "state-digest failed for the generation directory"
NEWEST="$(sed -n 's/.*newest_epoch=\([0-9]*\).*/\1/p' \
  "$WORK/gen_before.digest")"
[ -n "$NEWEST" ] && [ "$NEWEST" -ge 2 ] \
  || fail "expected >= 2 checkpoint generations, newest=$NEWEST"

# Flip one byte in the newest checkpoint: the CRC must reject it and
# recovery must land on the previous generation with the same state.
printf '\xff' | dd of="$WORK/gen/checkpoint.$NEWEST.bin" bs=1 seek=8 \
  conv=notrunc 2> /dev/null || fail "could not corrupt the checkpoint"
same_digest gen gen_before "generation fallback changed the recovered state"
grep -q "fallback=1" "$WORK/gen.digest" \
  || fail "recovery did not report falling back a generation"

echo "PASS: degraded read-only under ENOSPC, refused pushes converged" \
  "after a healthy restart, generation fallback kept the digest"
grep '^digest=' "$WORK/victim.digest" | sed 's/^/  /'
