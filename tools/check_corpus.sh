#!/usr/bin/env bash
# One fixed-seed check-harness corpus (the slow ctest tier): run
# `pfrdtn check FLAGS... --log` and require that
#   1. every run passes its invariants (exit 0), and
#   2. the sha256 of the whole log equals the pinned DIGEST.
# The log is bit-deterministic and identical across build types, so a
# digest change means the harness's schedule or a sync's outcome moved.
# A change that moves it on purpose updates the digest in
# tools/CMakeLists.txt and says why, as wire goldens are updated.
#
# Usage: check_corpus.sh /path/to/pfrdtn DIGEST FLAGS...
set -uo pipefail

CLI="${1:?usage: check_corpus.sh /path/to/pfrdtn DIGEST FLAGS...}"
WANT="${2:?usage: check_corpus.sh /path/to/pfrdtn DIGEST FLAGS...}"
shift 2

LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT

"$CLI" check "$@" --log > "$LOG"
rc=$?
GOT="$(sha256sum < "$LOG" | cut -d' ' -f1)"
if [ "$rc" -ne 0 ] || [ "$GOT" != "$WANT" ]; then
  tail -n 40 "$LOG"
  [ "$rc" -ne 0 ] && echo "FAIL: check exited $rc"
  [ "$GOT" != "$WANT" ] && echo "FAIL: corpus log digest changed"
  echo "pinned digest: $WANT"
  echo "actual digest: $GOT"
  echo "replay: pfrdtn check $* --log"
  exit 1
fi
tail -n 1 "$LOG"
echo "digest $GOT"
