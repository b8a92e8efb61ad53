#!/usr/bin/env bash
# dist_smoke.sh — end-to-end chaos check for distributed runs (PR 10).
# The coordinator/worker protocol's whole promise is that distribution
# and failure cost time, never bits: leases expire and are reissued when
# workers die, the coordinator journals everything and resumes its own
# crashes, and the final reduction replays the journal in index order.
# This script exercises that promise the way production would:
#
#   1. reference run: fig9 + desflood + kwalk (a sweep spec built on
#      sweepSeries directly, not searchBatch) + attack (a build-only spec) at smoke scale,
#      local, uninterrupted
#   2. clean distributed run: one coordinator, three workers over TCP,
#      nothing killed. Besides byte-identical CSVs, the coordinator's log
#      must report no bad record, no rejected completion and no given-up
#      realization: the final reduction recomputes whatever the fleet
#      failed to deliver, so without this check a transport that silently
#      drops records still "passes" — slower, with identical bytes.
#   3. chaos run: same fleet, SIGKILL one worker mid-run (its lease must
#      be stolen)
#   4. SIGKILL the coordinator mid-run, restart it with -resume
#   5. every reference CSV must compare byte-identical, and the output
#      dir must hold no leftover journals or .tmp-* rename droppings
#
# If the coordinator finishes before a kill lands (fast machine), that
# kill degrades to a no-op and the byte-identity check still runs — same
# convention as resume_smoke.sh.
#
# Usage: scripts/dist_smoke.sh [workdir]

set -euo pipefail
cd "$(dirname "$0")/.."

WORK="${1:-$(mktemp -d)}"
BIN="$WORK/experiments"
REF="$WORK/ref"
CLEAN="$WORK/clean"
RUN="$WORK/run"
mkdir -p "$REF" "$CLEAN" "$RUN"

COMMON=(-exp fig9,desflood,kwalk,attack -scale smoke -seed 2007 -plot=false)
DIST=(-lease-ttl 3s -heartbeat 500ms)

PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do
    kill "$p" 2>/dev/null || true
  done
}
trap cleanup EXIT

echo ">>> building cmd/experiments" >&2
go build -o "$BIN" ./cmd/experiments

echo ">>> reference run (local, uninterrupted)" >&2
"$BIN" "${COMMON[@]}" -outdir "$REF" >/dev/null

free_port() {
  python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()'
}

# start_fleet <outdir> <log tag>: one coordinator and three workers on a
# fresh port; sets ADDR, COORD and WORKERS.
start_fleet() {
  ADDR="127.0.0.1:$(free_port)"
  echo ">>> coordinator + 3 workers on $ADDR" >&2
  "$BIN" "${COMMON[@]}" "${DIST[@]}" -outdir "$1" \
    -mode coordinator -coord-addr "$ADDR" >"$WORK/$2-coord1.log" 2>&1 &
  COORD=$!
  PIDS+=("$COORD")
  WORKERS=()
  for i in 1 2 3; do
    "$BIN" -mode worker -coord-addr "$ADDR" >"$WORK/$2-worker$i.log" 2>&1 &
    WORKERS+=("$!")
    PIDS+=("$!")
  done
}

# The session-ending coordinator dismisses the fleet; give the workers a
# moment to exit on the shutdown message.
await_workers() {
  for _ in $(seq 1 50); do
    ALIVE=0
    for w in "$@"; do
      kill -0 "$w" 2>/dev/null && ALIVE=1
    done
    [ "$ALIVE" -eq 0 ] && break
    sleep 0.2
  done
}

FAIL=0
# check_outdir <outdir>: every reference CSV byte-identical, and — a
# settled distributed session must tidy up like a local one — no journal
# left after full success, no .tmp-* from an atomic write.
check_outdir() {
  CHECKED=0
  for ref in "$REF"/*.csv; do
    base="$(basename "$ref")"
    if ! cmp -s "$ref" "$1/$base"; then
      echo "FAIL: $base differs between the local run and $1" >&2
      FAIL=1
    fi
    CHECKED=$((CHECKED + 1))
  done
  if [ "$CHECKED" -eq 0 ]; then
    echo "FAIL: reference run produced no CSVs" >&2
    FAIL=1
  fi
  LEFTOVERS="$(find "$1" -name '*.journal' -o -name '*.tmp-*' | head -5)"
  if [ -n "$LEFTOVERS" ]; then
    echo "FAIL: leftovers after distributed run in $1:" >&2
    echo "$LEFTOVERS" >&2
    FAIL=1
  fi
}

echo ">>> clean distributed run (nothing killed)" >&2
start_fleet "$CLEAN" clean
if ! wait "$COORD"; then
  echo "FAIL: clean distributed run exited non-zero" >&2
  FAIL=1
fi
await_workers "${WORKERS[@]}"
check_outdir "$CLEAN"
if ! grep -q 'fleet settled' "$WORK/clean-coord1.log"; then
  echo "FAIL: clean run's coordinator log has no fleet summary" >&2
  FAIL=1
fi
if grep -E 'given up|bad record|rejected completion' "$WORK/clean-coord1.log" >&2; then
  echo "FAIL: the fleet lost records although nothing was killed (lines above)" >&2
  FAIL=1
fi

echo ">>> chaos run" >&2
start_fleet "$RUN" chaos

sleep 2
if kill -9 "${WORKERS[0]}" 2>/dev/null; then
  echo ">>> SIGKILLed worker pid ${WORKERS[0]} mid-run (lease must be stolen)" >&2
else
  echo ">>> first worker already gone before the kill" >&2
fi

sleep 3
if kill -9 "$COORD" 2>/dev/null; then
  echo ">>> SIGKILLed coordinator pid $COORD mid-run; restarting with -resume" >&2
  wait "$COORD" 2>/dev/null || true
  timeout 300 "$BIN" "${COMMON[@]}" "${DIST[@]}" -outdir "$RUN" \
    -mode coordinator -coord-addr "$ADDR" -resume >"$WORK/chaos-coord2.log" 2>&1
else
  echo ">>> coordinator finished before the kill; checking the uninterrupted distributed run" >&2
  wait "$COORD" 2>/dev/null || true
fi
await_workers "${WORKERS[@]:1}"

echo ">>> comparing CSVs" >&2
check_outdir "$RUN"

if [ "$FAIL" -ne 0 ]; then
  for log in clean-coord1 chaos-coord1 chaos-coord2; do
    echo "--- $log.log ---" >&2; tail -20 "$WORK/$log.log" >&2 || true
  done
  exit 1
fi
echo "OK: $CHECKED CSVs byte-identical after a clean fleet run (no record lost) and after worker SIGKILL + coordinator kill/resume, no leftovers" >&2
