#!/usr/bin/env bash
# dist_smoke.sh — end-to-end chaos check for distributed runs (PR 10).
# The coordinator/worker protocol's whole promise is that distribution
# and failure cost time, never bits: leases expire and are reissued when
# workers die, the coordinator journals everything and resumes its own
# crashes, and the final reduction replays the journal in index order.
# This script exercises that promise the way production would:
#
#   1. reference run: fig9 + desflood + kwalk (a sweep spec off the
#      searchSeries path) + attack (a build-only spec) at smoke scale,
#      local, uninterrupted
#   2. distributed run: one coordinator, three workers over TCP
#   3. SIGKILL one worker mid-run (its lease must be stolen)
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
RUN="$WORK/run"
mkdir -p "$REF" "$RUN"

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

PORT="$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()')"
ADDR="127.0.0.1:$PORT"

echo ">>> coordinator + 3 workers on $ADDR" >&2
"$BIN" "${COMMON[@]}" "${DIST[@]}" -outdir "$RUN" \
  -mode coordinator -coord-addr "$ADDR" >"$WORK/coord1.log" 2>&1 &
COORD=$!
PIDS+=("$COORD")
WORKERS=()
for i in 1 2 3; do
  "$BIN" -mode worker -coord-addr "$ADDR" >"$WORK/worker$i.log" 2>&1 &
  WORKERS+=("$!")
  PIDS+=("$!")
done

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
    -mode coordinator -coord-addr "$ADDR" -resume >"$WORK/coord2.log" 2>&1
else
  echo ">>> coordinator finished before the kill; checking the uninterrupted distributed run" >&2
  wait "$COORD" 2>/dev/null || true
fi

# The session-ending coordinator dismisses the fleet; give the surviving
# workers a moment to exit on the shutdown message.
for _ in $(seq 1 50); do
  ALIVE=0
  for w in "${WORKERS[@]:1}"; do
    kill -0 "$w" 2>/dev/null && ALIVE=1
  done
  [ "$ALIVE" -eq 0 ] && break
  sleep 0.2
done

echo ">>> comparing CSVs" >&2
FAIL=0
CHECKED=0
for ref in "$REF"/*.csv; do
  base="$(basename "$ref")"
  if ! cmp -s "$ref" "$RUN/$base"; then
    echo "FAIL: $base differs between local and distributed runs" >&2
    FAIL=1
  fi
  CHECKED=$((CHECKED + 1))
done
if [ "$CHECKED" -eq 0 ]; then
  echo "FAIL: reference run produced no CSVs" >&2
  FAIL=1
fi

# A settled distributed session must tidy up like a local one: journals
# are deleted after full success and atomic writes never leave .tmp-*.
LEFTOVERS="$(find "$RUN" -name '*.journal' -o -name '*.tmp-*' | head -5)"
if [ -n "$LEFTOVERS" ]; then
  echo "FAIL: leftovers after distributed run:" >&2
  echo "$LEFTOVERS" >&2
  FAIL=1
fi

if [ "$FAIL" -ne 0 ]; then
  echo "--- coord1.log ---" >&2; tail -20 "$WORK/coord1.log" >&2 || true
  echo "--- coord2.log ---" >&2; tail -20 "$WORK/coord2.log" >&2 || true
  exit 1
fi
echo "OK: $CHECKED CSVs byte-identical after worker SIGKILL + coordinator kill/resume, no leftovers" >&2
