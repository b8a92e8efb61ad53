#!/usr/bin/env bash
# resume_smoke.sh — end-to-end crash/resume check for the experiment
# journal (PR 8). The strongest claim the journal makes is that a run
# killed with SIGKILL — no signal handler, no flush, no goodbye — resumes
# into byte-identical CSVs, even when the resumed process runs under a
# DIFFERENT parallelism budget (-workers). This script checks exactly that
# claim:
#
#   1. reference run: fig9 at smoke scale, uninterrupted
#   2. victim run: same spec into a fresh dir, SIGKILLed mid-flight
#   3. resume run: -resume under -workers 3 (the victim ran under 2)
#   4. every reference CSV must compare byte-identical, and the output
#      dir must hold no leftover journals or .tmp-* rename droppings
#
# If the victim finishes before the kill lands (fast machine), the kill
# is a no-op and the check degrades to "resume of a complete run is
# byte-identical" — still a real property, so the script proceeds.
#
# Usage: scripts/resume_smoke.sh [workdir]

set -euo pipefail
cd "$(dirname "$0")/.."

WORK="${1:-$(mktemp -d)}"
BIN="$WORK/experiments"
REF="$WORK/ref"
RUN="$WORK/run"
mkdir -p "$REF" "$RUN"

COMMON=(-exp fig9 -scale smoke -seed 2007 -plot=false)

echo ">>> building cmd/experiments" >&2
go build -o "$BIN" ./cmd/experiments

echo ">>> reference run (uninterrupted)" >&2
"$BIN" "${COMMON[@]}" -outdir "$REF" >/dev/null

echo ">>> victim run (SIGKILL mid-flight)" >&2
"$BIN" "${COMMON[@]}" -outdir "$RUN" -workers 2 >/dev/null 2>&1 &
VICTIM=$!
sleep 3
if kill -9 "$VICTIM" 2>/dev/null; then
  echo ">>> killed pid $VICTIM" >&2
else
  echo ">>> victim finished before the kill; resuming a complete run instead" >&2
fi
wait "$VICTIM" 2>/dev/null || true

echo ">>> resume run (different parallelism budget)" >&2
"$BIN" "${COMMON[@]}" -outdir "$RUN" -resume -workers 3 >/dev/null

echo ">>> comparing CSVs" >&2
FAIL=0
CHECKED=0
for ref in "$REF"/*.csv; do
  base="$(basename "$ref")"
  if ! cmp -s "$ref" "$RUN/$base"; then
    echo "FAIL: $base differs after kill+resume" >&2
    FAIL=1
  fi
  CHECKED=$((CHECKED + 1))
done
if [ "$CHECKED" -eq 0 ]; then
  echo "FAIL: reference run produced no CSVs" >&2
  FAIL=1
fi

# A clean finish must tidy up: journals are deleted after a fully
# successful run, and atomic writes never leave .tmp-* behind.
LEFTOVERS="$(find "$RUN" -name '*.journal' -o -name '*.tmp-*' | head -5)"
if [ -n "$LEFTOVERS" ]; then
  echo "FAIL: leftovers after clean resume:" >&2
  echo "$LEFTOVERS" >&2
  FAIL=1
fi

if [ "$FAIL" -ne 0 ]; then
  exit 1
fi
echo "OK: $CHECKED CSVs byte-identical after SIGKILL + -resume, no leftovers" >&2
