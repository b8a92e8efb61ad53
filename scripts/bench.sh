#!/usr/bin/env bash
# bench.sh — run the kernel-level benchmarks and emit a JSON snapshot of
# the performance trajectory (benchmark name -> ns/op, B/op, allocs/op).
#
# Usage:
#   scripts/bench.sh                 # writes BENCH_PR9.json
#   scripts/bench.sh out.json        # custom output path
#   BENCHTIME=2s scripts/bench.sh    # longer sampling (default 0.5s)
#
# Covered suites:
#   internal/xrand    power-law degree sampling: the exact math.Pow kernel
#                     vs the inverse-CDF threshold table (incl. the xl
#                     natural-cutoff regime)
#   internal/graph    Freeze cost, HasEdge row-scan-vs-CSR point probes, and
#                     the PR 9 estimators (pivot-sampled betweenness with
#                     stderr, landmark path stats)
#   internal/search   Reference (pre-CSR) vs Scratch (CSR) kernels,
#                     including the Scratch strategy kernels (0 allocs/op)
#                     and the FloodSweep single-vs-batch pair
#   internal/gen      CM/GRN build pairs: legacy mutable-Graph+Freeze vs
#                     direct-CSR (CSRBuilder), fresh and arena-pooled
#   internal/metrics  clustering coefficient, mutable-Graph probes vs CSR scan
#   internal/des      message-level DES flood/k-walk vs the CSR flood
#                     baseline on the same topology (0 allocs/op steady
#                     state)
#   internal/p2p      fault-injection overhead: raw InMemoryNetwork send
#                     vs the zero-fault FaultyNetwork fast path (must sit
#                     within noise) vs the full lossy draw path
#   .                 end-to-end search throughput + the three-stage
#                     (workers x source-shards x gen-workers) scheduler
#                     grid
#
# The Reference* benchmarks preserve the pre-CSR implementations in-tree
# (see internal/search/reference_test.go, internal/metrics/bench_test.go),
# so every future run re-measures the before/after gap on current
# hardware instead of trusting stale numbers.
#
# The snapshot records host metadata under "_host" (CPU count, GOMAXPROCS,
# go version, OS): 1-core container runs show flat scaling grids that are
# meaningless on multicore hardware, and the metadata is what lets a
# reader tell those snapshots apart.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR9.json}"
BENCHTIME="${BENCHTIME:-0.5s}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

run() { # run <pkg> <pattern>
  echo ">>> go test -bench '$2' -benchtime $BENCHTIME $1" >&2
  go test -run '^$' -bench "$2" -benchtime "$BENCHTIME" -benchmem "$1" | tee -a "$raw" >&2
}

run ./internal/xrand 'BenchmarkPowerLaw'
run ./internal/graph .
run ./internal/search .
run ./internal/metrics .
run ./internal/des .
run ./internal/p2p 'BenchmarkInMemorySend|BenchmarkFaultySend'
run . 'BenchmarkSearches|BenchmarkWorkersScaling|BenchmarkExtDES'

# The build pair runs a fixed iteration count instead of a time budget:
# a CM build is ~300 ms, so a time-based budget samples so few
# iterations that the arena variants' first-build warm-up (buffers grown
# once, reused forever after) dominates their average. Ten iterations
# per benchmark keeps the steady state visible.
BUILD_BENCHTIME="${BUILD_BENCHTIME:-10x}"
BENCHTIME="$BUILD_BENCHTIME" run ./internal/gen 'BenchmarkCMBuild|BenchmarkGRNBuild'

CPUS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
GOMAX="${GOMAXPROCS:-$CPUS}"
GOVER="$(go env GOVERSION)"
HOST_OS="$(uname -sr)"

awk -v cpus="$CPUS" -v gomax="$GOMAX" -v gover="$GOVER" -v hostos="$HOST_OS" -v benchtime="$BENCHTIME" -v buildbenchtime="$BUILD_BENCHTIME" '
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  ns = ""; bytes = ""; allocs = ""; snapshot = ""
  for (i = 2; i <= NF; i++) {
    if ($i == "ns/op")         ns       = $(i-1)
    if ($i == "B/op")          bytes    = $(i-1)
    if ($i == "allocs/op")     allocs   = $(i-1)
    if ($i == "snapshotB/op")  snapshot = $(i-1)
  }
  if (ns == "") next
  printf ",\n"
  printf "  %c%s%c: {%cns_op%c: %s", 34, name, 34, 34, 34, ns
  if (bytes    != "") printf ", %cB_op%c: %s", 34, 34, bytes
  if (allocs   != "") printf ", %callocs_op%c: %s", 34, 34, allocs
  if (snapshot != "") printf ", %csnapshot_B_op%c: %s", 34, 34, snapshot
  printf "}"
}
BEGIN {
  printf "{\n"
  printf "  %c_host%c: {%ccpus%c: %s, %cgomaxprocs%c: %s, %cgo%c: %c%s%c, %cos%c: %c%s%c, %cbenchtime%c: %c%s%c, %cbuild_benchtime%c: %c%s%c}", \
    34, 34, 34, 34, cpus, 34, 34, gomax, 34, 34, 34, gover, 34, 34, 34, 34, hostos, 34, 34, 34, 34, benchtime, 34, 34, 34, 34, buildbenchtime, 34
}
END   { printf "\n}\n" }
' "$raw" > "$OUT"

echo "wrote $OUT ($(grep -c ns_op "$OUT") benchmarks)" >&2
