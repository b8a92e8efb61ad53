#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with the
# given arguments. Everything the build and the run leave behind stays in
# the checkout: the go build cache and the binary under .bench_build/, the
# runs' scratch and traces under bench/out/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" .
exec "$build/bench" "$@"
