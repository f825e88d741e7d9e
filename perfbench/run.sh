#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given flags, e.g.
#
#   bash perfbench/run.sh --workload fleet-durable --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and every
# file the run writes stay under .bench_build, .bench_state and .bench_out
# there.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$src" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
