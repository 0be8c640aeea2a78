#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it from the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload table1-ilp --seed 1 --seconds 30 --trace 0
#
# The Go build cache and temporary files stay under .bench_build too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
