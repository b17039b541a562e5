#!/usr/bin/env bash
# Builds the overlay benchmark from the source tree it sits in and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, WAL data
# directories and span files.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
