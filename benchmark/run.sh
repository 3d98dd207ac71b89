#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: bash benchmark/run.sh --workload cold_sparse --seed 1
# --seconds 15 --trace 0. Everything Go writes (build cache, binary, the
# benchmark's write-ahead logs) stays under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/geodabs-benchmark" .)
cd "$root"
exec "$build/geodabs-benchmark" "$@"
