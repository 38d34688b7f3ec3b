#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the repository root (or anywhere: paths resolve from this file).
# Everything the build writes stays inside the checkout, under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$here" -o "$build/s2s-benchmark" .
cd "$root"
exec "$build/s2s-benchmark" "$@"
