#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every byte the
# build and the run write inside benchmark/out/ (git-ignored): the Go
# build cache and the binary in out/build/, results and span files in
# out/. Arguments are passed through:
#
#   bash benchmark/run.sh --workload warm-zipf --seed 1 --seconds 10 --trace 0
#
# `go run ./benchmark …` does the same with the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/benchmark/out/build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$build/restore-bench" ./benchmark
exec "$build/restore-bench" "$@"
