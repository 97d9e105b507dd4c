#!/bin/sh
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build/ in the checkout (nothing is written outside it: the Go build
# cache, module cache and temporary directory are all redirected there) and
# runs it with the arguments given.
#
#   sh bench/run.sh --workload pkt-hot --seed 1 --seconds 15 --trace 0
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/colibri-e2e" .
exec "$build/colibri-e2e" "$@"
