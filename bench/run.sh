#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): builds the harness
# with everything the Go toolchain writes kept inside the checkout, then
# runs it. Arguments are passed through; see README.md beside this file.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
