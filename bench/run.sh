#!/bin/sh
# Entry point for the benchmark driver (BENCHMARK.json's command), run from
# the root of a checkout. It builds the benchmark from source with Go's build
# cache inside the checkout, so nothing is read or written outside it, then
# hands its arguments to the binary. By hand, `go run ./bench` is the same
# program.
set -e
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false go build -o "$build/ibwan-bench" ./bench
exec "$build/ibwan-bench" "$@"
