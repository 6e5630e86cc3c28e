#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build writes (compiler cache, binary) stays in
# .bench_build at the root of the checkout.  See bench/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
