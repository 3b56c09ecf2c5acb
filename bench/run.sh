#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the root of a checkout: bash bench/run.sh --workload stream_hd ...
# Everything the build leaves behind (binary, Go build cache, Go's own
# bookkeeping) goes under .bench_build/ in the current directory.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$src" && go build -o "$build/cloudfog-bench" .)
exec "$build/cloudfog-bench" "$@"
