#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (Go build cache, telemetry, the binary)
# stays under .bench_build/ so the run reads and writes only inside the
# checkout; arguments pass through to the binary unchanged.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
env GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
    go build -C "$root/bench" -o "$build/riscvsim-bench" .
exec "$build/riscvsim-bench" "$@"
