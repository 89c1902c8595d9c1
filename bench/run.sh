#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload latency --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, temporary files and the toolchain's
# config directory (where it keeps telemetry counters) all go to
# .bench_build/ at the repository root, and nothing is downloaded: the
# bench module depends only on the repository itself. Without the
# repository around it (just bench/ and BENCHMARK.json) the build fails
# and so does this script.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
