#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness and the daemon from
# source into .bench_build/ (Go's build and module caches included, so nothing
# is written outside the checkout) and runs the harness with the given flags.
# With a warm cache both builds are no-ops.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/.." && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # go's env file and telemetry counters
export GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/d2cq-bench" . && go build -o "$build/d2cqd" d2cq/cmd/d2cqd) >&2
exec "$build/d2cq-bench" -d2cqd "$build/d2cqd" -out "$here/out" "$@"
