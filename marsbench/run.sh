#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash marsbench/run.sh --workload batch-k4 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# traced runs' span files go to .bench_build/ there.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Every file the Go toolchain writes, its telemetry counters included,
# stays under .bench_build.
export GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/marsbench" .)
exec "$out/marsbench" "$@"
