#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it with
# the given arguments (see perfbench/README.md). Run from the repository
# root:
#
#   bash perfbench/run.sh --workload exact-link --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, telemetry)
# and everything the benchmark writes (temp artifact stores, traces) stays
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

export CARGO_TARGET_DIR="$build"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
