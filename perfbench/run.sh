#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload round-dock5 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the toolchain writes (build
# cache, temporary files, binary, config) stays under .bench_build/ in the
# current directory, and the benchmark writes its artifacts under
# .bench_out/.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/perfbench" build -trimpath -o "$build/perfbench" .
exec "$build/perfbench" "$@"
