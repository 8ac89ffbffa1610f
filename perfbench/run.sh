#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, module
# cache, settings, the binary) stays under .bench_build in the current
# directory, and the toolchain is kept offline.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build_dir="${PWD}/.bench_build"
mkdir -p "$build_dir/tmp"

export GOCACHE="$build_dir/gocache"
export GOTMPDIR="$build_dir/tmp"
export GOMODCACHE="$build_dir/gomodcache"
export XDG_CONFIG_HOME="$build_dir/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$bench_dir" && go build -o "$build_dir/perfbench" .)
exec "$build_dir/perfbench" "$@"
