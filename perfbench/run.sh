#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload kv-point-tcp --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything the build writes (the
# compiler cache, the module cache, the go command's own settings and the
# binary) stays under .bench_build, and the benchmark's scratch files (WAL
# directories, span dumps) under .bench_out.
set -euo pipefail

if [[ ! -f go.mod || ! -d perfbench ]]; then
	echo "perfbench: run from the checkout root (go.mod and perfbench/ not found)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
