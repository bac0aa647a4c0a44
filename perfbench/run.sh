#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it. Run
# from the repository root:
#
#   bash perfbench/run.sh --workload campus --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, span and result
# files. Build output goes to standard error, so the last line of
# standard output is always the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

mkdir -p "$build/bin"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
