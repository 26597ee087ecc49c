#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload calls|suite|trapsync --seed 2019 --seconds 18 --trace 0|1
#
# Every build and run file stays under .bench_build in the current
# directory (or under $CARGO_TARGET_DIR when that is set): the Go build
# cache, the module cache, temporary files, the binary and the span files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/perfbench/gocache" "$build/perfbench/gopath" "$build/perfbench/tmp"

export GOCACHE="$build/perfbench/gocache"
export GOPATH="$build/perfbench/gopath"
export GOTMPDIR="$build/perfbench/tmp"
export TMPDIR="$build/perfbench/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go -C "$root/perfbench" build -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" --out "$build/perfbench/trace" "$@"
