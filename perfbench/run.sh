#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root:
#
#	bash perfbench/run.sh --workload sim-grid --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache, the go command's own state and every
# file a run writes stay under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --work "$out" "$@"
