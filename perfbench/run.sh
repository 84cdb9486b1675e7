#!/usr/bin/env bash
# Builds the layered benchmark and the bvapd daemon from the checkout it is
# run in, then runs the benchmark with the given arguments.
#
#   bash perfbench/run.sh --workload snort-bulk --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes goes
# under .bench_build/perfbench, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" . >&2
go build -o "$out/bvapd" ./cmd/bvapd >&2
exec "$out/perfbench" -bvapd "$out/bvapd" -out "$out" "$@"
