#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper-cold-10x --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and everything the run writes stay under
# .bench_build at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
