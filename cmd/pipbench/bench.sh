#!/usr/bin/env bash
# Builds pipbench into .bench_build/ under the current directory, which
# must be the repository root, and runs it with the given arguments.
# pipbench in turn builds ./cmd/patchitpy into the same directory. The Go
# build cache, temporary files and the benchmark's generated inputs all
# stay under .bench_build/, so a run writes nothing outside the checkout.
#
#   bash cmd/pipbench/bench.sh --workload editor-cold --seed 1 --seconds 20 --trace 0
#   bash cmd/pipbench/bench.sh run -seed 1 -out run.json
#   bash cmd/pipbench/bench.sh compare a1.json a2.json -- b1.json b2.json
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-mod=readonly GOPROXY=off

go -C cmd/pipbench build -o "$out/pipbench" .
exec "$out/pipbench" -dir "$out" "$@"
