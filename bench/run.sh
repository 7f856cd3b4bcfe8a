#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from
# the repository root with the arguments given. Everything the build
# writes — cache, temp files, the go command's own config and module
# directories, the binary — stays inside the checkout.
#
#   bash bench/run.sh --workload query-read --seed 1 --seconds 8 --trace 0
#   bash bench/run.sh                 # suite: every workload, fresh process per repetition
#   bash bench/run.sh --trace 1       # suite, traced: the per-layer ledger
#   bash bench/run.sh -compare a.json b.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C bench -o "$build/veritas-bench" . >&2
exec "$build/veritas-bench" "$@"
