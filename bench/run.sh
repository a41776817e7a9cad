#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload single_batch --seed 1 --seconds 10 --trace 0
#
# bench/ is a Go module of its own whose go.mod replaces module mps with
# the checkout around it. The binary, the Go build cache, the go
# command's user configuration and telemetry, and every temporary file
# stay under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
