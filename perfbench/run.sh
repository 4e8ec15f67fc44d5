#!/usr/bin/env bash
# Builds authdex and the benchmark from the sources of the checkout this
# script lives in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload skewed --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays in .bench_build/ at the
# root of the checkout, the Go build cache included.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (the default in a fresh config directory) every go
# command may start a detached upload process that outlives this script;
# "go telemetry off" is the one go command that starts none.
go telemetry off
go build -o "$out/bin/authdex" ./cmd/authdex
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
