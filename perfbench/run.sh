#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given, e.g.
#   bash perfbench/run.sh --workload serve-road --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
# (default .bench_build), the Go build cache included.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
