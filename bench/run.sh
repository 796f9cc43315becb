#!/usr/bin/env bash
# Builds the benchmark program and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload paper-record --seed 3 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind (Go build cache, binaries,
# temporary directories, JSON output) goes under .bench_build/ in the current
# directory, so nothing outside the checkout is read or written beyond the
# Go toolchain itself.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/tmp" "$work/config"

export GOCACHE="$work/go-cache"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/config"
export GOPROXY=off
export GOTOOLCHAIN=local

go build -C "$root/bench" -o "$work/bin/bench" .
exec "$work/bin/bench" "$@"
