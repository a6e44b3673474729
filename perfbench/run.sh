#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload forward --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh -list
#
# Build output, the Go build cache and the daemons' temporary state
# directories all go under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -state-root "$out/state" "$@"
