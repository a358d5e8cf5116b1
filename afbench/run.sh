#!/usr/bin/env bash
# Builds the AutoFeat benchmark from the checkout's source and runs it.
# Run from the repository root:
#
#   bash afbench/run.sh --workload discover-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, the generated lakes and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/data"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOMODCACHE=$out/gomodcache

go -C "$root/afbench" build -o "$out/afbench" .
exec "$out/afbench" --data "$out/data" "$@"
