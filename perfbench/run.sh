#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed on. Run from the repository root:
#
#   bash perfbench/run.sh --workload sec8-bursts --seed 2007 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout. Without the ttdiag sources next to this directory the build
# fails and the script exits non-zero.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/../.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
