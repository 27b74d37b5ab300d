#!/usr/bin/env bash
# Builds ratd and the benchmark from the checkout this is run in, then
# runs one benchmark run. Run from the repository root:
#
#   bash e2ebench/run.sh --workload predict-tail --seed 1 --seconds 45 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/ratd" ./cmd/ratd >&2
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -ratd "$out/ratd" -dir "$out" "$@"
