#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload sim --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache) and run outputs (span dumps,
# image files) stay under .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Everything the go command writes (build cache, module cache, its
# telemetry counters under the user config directory) stays in $out.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/dsiperf" .)
exec "$out/dsiperf" --out "$out" "$@"
