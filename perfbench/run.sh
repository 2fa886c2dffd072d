#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload d1-serve --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
