#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments. Run from the root of the checkout:
#
#	bash nabench/run.sh --workload pingpong-tcp --seed 1 --seconds 10 --trace 0
#
# Every build product (binary, Go build cache, temporary files) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOWORK=off

(cd "$root/nabench" && go build -o "$out/nabench" .)
exec "$out/nabench" -out "$out" "$@"
