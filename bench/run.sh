#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload sim-smooth --seed 1 --seconds 10 --trace 0
#
# Every cache and output the build needs is kept under .bench_build/ in the
# checkout, and no module is fetched: the benchmark imports only the
# repository's own packages and the standard library.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go build -C "$root/bench" -o "$out/varload" .
exec "$out/varload" "$@"
