#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build output, the Go build cache and
# traced-run spans all stay under .bench_build/ in that root. The last
# line of standard output is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep every file the toolchain writes inside the checkout, and never
# reach for a network: the module has no dependencies outside it.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --spans "$out/spans" "$@"
