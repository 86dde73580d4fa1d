#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the build and the run write
# (Go build cache, link temporaries, the binary, WAL directories, traces)
# stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
# GOTOOLCHAIN/GOPROXY: never reach for the network; the module has no
# dependencies outside this checkout.
(cd "$here" && GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-buildvcs=false go build -o "$out/uniqopt-bench" .)
cd "$root"
exec "$out/uniqopt-bench" "$@"
