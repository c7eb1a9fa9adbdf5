#!/usr/bin/env bash
# Builds the workload benchmark from the sources of the enclosing checkout
# and runs it with the given arguments, for example:
#
#	bash bench/run.sh --workload cold-b --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. The Go build cache, the binary and every
# temporary file the benchmark writes stay under .bench_build/ there.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
export TMPDIR="$out/tmp"

(cd "$root/bench" && go build -o "$out/dummyfill-bench" .)
cd "$root"
exec "$out/dummyfill-bench" "$@"
