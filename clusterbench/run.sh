#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; arguments pass
# through. Run from the repository root:
#
#   bash clusterbench/run.sh --workload search_static --seed 1 --seconds 20 --trace 0
#
# The build's cache, temporary files and binary stay under .bench_build
# in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "clusterbench: $root is not a checkout of the repository (no go.mod or internal/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd clusterbench && go build -o "$out/clusterbench" .)
exec "$out/clusterbench" "$@"
