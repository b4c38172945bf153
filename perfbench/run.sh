#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload abrd-steady --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, Go cache and output
# file stays under .bench_build/ in the current directory, and the Go
# toolchain is never allowed to download anything.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/perfbench" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$bench_dir" && go build -o "$out/perfbench/perfbench" .)

commit=$(git --git-dir="$root/.git" rev-parse --short HEAD 2>/dev/null || echo unknown)
PERFBENCH_COMMIT="$commit" exec "$out/perfbench/perfbench" "$@"
