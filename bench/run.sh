#!/usr/bin/env bash
# Builds ilanbench from source and runs it from the repository root with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload paper-solo --seed 2025 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files, the
# cache-replay workload's cache directories) stays under .bench_build/ in
# the repository root, and the toolchain is never allowed to download.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/bench" && go build -o "$out/ilanbench" ./ilanbench)
cd "$root"
exec "$out/ilanbench" "$@"
