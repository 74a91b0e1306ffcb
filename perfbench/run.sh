#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build
# artifact, temporary file and result inside the checkout's
# .bench_build directory.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 35 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
