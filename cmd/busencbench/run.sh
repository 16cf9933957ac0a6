#!/usr/bin/env bash
# Builds busencbench from source and runs it against this checkout.
# Every file the build and the run write (Go build cache, temporary
# files, generated traces, daemon stores) stays under .bench_build/ at
# the repository root, and the Go toolchain is kept offline.
#
#   bash cmd/busencbench/run.sh --workload muxed-stream --seed 1 --seconds 22 --trace 0
#   bash cmd/busencbench/run.sh -out run.json          # every workload
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/cmd/busencbench" && go build -o "$out/bin/busencbench" .)
exec "$out/bin/busencbench" -root "$root" "$@"
