#!/usr/bin/env bash
# Builds the query daemon (cmd/reprod) and the perfbench program from the
# source tree this is run in, then runs perfbench with the given flags:
#
#   bash perfbench/run.sh --workload serve-stream --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output, the Go build
# cache included, stays under .bench_build in that root.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOENV=off
go build -C "$root" -o "$out/bin/reprod" ./cmd/reprod
go build -C "$here" -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$root" -reprod "$out/bin/reprod" "$@"
