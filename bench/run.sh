#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the repository root:
#
#   bash bench/run.sh --workload query-hot --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and every scratch file live under
# .bench_build/ in the current directory, so a run reads and writes only
# inside the checkout. Without the repository next to bench/ the build
# fails and the script exits non-zero before printing anything.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd bench && go build -o "$out/quagbench" .)
exec "$out/quagbench" -workdir "$out/work" -spans "$out/spans" "$@"
