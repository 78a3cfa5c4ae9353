#!/usr/bin/env bash
# Builds dehealthd, dehealth-router and the benchmark from the tree under
# test, then runs one benchmark workload. Run from the repository root:
#
#   bash bench/run.sh --workload forum-serve --seed 1 --seconds 20 --trace 0
#
# Everything it writes (build cache, binaries, run files, traces) stays in
# .bench_build/ under the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOENV=off GOWORK=off

go build -o "$out/bin/" ./cmd/dehealthd ./cmd/dehealth-router >&2
(cd bench && go build -o "$out/bin/dehealthbench" .) >&2
exec "$out/bin/dehealthbench" "$@"
