#!/usr/bin/env bash
# Builds koalad and the benchmark from the checkout's source, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload fig7-pra --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root: the Go build cache, the binaries,
# koalad's data directories and the traced run's span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"

# Keep the toolchain's caches and config inside the checkout, never
# fetch a module or toolchain, and keep the go command from starting a
# telemetry process that would outlive the run.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go telemetry off

go build -o "$out/bin/koalad" ./cmd/koalad
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -koalad "$out/bin/koalad" -workdir "$out" "$@"
