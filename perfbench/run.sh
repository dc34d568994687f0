#!/usr/bin/env bash
# Builds optspeedd and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload warm_mix --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache, the go command's own files and the
# benchmark's run directories all stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# With telemetry on, the go command starts a detached upload process
# that can outlive it; "go telemetry off" itself starts none.
go telemetry off
go build -o "$out/bin/optspeedd" ./cmd/optspeedd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -daemon "$out/bin/optspeedd" "$@"
