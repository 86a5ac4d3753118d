#!/usr/bin/env bash
# run.sh builds the repository benchmark from source and runs it. Run it
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload search-sweep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the go command's own state (GOPATH,
# its config directory, where it keeps telemetry counters) live under
# .bench_build/ in the checkout, so a run writes nothing outside it.
# Outside a full checkout (no module at the root) the build fails and the
# script exits nonzero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
