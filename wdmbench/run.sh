#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given flags. Every build artefact, cache and data directory stays under
# .bench_build/ at the checkout root. Run from the checkout root:
#
#   bash wdmbench/run.sh --workload unicast-cycle --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/wdmbench" && go build -o "$build/wdmbench" .)
exec "$build/wdmbench" -workdir "$build" "$@"
