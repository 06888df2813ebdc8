#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, e.g.:
#
#   bash perfbench/run.sh --workload life-wear --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs (the binary and the Go
# build cache) stay under .bench_build in the repository.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"
if [[ ! -f "$bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
if ! command -v go > /dev/null && [[ -x /usr/local/go/bin/go ]]; then
	PATH="/usr/local/go/bin:$PATH"
fi
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off GOWORK=off
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
