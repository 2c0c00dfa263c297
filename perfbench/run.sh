#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload sf120-control --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/: the Go build cache, the binary, and traced runs' spans.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/spans" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/spans" "$@"
