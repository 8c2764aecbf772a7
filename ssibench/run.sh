#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it. Run from the repository root:
#
#   bash ssibench/run.sh --workload kv-wire|dbt2|sibench --seed N --seconds S --trace 0|1
#
# Every file the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, temporary files, the
# binary, the engine's data directories and the span dumps.
set -euo pipefail
out="$(pwd)/.bench_build/ssibench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd ssibench && go build -o "$out/ssibench" .)
exec "$out/ssibench" -out "$out" "$@"
