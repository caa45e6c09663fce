#!/usr/bin/env bash
# Builds phocus-server and the benchmark program from the checkout this is run
# in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve_sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# runs' scratch files all stay under .bench_build/ in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/phocus-server || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/phocus-server and perfbench/)" >&2
	exit 2
fi
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$out/phocus-server" ./cmd/phocus-server
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --server "$out/phocus-server" --workdir "$out" "$@"
