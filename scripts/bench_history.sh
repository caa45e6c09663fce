#!/usr/bin/env bash
# Runs the benchmark suites whose results bench/history.jsonl tracks and
# appends one summary line per suite, e.g.
#
#   bash scripts/bench_history.sh                       # every suite, HEAD
#   bash scripts/bench_history.sh -c abc1234+trace kernel serve
#   bash scripts/bench_history.sh -o /path/to/history.jsonl kernelv2
#
# Suites: kernel, jobs, decode, kernelv2, serve, compile, delta, snapshot
# (default: all, in that order). Each runs the command bench/README.md gives for it.
#
#   -c LABEL  commit recorded on the lines (default: git rev-parse --short
#             HEAD; write <hash>+<name> for an uncommitted change)
#   -o FILE   history file to append to (default: bench/history.jsonl of
#             the checkout the script is run in)
#
# Run it from the repository root. Appending to another checkout's history
# with -o records a parent commit beside a change with identical commands.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/phocus-benchsum ]]; then
	echo "bench_history: run from the repository root" >&2
	exit 2
fi

commit=""
out="bench/history.jsonl"
while getopts "c:o:" opt; do
	case "$opt" in
	c) commit="$OPTARG" ;;
	o) out="$OPTARG" ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [[ -z "$commit" ]]; then
	commit="$(git rev-parse --short HEAD)"
fi
suites=("$@")
if [[ ${#suites[@]} -eq 0 ]]; then
	suites=(kernel jobs decode kernelv2 serve compile delta snapshot)
fi
date="$(date -u +%F)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/benchsum" ./cmd/phocus-benchsum

summarize() {
	"$tmp/benchsum" -suite "$1" -commit "$commit" -date "$date" >>"$out"
}

# kernelv2_medians runs BenchmarkKernelV2 in 8 rounds of one test binary
# and keeps, per benchmark, the nearest-rank median round, with the round
# count and the nearest-rank interquartile range of ns/op.
kernelv2_medians() {
	go test -c -o "$tmp/kv2.test" .
	for _ in $(seq 8); do
		"$tmp/kv2.test" -test.run '^$' -test.bench KernelV2 -test.benchtime=20x
	done | grep '^BenchmarkKernelV2/' | sort -k1,1 -k3,3n | awk '
		function flush() {
			if (!n) return
			m = int((n + 1) / 2); lo = int((n + 3) / 4); hi = int((3 * n + 3) / 4)
			printf "%s %s %s ns/op%s %d rounds %d iqr-ns/op\n", name, it[m], v[m], rest[m], n, v[hi] - v[lo]
		}
		$1 != name { flush(); name = $1; n = 0 }
		{ n++; it[n] = $2; v[n] = $3; rest[n] = ""; for (i = 5; i <= NF; i++) rest[n] = rest[n] " " $i }
		END { flush() }'
}

for suite in "${suites[@]}"; do
	echo "bench_history: $suite @ $commit" >&2
	case "$suite" in
	kernel)
		go test -json -bench 'EvaluatorGain|LazyGreedy|PreparedSweep' -benchtime=2s -run '^$' . | summarize kernel
		;;
	jobs)
		go test -json -bench JobsThroughput -benchtime=2s -run '^$' ./internal/jobs | summarize jobs
		;;
	decode)
		go test -json -bench ReadJSON -benchmem -benchtime=20x -run '^$' ./internal/par | summarize decode
		;;
	kernelv2)
		kernelv2_medians | summarize kernelv2
		;;
	serve)
		go test -json -bench SolveHandler -benchmem -benchtime=2s -run '^$' ./cmd/phocus-server | summarize serve
		;;
	compile)
		go test -json -bench FinalizeCompile -benchmem -benchtime=20x -run '^$' . | summarize compile
		;;
	delta)
		go test -json -bench DeltaVsColdPrepare -benchmem -benchtime=20x -run '^$' . | summarize delta
		;;
	snapshot)
		go test -json -bench SnapshotP100K -benchmem -benchtime=20x -run '^$' . | summarize snapshot
		;;
	*)
		echo "bench_history: unknown suite $suite (want kernel, jobs, decode, kernelv2, serve, compile, delta or snapshot)" >&2
		exit 2
		;;
	esac
done
