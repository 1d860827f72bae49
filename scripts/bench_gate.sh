#!/bin/sh
# bench_gate.sh — allocation-regression gate for the fsnet hot path and
# the cluster forward path.
#
# Runs the fsnet and cluster benchmarks with -benchmem and diffs allocs/op against
# the committed BENCH_BASELINE.json via cmd/benchgate: a >20% allocs/op
# regression on any gated benchmark fails the script (ns/op is reported
# but never gated — CI wall time is noise). Refresh the baseline with
# `make bench-json` when a change moves the numbers on purpose.
#
# Usage: sh scripts/bench_gate.sh  (or: make bench-gate)
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}

{
  $GO test -run '^$' \
      -bench 'BenchmarkOpenLoopback$|BenchmarkOpenPipelined|BenchmarkOpenRoutedLocal' \
      -benchmem -benchtime 0.5s -count 1 ./internal/fsnet/
  $GO test -run '^$' -bench 'BenchmarkOpenForwarded' \
      -benchmem -benchtime 0.5s -count 1 ./internal/cluster/
} | $GO run ./cmd/benchgate -baseline BENCH_BASELINE.json
