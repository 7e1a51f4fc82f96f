#!/usr/bin/env bash
# bench.sh — run the performance-tracked benchmarks in benchstat-compatible
# format (standard `go test -bench` output is what benchstat consumes).
# Lint (gofmt -l + go vet, i.e. `make lint`) runs first so tracked numbers
# are never recorded from an unhygienic tree; its output goes to stderr to
# keep stdout benchstat-clean.
#
# Usage:
#   scripts/bench.sh            run the tracked benchmarks (5 iterations each)
#   scripts/bench.sh smoke      one iteration each, no lint — the CI
#                               bench-smoke gate: benchmarks must still run
#   scripts/bench.sh baseline   print the committed baseline (BENCH_baseline.json)
#                               re-rendered as benchstat-compatible lines
#   scripts/bench.sh netem      same for the netem record (BENCH_netem.json)
#   scripts/bench.sh plan       same for the Plan/Runner record (BENCH_plan.json)
#   scripts/bench.sh stream     same for the online-analysis record (BENCH_stream.json)
#   scripts/bench.sh reuse      same for the testbed-reuse record, taken with
#                               the since-deleted timing wheel (BENCH_reuse.json)
#   scripts/bench.sh heap       same for the shipped configuration: testbed
#                               reuse, heap scheduler, GOMAXPROCS and core
#                               count recorded (BENCH_heap.json, the gate record)
#   scripts/bench.sh figures    same for the flow-retention record at -cpu 2
#                               (BENCH_figures.json; it also holds -cpu 1 and
#                               the parent commit's numbers)
#
# The tracked benchmarks run at the machine's GOMAXPROCS. To measure the
# parallel sweep's scaling, rerun the headline benchmark at fixed counts:
#   go test -run=NONE -bench='BenchmarkPlanStreamOnline$' -benchmem -cpu 1,2 .
#
# Compare a fresh run against the committed records:
#   scripts/bench.sh > BENCH_current.txt
#   make bench-compare          (benchstat if installed, else benchjson compare)
#
# pipefail matters here: the output is routinely piped (tee, benchstat,
# sha256sum) and a failing `go test` must fail the pipeline, not vanish
# behind a healthy consumer.
set -euo pipefail

cd "$(dirname "$0")/.."

TRACKED='BenchmarkPairRun$|BenchmarkPairRunNetem|BenchmarkProfileFlow$|BenchmarkFilterMatch$|BenchmarkRunAllSequential$|BenchmarkRunAllParallel$|BenchmarkPlanStream$|BenchmarkPlanStreamOnline$|BenchmarkTestbedReset$|BenchmarkSchedulerDense|BenchmarkHopForward|BenchmarkUDPBuildParse|BenchmarkSegmentAppendList|BenchmarkNAKRecovery$|BenchmarkFlowDemuxObserve$|BenchmarkFig07NormalizedSizePDF$|BenchmarkExtNetemScenarios$'

case "${1:-}" in
baseline)
    # Render a committed record as benchstat input. The JSON is a flat
    # {name: {ns_per_op, bytes_per_op, allocs_per_op}} map.
    exec go run ./scripts/benchjson
    ;;
netem)
    exec go run ./scripts/benchjson BENCH_netem.json
    ;;
plan)
    exec go run ./scripts/benchjson BENCH_plan.json
    ;;
stream)
    exec go run ./scripts/benchjson BENCH_stream.json
    ;;
reuse)
    exec go run ./scripts/benchjson BENCH_reuse.json
    ;;
heap)
    exec go run ./scripts/benchjson BENCH_heap.json
    ;;
figures)
    exec go run ./scripts/benchjson BENCH_figures.json
    ;;
smoke)
    exec go test -run=NONE -bench="$TRACKED" -benchmem -benchtime=1x -count=1 .
    ;;
esac

make lint 1>&2

exec go test -run=NONE -bench="$TRACKED" -benchmem -benchtime=5x -count=1 .
