#!/usr/bin/env bash
# bench-json.sh — run a benchmark selection and emit BENCH_<date>.json with
# one {"name", "ns_per_op", "bytes_per_op", "allocs_per_op", "runs"} entry
# per benchmark, so CI trends are machine-diffable across commits.
#
# Usage:
#   scripts/bench-json.sh [out-dir] [bench-regex] [benchtime] [packages]
#
# Defaults: out-dir=.  bench-regex='SweepColdStore|SweepWarmStore|HLSProfile|DenseBatch|PPOTrainIteration'
# benchtime=3x  packages='. ./internal/nn ./internal/rl' (a space-separated
# list of package patterns).
# Benchmarks run with -benchmem, so every entry carries B/op and allocs/op.
# The output file name embeds today's UTC date (BENCH_2025-01-31.json); an
# existing file for the same day is overwritten.
set -euo pipefail

outdir=${1:-.}
bench=${2:-'SweepColdStore|SweepWarmStore|HLSProfile|DenseBatch|PPOTrainIteration'}
benchtime=${3:-3x}
read -r -a pkgs <<< "${4:-. ./internal/nn ./internal/rl}"

out="$outdir/BENCH_$(date -u +%F).json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run=NONE -bench "$bench" -benchmem -benchtime "$benchtime" "${pkgs[@]}" | tee "$raw" >&2

# go test bench lines: "BenchmarkName-8   <runs>   <v> ns/op   <v> B/op   <v> allocs/op"
# with any custom metrics as further "<value> <unit>" pairs.
awk '
  $1 ~ /^Benchmark/ && $4 == "ns/op" {
    bytes = "null"; allocs = "null"
    for (i = 5; i < NF; i += 2) {
      if ($(i+1) == "B/op") bytes = $i
      if ($(i+1) == "allocs/op") allocs = $i
    }
    if (n++) printf ",\n"
    name = $1; sub(/-[0-9]+$/, "", name)
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"runs\": %s}", name, $3, bytes, allocs, $2
  }
  END {
    if (n == 0) { print "no benchmark output parsed" > "/dev/stderr"; exit 1 }
    printf "\n"
  }
' "$raw" | { echo "["; cat; echo "]"; } > "$out"

echo "wrote $out" >&2
