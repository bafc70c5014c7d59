#!/usr/bin/env bash
# The benchmark's one entry point: builds the package in release mode
# (a no-op after the first time) and runs it.
#
#   benchmark/run.sh <workload|all> [--trace] [--seed S] [--seconds N]
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --sets 2 --runs 5
#   benchmark/run.sh --selftest
#
# The second form is the one BENCHMARK.json names; anything that is not a
# workload name or `all` goes to the binary as it is. The build reports on
# stderr, so the last line of stdout is always the binary's result line.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/benchmark"

workloads=(kv-seq kv-pipe-durable cast-small cast-large)
case "${1:-}" in
all) chosen=("${workloads[@]}") ;;
cast-small | cast-large | kv-seq | kv-pipe-durable) chosen=("$1") ;;
*) exec "$bin" "$@" ;;
esac
shift

seed=1 seconds=25 trace=0
while (($#)); do
    case "$1" in
    --trace) trace=1 ;;
    --seed) seed="$2" && shift ;;
    --seconds) seconds="$2" && shift ;;
    *) echo "run.sh: unknown option $1" >&2 && exit 2 ;;
    esac
    shift
done
for workload in "${chosen[@]}"; do
    echo "== $workload (seed $seed, $seconds s, trace $trace)" >&2
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
