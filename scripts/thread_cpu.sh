#!/usr/bin/env bash
# Where one benchmark workload's CPU goes, thread by thread — the part of
# ROADMAP aim 1 ("layer by layer") that `--trace` cannot see: user and
# system time and context switches per thread over a 5 s window inside
# the measured phase, from /proc alone (no perf, no strace).
#
#   scripts/thread_cpu.sh <workload> [seconds]     (seconds >= 16)
#
# One row per thread, busiest first; the kernel cuts thread names at 15
# characters, so both shards read `ensemble-shard-`. us/op divides by the
# run's own ops_per_s. Runs the binary benchmark/run.sh builds.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="$1" seconds="${2:-20}" window=5
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
tmp=$(mktemp -d) && trap 'rm -rf "$tmp"' EXIT
"$target/release/benchmark" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
  >"$tmp/out" 2>/dev/null &
pid=$!
sample() { # tid name utime stime voluntary involuntary
  for t in /proc/"$pid"/task/*; do
    stat=$(<"$t/stat") && read -r -a f <<<"${stat##*) }" || continue
    echo "${t##*/} $(<"$t/comm") ${f[11]} ${f[12]}" \
      "$(awk '/ctxt_switches/ { printf "%s ", $2 }' "$t/status")"
  done
}
sleep $((seconds / 2)) && sample >"$tmp/a" && sleep "$window" && sample >"$tmp/b"
wait "$pid"
ops=$(tail -n 1 "$tmp/out" | sed 's/.*"ops_per_s": {"value": \([0-9.]*\).*/\1/')
echo "$workload: $ops ops/s; per thread over ${window} s"
printf '%-8s %-16s %9s %9s %9s %9s %8s %8s\n' \
  tid thread user_ms sys_ms user_us/op sys_us/op vol/s invol/s
awk -v n="$(awk -v o="$ops" -v w="$window" 'BEGIN { print o * w }')" -v w="$window" \
  -v ms="$((1000 / $(getconf CLK_TCK)))" '
  NR == FNR { u[$1] = $3; s[$1] = $4; v[$1] = $5; i[$1] = $6; next }
  $1 in u { du = ($3 - u[$1]) * ms; ds = ($4 - s[$1]) * ms
    printf "%-8s %-16s %9d %9d %9.2f %9.2f %8.0f %8.0f\n", $1, $2, du, ds,
      du * 1000 / n, ds * 1000 / n, ($5 - v[$1]) / w, ($6 - i[$1]) / w }
' "$tmp/a" "$tmp/b" | sort -k3,3nr -k4,4nr
