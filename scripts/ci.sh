#!/usr/bin/env bash
# Tier-1 CI gate. Everything here runs offline (no crates.io access).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --no-fail-fast (tier-1)"
# --no-fail-fast: a failing test binary (kv_chaos fails on a share of
# runs, ROADMAP "The view-change bug") must not hide the binaries after
# it; the step still fails if any test did.
cargo test -q --no-fail-fast

echo "==> runtime integration tests (release)"
cargo test --release -p ensemble-runtime --test loopback_stack
cargo test --release -p ensemble-runtime --test udp_smoke
cargo test --release -p ensemble-runtime --test obs_trace
# alloc_budget counts what one 4 KiB cast and one 4-byte bypass cast ask
# of the allocator (a counting global allocator, one tally per thread);
# the counts are the same optimized or not, this runs them as the
# benchmark's build would and prints both per-cast counts into the log.
cargo test --release -p ensemble-runtime --test alloc_budget -- --nocapture

echo "==> sim: the virtual-time examples and the membership seed sweep (release)"
# Both examples assert what they print (total order under loss; a
# partitioned member excluded and the survivors agreeing) and exit
# nonzero otherwise. tests/membership.rs holds the 800-point
# heal-mid-flush sweep; tier-1 ran it unoptimized, this runs it optimized.
cargo run --release -p ensemble --example quickstart
cargo run --release -p ensemble --example partition_recovery
cargo test --release -p ensemble --test membership

echo "==> cluster: cross-node view-change convergence (release)"
cargo test --release -p ensemble-cluster --test convergence

echo "==> cluster: seeded partition chaos + fenced-member rejoin (release)"
# chaos_soak splits 4/2 on a fixed seed matrix and replays the whole
# execution against the virtual-synchrony checker; rejoin kills a
# member and absorbs its fresh incarnation through the merge path.
cargo test --release -p ensemble-cluster --test chaos_soak
cargo test --release -p ensemble-cluster --test rejoin

echo "==> cluster: demo — 3 nodes rendezvous, 1 killed, survivors install the new view"
# cluster_demo exits nonzero if the successor view is not installed
# within ten heartbeat periods or any cast is lost/duplicated.
cargo run --release -p ensemble-cluster --example cluster_demo

echo "==> cluster: demo — the same over UDP on 127.0.0.1 (skips if it cannot bind)"
# The one control plane with no waker (UdpTransport ignores set_waker):
# only the driver's park cap bounds its ingress latency.
cargo run --release -p ensemble-cluster --example cluster_demo -- --udp

echo "==> cluster: demo — scripted 4/2 split, minority stall, heal, view merge"
# --partition exits nonzero if the minority delivers primary-only
# traffic or any vsync invariant is violated across the episode.
cargo run --release -p ensemble-cluster --example cluster_demo -- --partition

echo "==> kv: chaos linearizability + TCP client plane (release)"
# chaos_load_stays_linearizable runs the kv_load fault drill in its
# chaos shape (100 simulated clients, no TCP, two seeded
# split/stall/heal/merge rounds) and fails unless it exits 0;
# tcp_plane exercises pipelining, redirect-away-from-stalled,
# per-request timeouts, and the event-driven request path (sub-tick depth-1 latency, back-pressure at
# the pipeline bound, no wake-up while idle) over real sockets.
cargo test --release -p ensemble-kv --test kv_chaos
cargo test --release -p ensemble-kv --test tcp_plane

echo "==> kv: crash recovery through the real replica path (release)"
# recovery kills a durable replica without a WAL flush, tears its disk,
# and checks both rejoin shapes: the quiet crash takes the
# state-transfer fast path (snapshot skipped), the torn crash recovers
# a strict prefix and catches up by snapshot.
cargo test --release -p ensemble-kv --test recovery

echo "==> kv: load generator emits and validates BENCH_kv_e2e.json"
# The same drill with TCP clients beside the simulated ones. kv_load
# exits nonzero unless the minority stalls and the majority commits in
# every split, the healed group serves, every replica serves after the
# load, the commit logs quiesce, some operation committed and the
# checker finds no violation.
KV_LOAD_OUT=$(cargo run --release -p ensemble-kv --bin kv_load -- \
  --replicas 3 --sim-clients 100 --tcp-clients 2 --ops 20 \
  --seed 42 --chaos --chaos-rounds 2 --out BENCH_kv_e2e.json)
test -s BENCH_kv_e2e.json
cargo run --release -p ensemble-bench --bin kv_check -- BENCH_kv_e2e.json

echo "==> kv: metrics exposition carries the required series"
for series in \
  'ensemble_kv_requests_total' \
  'ensemble_kv_casts_total' \
  'ensemble_kv_undecodable_casts_total 0' \
  'ensemble_kv_commits_total' \
  'ensemble_kv_responses_total' \
  'ensemble_kv_listener_wakeups_total' \
  'ensemble_kv_apply_wakeups_total'; do
  grep -q "^$series" <<<"$KV_LOAD_OUT" || {
    echo "missing series: $series" >&2
    exit 1
  }
done

echo "==> kv: seeded crash/restart gate emits and validates BENCH_kv_crash.json"
# Eight crash/restart cycles under load on fault-injecting disks; each
# restarted replica must commit a write once it serves, and the
# validator fails unless every restart recovered from the WAL, the
# injected faults demonstrably fired (torn tails, absorbed storage
# errors), and the recovery invariants held (zero violations).
KV_CRASH_OUT=$(cargo run --release -p ensemble-kv --bin kv_load -- \
  --replicas 3 --sim-clients 16 --tcp-clients 2 --ops 40 \
  --seed 7 --crash --crash-cycles 8 --out BENCH_kv_crash.json)
test -s BENCH_kv_crash.json
cargo run --release -p ensemble-bench --bin kv_check -- BENCH_kv_crash.json

echo "==> kv: durability metrics exposition carries the WAL series"
for series in \
  'ensemble_kv_wal_appends_total' \
  'ensemble_kv_wal_bytes_total' \
  'ensemble_kv_checkpoints_total' \
  'ensemble_kv_checkpoint_bytes_total' \
  'ensemble_kv_recoveries_total' \
  'ensemble_kv_torn_tail_records_total'; do
  grep -q "^$series" <<<"$KV_CRASH_OUT" || {
    echo "missing series: $series" >&2
    exit 1
  }
done

echo "==> analyze: stack_lint over every registered stack (HS/CC/DF passes)"
# --all-registered exits 2 if any registry stack was skipped; a deny-level
# DF diagnostic (non-commuting defers, undeclared state, stale certificate)
# makes stack_lint itself exit 1.
cargo run --release -p ensemble-analyze --bin stack_lint -- --all-registered
cargo run --release -p ensemble-analyze --bin stack_lint -- \
  --json --all-registered --out LINT_stacks.json --df-out DF_defer.json
test -s LINT_stacks.json
test -s DF_defer.json
cargo run --release -p ensemble-bench --bin lint_check -- \
  LINT_stacks.json --df DF_defer.json

echo "==> analyze: seeded collision must be caught"
if cargo run --release -p ensemble-analyze --bin stack_lint -- --inject-collision --quiet; then
  echo "stack_lint failed to reject the seeded header collision" >&2
  exit 1
fi

echo "==> runtime: smoke run exposes the defer-batching series and fires a layer timer"
# udp_pingpong installs the bypass on a defer-licensed stack, so the
# exposition must carry the batching counters the certificate gate feeds.
PINGPONG_OUT=$(cargo run --release -p ensemble-runtime --example udp_pingpong -- --metrics)
for series in \
  'ensemble_defer_batched_total' \
  'ensemble_defer_flushes_total'; do
  grep -q "^$series" <<<"$PINGPONG_OUT" || {
    echo "missing series: $series" >&2
    exit 1
  }
done
# The one end-to-end run of the shard's timer path on a wall clock: the
# warm-up cast arms mnak's timer, so at least one layer timer fired.
grep -Eq '^ensemble_timers_fired_total\{[^}]*\} [1-9]' <<<"$PINGPONG_OUT" || {
  echo "udp_pingpong fired no layer timer" >&2
  exit 1
}
# Handler time and the flight recorder are merged from the shards when
# read: a merge that lost a shard's samples would read zero here.
for series in ensemble_handler_ns_count ensemble_trace_events_total; do
  grep -Eq "^$series [1-9]" <<<"$PINGPONG_OUT" || {
    echo "udp_pingpong exposition has no $series samples" >&2
    exit 1
  }
done

echo "==> bench: table2a emits and validates BENCH_table2a.json"
TABLE2A_OUT=$(cargo run --release -p ensemble-bench --bin table2a)
test -s BENCH_table2a.json
cargo run --release -p ensemble-bench --bin obs_check -- BENCH_table2a.json

echo "==> bench: metrics exposition carries the required series"
for series in \
  'ensemble_model_cost_total{engine="IMP",counter="instructions"}' \
  'ensemble_model_cost_total{engine="FUNC",counter="data_refs"}' \
  'ensemble_model_cost_total{engine="HAND",counter="dispatches"}' \
  'ensemble_model_cost_total{engine="MACH",counter="branches"}'; do
  grep -qF "$series" <<<"$TABLE2A_OUT" || {
    echo "missing series: $series" >&2
    exit 1
  }
done

echo "==> benchmark: the repo benchmark builds against the workspace"
# benchmark/ is its own package (tier-1 does not compile it) with path
# deps on crates/*: a changed WalConfig literal, StorageMedium/Transport
# method set or wal::crc32 path must fail here, not in the pipeline that
# measures the PR.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark: short kv-seq, kv-pipe-durable, cast-small and cast-large runs are correct end to end"
# Three seconds of depth-1 calls: the only run under load, with the
# linearizability checker, of the one-request cast from socket to
# socket (one pending entry, one completion, one deadline).
# Three seconds of pipelined batches on a durable group: the cheapest
# check that the batched request path, the WAL and the linearizability
# checker still agree (identical commit logs, 0 violations, no failed op).
# Three seconds of 4-byte casts: the only run of the MACH bypass and of
# the batched delivery hand-off through two shards end to end.
# Three seconds of 4 KiB casts: every fragment cut, marshaled, moved
# through the hub, reassembled and delivered intact and in order.
for workload in kv-seq kv-pipe-durable cast-small cast-large; do
  BENCH_OUT=$(benchmark/run.sh "$workload" --seconds 3 | tail -n 1)
  for want in '"correct": true' '"failed": 0'; do
    grep -qF "$want" <<<"$BENCH_OUT" || {
      echo "$workload result line lacks $want: $BENCH_OUT" >&2
      exit 1
    }
  done
done

echo "==> non-test Rust lines per crate (informational; quote the total in CHANGES.md)"
scripts/loc.sh

echo "CI OK"
