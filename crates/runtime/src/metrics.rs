//! Per-shard runtime counters and their immutable snapshot.
//!
//! Each worker owns one [`ShardMetrics`] (lock-free atomics, updated on the
//! hot path) and [`crate::Node::stats`] folds every shard into a
//! [`RuntimeStats`] snapshot. The model-cost [`Counters`] from
//! `ensemble-util` ride along so the runtime reports the same cost
//! vocabulary as the Table 2(a) experiments: bypass hits add the compiled
//! program's instruction count, generic-path events add one dispatch per
//! layer crossed.

use ensemble_util::Counters;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one shard (one worker thread).
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Groups currently assigned to this shard.
    pub groups: AtomicU64,
    /// Packets ingested from the transports.
    pub msgs_in: AtomicU64,
    /// Packets handed to the transports.
    pub msgs_out: AtomicU64,
    /// Bypass invocations whose CCP held (fast path taken).
    pub bypass_hits: AtomicU64,
    /// Bypass invocations that fell back (CCP failed or foreign format).
    pub bypass_misses: AtomicU64,
    /// Deferred work items accumulated into batches (only stacks whose
    /// Defer-commutativity certificate held batch at all).
    pub defer_batched: AtomicU64,
    /// Deferred-work drain passes (batch flushes at quiescent points,
    /// or per-hit drains on uncertified stacks).
    pub defer_flushes: AtomicU64,
    /// Deadline-queue entries fired into `Layer::timer` handlers.
    pub timers_fired: AtomicU64,
    /// Transmissions triggered by timer events (mnak/pt2pt recovery).
    pub retransmits: AtomicU64,
    /// Commands queued by application handles, not yet drained.
    pub cmd_depth: AtomicU64,
    /// Deliveries queued for applications, not yet consumed.
    pub delivery_depth: AtomicU64,
    /// Batches of deliveries handed to application queues (one per group
    /// turn or timer pass that delivered anything).
    pub delivery_flushes: AtomicU64,
    /// Parker wakeups after which the worker's next iteration found no
    /// work (the notification raced with a drain, or was redundant).
    pub spurious_wakeups: AtomicU64,
    /// Socket send errors reported by this shard's transports.
    pub transport_send_errors: AtomicU64,
    /// Socket recv errors reported by this shard's transports.
    pub transport_recv_errors: AtomicU64,
    /// Ingress packets quarantined by stalled (quorum-less) groups.
    pub stall_drops: AtomicU64,
    /// Modeled instruction cost of bypass hits (compiled program sizes).
    pub cost_instructions: AtomicU64,
    /// Layer-boundary crossings taken by generic-path events.
    pub cost_dispatches: AtomicU64,
    /// Marshal/unmarshal buffer allocations on the generic path.
    pub cost_allocations: AtomicU64,
    /// Header-field and state-word moves (bypass wire/update programs,
    /// marshal/unmarshal buffer walks).
    pub cost_data_refs: AtomicU64,
    /// CCP conjuncts evaluated on bypass invocations.
    pub cost_branches: AtomicU64,
}

impl ShardMetrics {
    /// Reads every counter into an immutable snapshot.
    pub fn snapshot(&self, shard: usize) -> ShardSnapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ShardSnapshot {
            shard,
            groups: ld(&self.groups),
            msgs_in: ld(&self.msgs_in),
            msgs_out: ld(&self.msgs_out),
            bypass_hits: ld(&self.bypass_hits),
            bypass_misses: ld(&self.bypass_misses),
            defer_batched: ld(&self.defer_batched),
            defer_flushes: ld(&self.defer_flushes),
            timers_fired: ld(&self.timers_fired),
            retransmits: ld(&self.retransmits),
            cmd_depth: ld(&self.cmd_depth),
            delivery_depth: ld(&self.delivery_depth),
            delivery_flushes: ld(&self.delivery_flushes),
            spurious_wakeups: ld(&self.spurious_wakeups),
            transport_send_errors: ld(&self.transport_send_errors),
            transport_recv_errors: ld(&self.transport_recv_errors),
            stall_drops: ld(&self.stall_drops),
            model_cost: Counters {
                instructions: ld(&self.cost_instructions),
                data_refs: ld(&self.cost_data_refs),
                allocations: ld(&self.cost_allocations),
                dispatches: ld(&self.cost_dispatches),
                branches: ld(&self.cost_branches),
            },
        }
    }

    /// Adds a group's model-cost delta into the shard totals.
    pub fn add_cost(&self, c: &Counters) {
        self.cost_instructions
            .fetch_add(c.instructions, Ordering::Relaxed);
        self.cost_dispatches
            .fetch_add(c.dispatches, Ordering::Relaxed);
        self.cost_allocations
            .fetch_add(c.allocations, Ordering::Relaxed);
        self.cost_data_refs
            .fetch_add(c.data_refs, Ordering::Relaxed);
        self.cost_branches.fetch_add(c.branches, Ordering::Relaxed);
    }
}

/// One shard's counters at a point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index (== worker index).
    pub shard: usize,
    /// Groups assigned.
    pub groups: u64,
    /// Packets in from transports.
    pub msgs_in: u64,
    /// Packets out to transports.
    pub msgs_out: u64,
    /// Fast-path invocations that held.
    pub bypass_hits: u64,
    /// Fast-path invocations that fell back.
    pub bypass_misses: u64,
    /// Deferred work items accumulated into batches.
    pub defer_batched: u64,
    /// Deferred-work drain passes.
    pub defer_flushes: u64,
    /// Timer handlers fired.
    pub timers_fired: u64,
    /// Timer-triggered transmissions.
    pub retransmits: u64,
    /// Pending application commands.
    pub cmd_depth: u64,
    /// Pending application deliveries.
    pub delivery_depth: u64,
    /// Delivery batches handed to application queues.
    pub delivery_flushes: u64,
    /// Parker wakeups that found no work on the next iteration.
    pub spurious_wakeups: u64,
    /// Socket send errors from this shard's transports.
    pub transport_send_errors: u64,
    /// Socket recv errors from this shard's transports.
    pub transport_recv_errors: u64,
    /// Ingress packets quarantined by stalled (quorum-less) groups.
    pub stall_drops: u64,
    /// Model-level cost counters (same vocabulary as Table 2(a)).
    pub model_cost: Counters,
}

impl ShardSnapshot {
    /// Fraction of bypass invocations that took the fast path.
    pub fn bypass_hit_ratio(&self) -> f64 {
        let total = self.bypass_hits + self.bypass_misses;
        if total == 0 {
            return 0.0;
        }
        self.bypass_hits as f64 / total as f64
    }
}

/// A whole-node snapshot: one entry per shard.
#[derive(Clone, Debug, Default)]
pub struct RuntimeStats {
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardSnapshot>,
}

impl RuntimeStats {
    /// Sums every shard into one aggregate row (`shard` is meaningless
    /// there and set to `usize::MAX`).
    pub fn totals(&self) -> ShardSnapshot {
        let mut t = ShardSnapshot {
            shard: usize::MAX,
            ..ShardSnapshot::default()
        };
        for s in &self.shards {
            t.groups += s.groups;
            t.msgs_in += s.msgs_in;
            t.msgs_out += s.msgs_out;
            t.bypass_hits += s.bypass_hits;
            t.bypass_misses += s.bypass_misses;
            t.defer_batched += s.defer_batched;
            t.defer_flushes += s.defer_flushes;
            t.timers_fired += s.timers_fired;
            t.retransmits += s.retransmits;
            t.cmd_depth += s.cmd_depth;
            t.delivery_depth += s.delivery_depth;
            t.delivery_flushes += s.delivery_flushes;
            t.spurious_wakeups += s.spurious_wakeups;
            t.transport_send_errors += s.transport_send_errors;
            t.transport_recv_errors += s.transport_recv_errors;
            t.stall_drops += s.stall_drops;
            t.model_cost.merge(&s.model_cost);
        }
        t
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.shards {
            writeln!(
                f,
                "shard {}: groups={} in={} out={} bypass={}/{} (hit {:.1}%) defer={}b/{}f timers={} retrans={} qdepth cmd={} dlv={} dlv_flushes={} spurious={} ioerr snd={} rcv={} stall_drops={}",
                s.shard,
                s.groups,
                s.msgs_in,
                s.msgs_out,
                s.bypass_hits,
                s.bypass_hits + s.bypass_misses,
                100.0 * s.bypass_hit_ratio(),
                s.defer_batched,
                s.defer_flushes,
                s.timers_fired,
                s.retransmits,
                s.cmd_depth,
                s.delivery_depth,
                s.delivery_flushes,
                s.spurious_wakeups,
                s.transport_send_errors,
                s.transport_recv_errors,
                s.stall_drops,
            )?;
        }
        let t = self.totals();
        write!(
            f,
            "total: groups={} in={} out={} bypass={}/{} (hit {:.1}%) defer={}b/{}f timers={} retrans={} qdepth cmd={} dlv={} dlv_flushes={} spurious={} ioerr snd={} rcv={} stall_drops={} cost: {}",
            t.groups,
            t.msgs_in,
            t.msgs_out,
            t.bypass_hits,
            t.bypass_hits + t.bypass_misses,
            100.0 * t.bypass_hit_ratio(),
            t.defer_batched,
            t.defer_flushes,
            t.timers_fired,
            t.retransmits,
            t.cmd_depth,
            t.delivery_depth,
            t.delivery_flushes,
            t.spurious_wakeups,
            t.transport_send_errors,
            t.transport_recv_errors,
            t.stall_drops,
            t.model_cost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let m = ShardMetrics::default();
        m.msgs_in.fetch_add(3, Ordering::Relaxed);
        m.bypass_hits.fetch_add(2, Ordering::Relaxed);
        m.bypass_misses.fetch_add(2, Ordering::Relaxed);
        let s = m.snapshot(1);
        assert_eq!(s.shard, 1);
        assert_eq!(s.msgs_in, 3);
        assert!((s.bypass_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn totals_aggregate_shards() {
        let a = ShardSnapshot {
            shard: 0,
            msgs_in: 5,
            bypass_hits: 1,
            ..ShardSnapshot::default()
        };
        let b = ShardSnapshot {
            shard: 1,
            msgs_in: 7,
            retransmits: 2,
            ..ShardSnapshot::default()
        };
        let stats = RuntimeStats { shards: vec![a, b] };
        let t = stats.totals();
        assert_eq!(t.msgs_in, 12);
        assert_eq!(t.retransmits, 2);
        assert_eq!(t.bypass_hits, 1);
    }

    #[test]
    fn cost_merges_into_snapshot() {
        let m = ShardMetrics::default();
        let mut c = Counters::zero();
        c.instructions = 10;
        c.dispatches = 4;
        c.data_refs = 3;
        c.branches = 2;
        m.add_cost(&c);
        m.add_cost(&c);
        let s = m.snapshot(0);
        assert_eq!(s.model_cost.instructions, 20);
        assert_eq!(s.model_cost.dispatches, 8);
        assert_eq!(s.model_cost.data_refs, 6, "data_refs must not be dropped");
        assert_eq!(s.model_cost.branches, 4, "branches must not be dropped");
    }

    #[test]
    fn defer_counters_flow_to_totals_and_display() {
        let m = ShardMetrics::default();
        m.defer_batched.fetch_add(64, Ordering::Relaxed);
        m.defer_flushes.fetch_add(2, Ordering::Relaxed);
        let s = m.snapshot(0);
        assert_eq!(s.defer_batched, 64);
        assert_eq!(s.defer_flushes, 2);
        let stats = RuntimeStats { shards: vec![s, s] };
        let t = stats.totals();
        assert_eq!(t.defer_batched, 128);
        assert_eq!(t.defer_flushes, 4);
        let text = format!("{stats}");
        assert!(
            text.lines().last().unwrap().contains("defer=128b/4f"),
            "got: {text}"
        );
    }

    #[test]
    fn io_error_and_wakeup_counters_flow_to_totals_and_display() {
        let m = ShardMetrics::default();
        m.spurious_wakeups.fetch_add(4, Ordering::Relaxed);
        m.transport_send_errors.fetch_add(2, Ordering::Relaxed);
        m.transport_recv_errors.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot(0);
        assert_eq!(s.spurious_wakeups, 4);
        assert_eq!(s.transport_send_errors, 2);
        assert_eq!(s.transport_recv_errors, 1);
        let stats = RuntimeStats { shards: vec![s, s] };
        let t = stats.totals();
        assert_eq!(t.spurious_wakeups, 8);
        assert_eq!(t.transport_send_errors, 4);
        assert_eq!(t.transport_recv_errors, 2);
        let text = format!("{stats}");
        assert!(
            text.lines().last().unwrap().contains("ioerr snd=4 rcv=2"),
            "got: {text}"
        );
    }

    #[test]
    fn display_labels_queue_depths_and_completes_totals() {
        let stats = RuntimeStats {
            shards: vec![ShardSnapshot {
                shard: 0,
                groups: 1,
                msgs_in: 2,
                msgs_out: 3,
                bypass_hits: 4,
                timers_fired: 5,
                cmd_depth: 6,
                delivery_depth: 7,
                delivery_flushes: 8,
                ..ShardSnapshot::default()
            }],
        };
        let text = format!("{stats}");
        assert!(text.contains("qdepth cmd=6 dlv=7"), "got: {text}");
        let total = text.lines().last().unwrap();
        for needle in [
            "groups=1",
            "bypass=4/4",
            "timers=5",
            "qdepth cmd=6 dlv=7",
            "dlv_flushes=8",
        ] {
            assert!(
                total.contains(needle),
                "totals line missing {needle}: {total}"
            );
        }
    }
}
