//! Node-wide observability: the flight recorder, latency histograms, and
//! the metrics exposition.
//!
//! One [`NodeObs`] per [`crate::Node`], shared with every shard worker.
//! The recorder has one ring per shard, whose [`RingWriter`] the shard's
//! worker holds, and [`AUX_RINGS`] auxiliary rings for threads outside
//! the pool ([`NodeObs::aux_writer`]). Each worker also owns its latency
//! histograms and records into them with plain stores; readers merge
//! the shards' histograms, so a series reads as if one histogram had
//! been fed every sample. Everything is gated on one `enabled` flag
//! checked before any work on the hot path — a disabled node pays one
//! branch per event.
//!
//! [`NodeObs::metrics_text`] folds a [`RuntimeStats`] snapshot and the
//! node's histograms into Prometheus text exposition. The series names
//! are stable (CI greps for them):
//!
//! * `ensemble_msgs_total{shard,dir}` — packets in/out per shard
//! * `ensemble_bypass_total{shard,result}` — fast-path hits/misses
//! * `ensemble_defer_batched_total{shard}` / `ensemble_defer_flushes_total{shard}`
//!   — certificate-licensed deferred-work batching and drain passes
//! * `ensemble_timers_fired_total{shard}` / `ensemble_retransmits_total{shard}`
//! * `ensemble_queue_depth{shard,queue}` — pending commands / deliveries
//! * `ensemble_delivery_flushes_total{shard}` — delivery batches handed to
//!   application queues (deliveries ÷ this = the batch a consumer wakes to)
//! * `ensemble_stall_drops_total{shard}` — ingress quarantined while stalled
//! * `ensemble_model_cost_total{counter}` — the Table 2(a) vocabulary
//! * `ensemble_cast_to_deliver_ns{quantile}` — sender command drain to the
//!   receiving core producing the delivery (before the hand-off)
//! * `ensemble_handler_ns{quantile}` — per-event handling time
//! * `ensemble_timer_lateness_ns{quantile}` — how late a layer timer fired
//! * `ensemble_layer_handler_ns{layer,quantile}` — per-layer spans
//! * `ensemble_trace_events_total` (+ `_overwritten_`)

use crate::metrics::RuntimeStats;
use ensemble_obs::{Histogram, HistogramVec, Recorder, Registry, RingWriter, TraceEvent};

/// Auxiliary rings per node, after the shard rings: one for the cluster
/// driver, one for a service on top of it (the KV apply loop). Each has
/// half a shard ring's capacity, and is allocated only when its writer
/// is taken.
pub const AUX_RINGS: usize = 2;

/// The latency histograms of one shard worker. Only that worker writes
/// them ([`Histogram::record_unshared`]); aligned apart so no two
/// workers' histograms share a cache line.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct ShardHistograms {
    pub(crate) cast_to_deliver_ns: Histogram,
    pub(crate) handler_ns: Histogram,
    pub(crate) timer_lateness_ns: Histogram,
}

/// Observability state shared by a node and its shard workers.
pub struct NodeObs {
    enabled: bool,
    /// The flight recorder: one ring per shard, then the auxiliary ones.
    pub recorder: Recorder,
    shards: Vec<ShardHistograms>,
    /// Per-layer handler time, keyed by layer name (timer fires here;
    /// the layer harness contributes finer spans in unit tests).
    pub layer_handler_ns: HistogramVec,
    /// View-change latency: first local suspicion to the new view's
    /// installation, recorded by the cluster driver.
    pub view_change_ns: Histogram,
}

impl NodeObs {
    pub(crate) fn new(enabled: bool, shards: usize, ring_capacity: usize) -> NodeObs {
        // A disabled node hands out no writer, so none of its rings is
        // ever allocated.
        let shards = shards.max(1);
        let rings = std::iter::repeat_n(ring_capacity, shards);
        let aux = std::iter::repeat_n(ring_capacity / 2, AUX_RINGS);
        NodeObs {
            enabled,
            recorder: Recorder::with_capacities(rings.chain(aux)),
            shards: (0..shards).map(|_| ShardHistograms::default()).collect(),
            layer_handler_ns: HistogramVec::new(),
            view_change_ns: Histogram::new(),
        }
    }

    /// Whether tracing and histogram recording are on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Shard `shard`'s ring writer (`None` when obs is off) and
    /// histograms, for its worker alone.
    pub(crate) fn shard(&self, shard: usize) -> (Option<RingWriter>, &ShardHistograms) {
        let writer = self.enabled.then(|| {
            let w = self.recorder.writer(shard);
            w.expect("one worker per shard ring")
        });
        (writer, &self.shards[shard])
    }

    /// The writer of the next free auxiliary ring, for one thread outside
    /// the worker pool (a cluster driver, a service's apply loop). `None`
    /// when obs is off or all [`AUX_RINGS`] are taken.
    pub fn aux_writer(&self) -> Option<RingWriter> {
        if !self.enabled {
            return None;
        }
        let first = self.shards.len();
        (first..first + AUX_RINGS).find_map(|i| self.recorder.writer(i))
    }

    fn merged(&self, pick: impl Fn(&ShardHistograms) -> &Histogram) -> Histogram {
        Histogram::merged(self.shards.iter().map(pick))
    }

    /// Cast→deliver latency over every shard: sender-side command drain
    /// to the receiving core producing the delivery, in obs-clock
    /// nanoseconds. It stops before the shard hands the turn's batch to
    /// the application queue, so it excludes the rest of that turn and
    /// the consumer's wake-up. Only populated by transports that carry
    /// origin stamps (the loopback hub).
    pub fn cast_to_deliver_ns(&self) -> Histogram {
        self.merged(|s| &s.cast_to_deliver_ns)
    }

    /// Time spent handling one event (command, packet, or timer) over
    /// every shard: from the end of the worker's previous handler in the
    /// same loop step (or the step's start) to the end of this one,
    /// including routing its actions.
    pub fn handler_ns(&self) -> Histogram {
        self.merged(|s| &s.handler_ns)
    }

    /// How late a layer timer fired past its deadline, over every shard.
    /// The shard's [`crate::DeadlineQueue`] never pops an entry before
    /// its deadline, so no early fire is folded in here as a zero.
    pub fn timer_lateness_ns(&self) -> Histogram {
        self.merged(|s| &s.timer_lateness_ns)
    }

    /// Drains all new trace events, merged across shards by timestamp.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.recorder.drain()
    }

    /// Renders the node's metrics (counters from `stats`, latency from
    /// the node's histograms) in Prometheus text exposition format.
    pub fn metrics_text(&self, stats: &RuntimeStats) -> String {
        let mut reg = Registry::new();
        for s in &stats.shards {
            let shard = s.shard.to_string();
            let l = |k: &'static str| [("shard", shard.as_str()), ("dir", k)];
            reg.set_int("ensemble_msgs_total", &l("in"), s.msgs_in);
            reg.set_int("ensemble_msgs_total", &l("out"), s.msgs_out);
            let b = |k: &'static str| [("shard", shard.as_str()), ("result", k)];
            reg.set_int("ensemble_bypass_total", &b("hit"), s.bypass_hits);
            reg.set_int("ensemble_bypass_total", &b("miss"), s.bypass_misses);
            reg.set_int(
                "ensemble_defer_batched_total",
                &[("shard", shard.as_str())],
                s.defer_batched,
            );
            reg.set_int(
                "ensemble_defer_flushes_total",
                &[("shard", shard.as_str())],
                s.defer_flushes,
            );
            let only = [("shard", shard.as_str())];
            reg.set_int("ensemble_groups", &only, s.groups);
            reg.set_int("ensemble_timers_fired_total", &only, s.timers_fired);
            reg.set_int("ensemble_retransmits_total", &only, s.retransmits);
            let q = |k: &'static str| [("shard", shard.as_str()), ("queue", k)];
            reg.set_int("ensemble_queue_depth", &q("cmd"), s.cmd_depth);
            reg.set_int("ensemble_queue_depth", &q("delivery"), s.delivery_depth);
            reg.set_int("ensemble_delivery_flushes_total", &only, s.delivery_flushes);
            reg.set_int("ensemble_spurious_wakeups_total", &only, s.spurious_wakeups);
            let e = |k: &'static str| [("shard", shard.as_str()), ("kind", k)];
            reg.set_int(
                "ensemble_transport_errors_total",
                &e("send"),
                s.transport_send_errors,
            );
            reg.set_int(
                "ensemble_transport_errors_total",
                &e("recv"),
                s.transport_recv_errors,
            );
            reg.set_int("ensemble_stall_drops_total", &only, s.stall_drops);
        }
        let cost = stats.totals().model_cost;
        for (counter, v) in [
            ("instructions", cost.instructions),
            ("data_refs", cost.data_refs),
            ("allocations", cost.allocations),
            ("dispatches", cost.dispatches),
            ("branches", cost.branches),
        ] {
            reg.set_int("ensemble_model_cost_total", &[("counter", counter)], v);
        }
        reg.histogram(
            "ensemble_cast_to_deliver_ns",
            &[],
            &self.cast_to_deliver_ns().summary(),
        );
        reg.histogram("ensemble_handler_ns", &[], &self.handler_ns().summary());
        reg.histogram(
            "ensemble_timer_lateness_ns",
            &[],
            &self.timer_lateness_ns().summary(),
        );
        for (layer, summary) in self.layer_handler_ns.summaries() {
            reg.histogram("ensemble_layer_handler_ns", &[("layer", layer)], &summary);
        }
        reg.histogram(
            "ensemble_view_change_ns",
            &[],
            &self.view_change_ns.summary(),
        );
        reg.set_int("ensemble_trace_events_total", &[], self.recorder.recorded());
        reg.set_int(
            "ensemble_trace_overwritten_total",
            &[],
            self.recorder.overwritten(),
        );
        reg.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ShardSnapshot;

    #[test]
    fn exposition_contains_every_required_series() {
        let obs = NodeObs::new(true, 2, 64);
        obs.shards[1].cast_to_deliver_ns.record_unshared(1500);
        obs.layer_handler_ns.get("mnak").record(300);
        let stats = RuntimeStats {
            shards: vec![ShardSnapshot {
                shard: 0,
                msgs_in: 1,
                stall_drops: 3,
                defer_batched: 12,
                defer_flushes: 2,
                delivery_flushes: 5,
                ..ShardSnapshot::default()
            }],
        };
        let text = obs.metrics_text(&stats);
        for series in [
            "ensemble_msgs_total{shard=\"0\",dir=\"in\"} 1",
            "ensemble_bypass_total{shard=\"0\",result=\"hit\"}",
            "ensemble_defer_batched_total{shard=\"0\"} 12",
            "ensemble_defer_flushes_total{shard=\"0\"} 2",
            "ensemble_delivery_flushes_total{shard=\"0\"} 5",
            "ensemble_model_cost_total{counter=\"data_refs\"}",
            "ensemble_model_cost_total{counter=\"branches\"}",
            "ensemble_cast_to_deliver_ns{quantile=\"0.99\"}",
            "ensemble_cast_to_deliver_ns_count 1",
            "ensemble_timer_lateness_ns",
            "ensemble_layer_handler_ns{layer=\"mnak\",quantile=\"0.5\"}",
            "ensemble_view_change_ns",
            "ensemble_spurious_wakeups_total{shard=\"0\"}",
            "ensemble_transport_errors_total{shard=\"0\",kind=\"send\"}",
            "ensemble_transport_errors_total{shard=\"0\",kind=\"recv\"}",
            "ensemble_stall_drops_total{shard=\"0\"} 3",
            "ensemble_trace_events_total",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
    }

    #[test]
    fn shard_histograms_merge_into_one_series() {
        let obs = NodeObs::new(true, 2, 64);
        for (shard, samples) in [(0, [100, 200, 300]), (1, [4000, 5000, 6000])] {
            for v in samples {
                obs.shards[shard].handler_ns.record_unshared(v);
            }
        }
        let text = obs.metrics_text(&RuntimeStats::default());
        assert!(text.contains("ensemble_handler_ns_count 6"), "{text}");
        assert!(text.contains("ensemble_handler_ns_sum 15600"), "{text}");
        assert!(
            text.contains("ensemble_handler_ns{quantile=\"1\"} 6000"),
            "{text}"
        );
    }

    #[test]
    fn aux_writers_are_handed_out_once_each_and_only_when_enabled() {
        let obs = NodeObs::new(true, 2, 64);
        let taken: Vec<_> = std::iter::from_fn(|| obs.aux_writer()).collect();
        assert_eq!(taken.len(), AUX_RINGS);
        assert!(NodeObs::new(false, 2, 64).aux_writer().is_none());
    }

    #[test]
    fn disabled_obs_still_renders() {
        let obs = NodeObs::new(false, 1, 8192);
        assert!(!obs.enabled());
        let text = obs.metrics_text(&RuntimeStats::default());
        assert!(text.contains("ensemble_trace_events_total 0"));
    }
}
