//! Node-wide observability: the flight recorder, latency histograms, and
//! the metrics exposition.
//!
//! One [`NodeObs`] per [`crate::Node`], shared with every shard worker.
//! The recorder has one ring per shard (each worker is that ring's only
//! writer); the histograms are concurrent, so workers record while any
//! thread reads. Everything is gated on one `enabled` flag checked before
//! any work on the hot path — a disabled node pays one branch per event.
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
//! * `ensemble_stall_drops_total{shard}` — ingress quarantined while stalled
//! * `ensemble_transport_faults_total{kind}` — injected faults (loopback hub)
//! * `ensemble_partition_active` / `ensemble_partition_components` /
//!   `ensemble_partition_dead_links` / `ensemble_partition_pending_steps`
//! * `ensemble_model_cost_total{counter}` — the Table 2(a) vocabulary
//! * `ensemble_cast_to_deliver_ns{quantile}` — full-path latency
//! * `ensemble_handler_ns{quantile}` — per-event handling time
//! * `ensemble_timer_lateness_ns{quantile}` — wheel deadline slip
//! * `ensemble_layer_handler_ns{layer,quantile}` — per-layer spans
//! * `ensemble_trace_events_total` (+ `_overwritten_`, `_contended_`)

use crate::metrics::RuntimeStats;
use ensemble_obs::{Histogram, HistogramVec, Recorder, Registry, TraceEvent};

/// Observability state shared by a node and its shard workers.
pub struct NodeObs {
    enabled: bool,
    /// The flight recorder: one ring per shard.
    pub recorder: Recorder,
    /// Cast→deliver latency: sender-side command drain to receiver-side
    /// delivery enqueue, in obs-clock nanoseconds. Only populated by
    /// transports that carry origin stamps (the loopback hub).
    pub cast_to_deliver_ns: Histogram,
    /// Time spent handling one event (command, packet, or timer),
    /// including routing its actions.
    pub handler_ns: Histogram,
    /// How late the timer wheel fired entries past their deadline.
    pub timer_lateness_ns: Histogram,
    /// Per-layer handler time, keyed by layer name (timer fires here;
    /// the layer harness contributes finer spans in unit tests).
    pub layer_handler_ns: HistogramVec,
    /// View-change latency: first local suspicion to the new view's
    /// installation, recorded by the cluster driver.
    pub view_change_ns: Histogram,
}

impl NodeObs {
    pub(crate) fn new(enabled: bool, shards: usize, ring_capacity: usize) -> NodeObs {
        // A disabled node still owns a (tiny) recorder so the API needs
        // no Option plumbing; nothing is ever recorded into it.
        let capacity = if enabled { ring_capacity } else { 8 };
        NodeObs {
            enabled,
            recorder: Recorder::new(shards.max(1), capacity),
            cast_to_deliver_ns: Histogram::new(),
            handler_ns: Histogram::new(),
            timer_lateness_ns: Histogram::new(),
            layer_handler_ns: HistogramVec::new(),
            view_change_ns: Histogram::new(),
        }
    }

    /// Whether tracing and histogram recording are on.
    pub fn enabled(&self) -> bool {
        self.enabled
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
        if let Some(health) = &stats.transport {
            let f = &health.faults;
            for (kind, v) in [
                ("dropped", f.dropped),
                ("duplicated", f.duplicated),
                ("reordered", f.reordered),
                ("backpressure", f.backpressure_drops),
                ("partition", f.partition_drops),
                ("link", f.link_drops),
            ] {
                reg.set_int("ensemble_transport_faults_total", &[("kind", kind)], v);
            }
            let p = &health.partition;
            reg.set_int("ensemble_partition_active", &[], p.is_partitioned() as u64);
            reg.set_int(
                "ensemble_partition_components",
                &[],
                p.components.len() as u64,
            );
            reg.set_int(
                "ensemble_partition_dead_links",
                &[],
                p.dead_links.len() as u64,
            );
            reg.set_int(
                "ensemble_partition_pending_steps",
                &[],
                p.pending_steps as u64,
            );
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
            &self.cast_to_deliver_ns.summary(),
        );
        reg.histogram("ensemble_handler_ns", &[], &self.handler_ns.summary());
        reg.histogram(
            "ensemble_timer_lateness_ns",
            &[],
            &self.timer_lateness_ns.summary(),
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
        reg.set_int(
            "ensemble_trace_contended_total",
            &[],
            self.recorder.contended(),
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
        obs.cast_to_deliver_ns.record(1500);
        obs.layer_handler_ns.get("mnak").record(300);
        let stats = RuntimeStats {
            shards: vec![ShardSnapshot {
                shard: 0,
                msgs_in: 1,
                stall_drops: 3,
                defer_batched: 12,
                defer_flushes: 2,
                ..ShardSnapshot::default()
            }],
            transport: None,
        };
        let text = obs.metrics_text(&stats);
        for series in [
            "ensemble_msgs_total{shard=\"0\",dir=\"in\"} 1",
            "ensemble_bypass_total{shard=\"0\",result=\"hit\"}",
            "ensemble_defer_batched_total{shard=\"0\"} 12",
            "ensemble_defer_flushes_total{shard=\"0\"} 2",
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
        assert!(
            !text.contains("ensemble_transport_faults_total"),
            "fault series need a registered health source"
        );
    }

    #[test]
    fn exposition_renders_transport_health_when_present() {
        use crate::fault::{FaultCounts, PartitionStatus};
        use crate::metrics::TransportHealth;
        let obs = NodeObs::new(true, 1, 64);
        let stats = RuntimeStats {
            shards: vec![],
            transport: Some(TransportHealth {
                faults: FaultCounts {
                    dropped: 2,
                    partition_drops: 5,
                    link_drops: 1,
                    ..FaultCounts::default()
                },
                partition: PartitionStatus {
                    components: vec![vec![0, 1], vec![2]],
                    dead_links: vec![(3, 4)],
                    pending_steps: 7,
                },
            }),
        };
        let text = obs.metrics_text(&stats);
        for series in [
            "ensemble_transport_faults_total{kind=\"dropped\"} 2",
            "ensemble_transport_faults_total{kind=\"partition\"} 5",
            "ensemble_transport_faults_total{kind=\"link\"} 1",
            "ensemble_partition_active 1",
            "ensemble_partition_components 2",
            "ensemble_partition_dead_links 1",
            "ensemble_partition_pending_steps 7",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
    }

    #[test]
    fn disabled_obs_still_renders() {
        let obs = NodeObs::new(false, 1, 8192);
        assert!(!obs.enabled());
        let text = obs.metrics_text(&RuntimeStats::default());
        assert!(text.contains("ensemble_trace_events_total 0"));
    }
}
