//! Observability integration: the flight recorder, per-layer attribution,
//! and cast→deliver latency over a live two-member group.

use ensemble_event::ViewState;
use ensemble_layers::{LayerConfig, STACK_4};
use ensemble_obs::EventKind;
use ensemble_runtime::{Delivery, LoopbackHub, Node, RuntimeConfig};
use ensemble_stack::EngineKind;
use ensemble_util::Rank;
use std::time::{Duration, Instant};

const CASTS: u32 = 700;

fn collect_casts(h: &ensemble_runtime::GroupHandle, want: usize) -> usize {
    let mut got = 0;
    let deadline = Instant::now() + Duration::from_secs(60);
    while got < want && Instant::now() < deadline {
        if let Some(Delivery::Cast { .. }) = h.recv_timeout(Duration::from_millis(100)) {
            got += 1;
        }
    }
    got
}

#[test]
fn flight_recorder_traces_a_live_group_end_to_end() {
    let hub = LoopbackHub::new(0x0B50_0001);
    let vs = ViewState::initial(2);
    let mut node = Node::new(RuntimeConfig::default());
    let a = node
        .join(
            STACK_4,
            vs.for_rank(Rank(0)),
            EngineKind::Imp,
            LayerConfig::fast(),
            Box::new(hub.attach(vs.members[0])),
        )
        .expect("join a");
    let b = node
        .join(
            STACK_4,
            vs.for_rank(Rank(1)),
            EngineKind::Imp,
            LayerConfig::fast(),
            Box::new(hub.attach(vs.members[1])),
        )
        .expect("join b");

    // Traffic both ways so both shards write their rings.
    for i in 0..CASTS {
        a.cast(&i.to_le_bytes()).expect("cast a");
        b.cast(&i.to_le_bytes()).expect("cast b");
    }
    assert_eq!(collect_casts(&b, CASTS as usize), CASTS as usize);
    assert_eq!(collect_casts(&a, CASTS as usize), CASTS as usize);

    // ≥1000 structured events must have been recorded (2×700 casts alone
    // produce cast + packet_out + packet_in + deliver each), and the
    // drain must resolve every layer tag to a known name.
    let events = node.obs().drain();
    assert!(
        events.len() >= 1000,
        "expected ≥1000 trace events, drained {} (recorded {}, overwritten {})",
        events.len(),
        node.obs().recorder.recorded(),
        node.obs().recorder.overwritten(),
    );
    let known = ["app", "bypass", "engine", "wire"];
    for e in &events {
        assert!(
            known.contains(&e.layer) || STACK_4.contains(&e.layer),
            "event attributed to unknown layer {:?}",
            e.layer
        );
    }
    let kinds = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
    assert!(kinds(EventKind::Cast) > 0, "app casts traced");
    assert!(kinds(EventKind::PacketOut) > 0, "wire egress traced");
    assert!(kinds(EventKind::PacketIn) > 0, "wire ingress traced");
    assert!(kinds(EventKind::Deliver) > 0, "deliveries traced");
    // Timer fires carry real layer names (per-layer attribution).
    let timer_layers: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == EventKind::TimerFire)
        .map(|e| e.layer)
        .collect();
    assert!(!timer_layers.is_empty(), "layer timers must have fired");
    for l in &timer_layers {
        assert!(STACK_4.contains(l), "timer attributed to a stack layer");
    }

    // Latency flowed: the loopback hub carries origin stamps, so the full
    // cast→deliver path is measured and its tail is nonzero.
    let lat = node.obs().cast_to_deliver_ns().summary();
    assert!(
        lat.count >= u64::from(2 * CASTS),
        "each delivered cast contributes a latency sample (got {})",
        lat.count
    );
    assert!(lat.p99 > 0, "cast→deliver p99 must be nonzero");
    assert!(lat.p50 <= lat.p99 && lat.p99 <= lat.max);

    // The exposition folds it all together.
    let text = node.metrics_text();
    for series in [
        "ensemble_msgs_total",
        "ensemble_bypass_total",
        "ensemble_model_cost_total{counter=\"dispatches\"}",
        "ensemble_cast_to_deliver_ns{quantile=\"0.99\"}",
        "ensemble_layer_handler_ns",
        "ensemble_trace_events_total",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }
    // data_refs are plumbed (one per marshal/unmarshal at minimum).
    let totals = node.stats().totals();
    assert!(totals.model_cost.data_refs > 0, "data_refs must be counted");

    node.shutdown();
}

/// The value of the unlabelled series `name` in an exposition.
fn series(text: &str, name: &str) -> u64 {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
    line.unwrap_or_else(|| panic!("no {name} in:\n{text}"))
        .parse()
        .expect("an integer sample")
}

#[test]
fn handler_time_counts_every_event_both_shards_handled() {
    let hub = LoopbackHub::new(0x0B50_0004);
    let vs = ViewState::initial(2);
    let mut node = Node::new(RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    });
    // Round-robin placement: one member per shard.
    let handles: Vec<_> = (0..2)
        .map(|r| {
            let h = node.join(
                STACK_4,
                vs.for_rank(Rank(r)),
                EngineKind::Imp,
                LayerConfig::fast(),
                Box::new(hub.attach(vs.members[r as usize])),
            );
            h.expect("join")
        })
        .collect();
    for i in 0..CASTS {
        for h in &handles {
            h.cast(&i.to_le_bytes()).expect("cast");
        }
    }
    for h in &handles {
        assert_eq!(collect_casts(h, CASTS as usize), CASTS as usize);
    }
    // Stopped workers handle nothing more: the counts hold still.
    node.shutdown();
    let stats = node.stats();
    assert_eq!(stats.shards.len(), 2);
    let commands = 2 * u64::from(CASTS);
    let packets: u64 = stats.shards.iter().map(|s| s.msgs_in).sum();
    let timers: u64 = stats.shards.iter().map(|s| s.timers_fired).sum();
    assert!(
        stats.shards.iter().all(|s| s.msgs_in > 0),
        "both shards ran"
    );
    let text = node.metrics_text();
    assert_eq!(
        series(&text, "ensemble_handler_ns_count"),
        commands + packets + timers,
        "one handler_ns sample per command ({commands}), packet ({packets}) and timer ({timers})"
    );
    assert_eq!(
        series(&text, "ensemble_cast_to_deliver_ns_count"),
        node.obs().cast_to_deliver_ns().count()
    );
}

#[test]
fn bypass_events_mark_the_fast_path_and_its_edges() {
    let hub = LoopbackHub::new(0x0B50_0002);
    let vs = ViewState::initial(2);
    let mut node = Node::new(RuntimeConfig::default());
    let a = node
        .join(
            STACK_4,
            vs.for_rank(Rank(0)),
            EngineKind::Imp,
            LayerConfig::default(),
            Box::new(hub.attach(vs.members[0])),
        )
        .expect("join a");
    let b = node
        .join(
            STACK_4,
            vs.for_rank(Rank(1)),
            EngineKind::Imp,
            LayerConfig::default(),
            Box::new(hub.attach(vs.members[1])),
        )
        .expect("join b");
    a.install_bypass().expect("bypass a");
    b.install_bypass().expect("bypass b");

    for i in 0..200u32 {
        a.cast(&i.to_le_bytes()).expect("cast");
    }
    assert_eq!(collect_casts(&b, 200), 200);

    // The 200th delivery reaches the app channel slightly before the
    // worker finishes writing its trace event; re-drain until the ring
    // catches up rather than racing it.
    let mut events = node.obs().drain();
    let count_hits = |evs: &[ensemble_obs::TraceEvent]| {
        evs.iter()
            .filter(|e| e.kind == EventKind::BypassHit)
            .count()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while count_hits(&events) < 400 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        events.extend(node.obs().drain());
    }
    let hits = count_hits(&events);
    assert!(
        hits >= 400,
        "sender + receiver fast paths both trace hits (got {hits})"
    );
    assert!(
        events
            .iter()
            .filter(|e| e.kind == EventKind::BypassHit)
            .all(|e| e.layer == "bypass"),
        "hits attributed to the bypass pseudo-layer"
    );
    // Branch/data-ref model costs flow from the compiled programs.
    let cost = node.stats().totals().model_cost;
    assert!(cost.branches > 0, "CCP conjuncts counted as branches");
    assert!(cost.data_refs > 0, "wire/update ops counted as data refs");
    node.shutdown();
}

#[test]
fn disabled_obs_records_nothing() {
    let hub = LoopbackHub::new(0x0B50_0003);
    let vs = ViewState::initial(2);
    let mut node = Node::new(RuntimeConfig {
        obs: false,
        ..RuntimeConfig::default()
    });
    let a = node
        .join(
            STACK_4,
            vs.for_rank(Rank(0)),
            EngineKind::Imp,
            LayerConfig::fast(),
            Box::new(hub.attach(vs.members[0])),
        )
        .expect("join a");
    let b = node
        .join(
            STACK_4,
            vs.for_rank(Rank(1)),
            EngineKind::Imp,
            LayerConfig::fast(),
            Box::new(hub.attach(vs.members[1])),
        )
        .expect("join b");
    for i in 0..50u32 {
        a.cast(&i.to_le_bytes()).expect("cast");
    }
    assert_eq!(collect_casts(&b, 50), 50);
    assert!(node.obs().drain().is_empty(), "tracing off records nothing");
    assert_eq!(node.obs().cast_to_deliver_ns().count(), 0);
    // The exposition still renders (counters live in ShardMetrics).
    assert!(node.metrics_text().contains("ensemble_msgs_total"));
    node.shutdown();
}
