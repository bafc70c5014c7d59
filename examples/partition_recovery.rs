//! Failure detection and virtual synchrony: a member is partitioned
//! away, the group detects it, flushes, and installs a new view — then
//! keeps working.
//!
//! ```sh
//! cargo run --example partition_recovery
//! ```

use ensemble::sim::{EngineKind, Simulation, TraceEvent};
use ensemble::{LayerConfig, ETHERNET_LATENCY, STACK_VSYNC};
use ensemble_util::{Duration, Endpoint};

/// Prints one span line per layer seen in `events`: when the layer was
/// first and last active (virtual µs) and what it did.
fn print_layer_spans(title: &str, events: &[TraceEvent]) {
    println!("{title} ({} trace events):", events.len());
    let mut layers: Vec<&str> = Vec::new();
    for e in events {
        if !layers.contains(&e.layer) {
            layers.push(e.layer);
        }
    }
    for layer in layers {
        let of: Vec<&TraceEvent> = events.iter().filter(|e| e.layer == layer).collect();
        let first = of.first().expect("non-empty").t_ns;
        let last = of.last().expect("non-empty").t_ns;
        let mut kinds: Vec<(&str, usize)> = Vec::new();
        for e in &of {
            match kinds.iter_mut().find(|(k, _)| *k == e.kind.name()) {
                Some((_, n)) => *n += 1,
                None => kinds.push((e.kind.name(), 1)),
            }
        }
        let detail: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}×{n}")).collect();
        println!(
            "  {layer:<10} [{:>9.1}us .. {:>9.1}us]  {}",
            first as f64 / 1e3,
            last as f64 / 1e3,
            detail.join(" ")
        );
    }
}

fn main() {
    // A failed assertion on a worker thread must fail the process, not
    // just print: CI runs this example and trusts the exit code.
    let default_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_panic(info);
        std::process::exit(101);
    }));

    let mut sim = Simulation::new(
        4,
        STACK_VSYNC,
        EngineKind::Imp,
        LayerConfig::fast(),
        ETHERNET_LATENCY,
        11,
    )
    .expect("stack builds");
    sim.enable_obs(1 << 16);

    // Normal operation: traffic flows, the failure detector pings away.
    for i in 0..6u8 {
        sim.cast(1, &[i]);
    }
    sim.run_for(Duration::from_millis(20));
    println!(
        "view 0: {:?} — {} messages delivered at ep0",
        sim.current_view(0).members,
        sim.cast_deliveries(0).len()
    );

    // Drop the steady-state trace so the next drain isolates the
    // failure-detection and membership-change window.
    sim.drain_trace();

    // The network partitions ep3 away.
    println!("\n*** partitioning ep3 away ***");
    sim.split(vec![vec![0, 1, 2], vec![3]]);
    sim.run_for(Duration::from_millis(400));

    let recovery = sim.drain_trace();
    print_layer_spans("\nper-layer activity during suspect/elect", &recovery);
    assert!(
        recovery.iter().any(|e| e.kind.name() == "view_install"),
        "the recovery window must install a view"
    );

    let v = sim.current_view(0).clone();
    println!(
        "view {}: {:?} (coordinator {})",
        v.view_id.ltime, v.members, v.view_id.coord
    );
    assert!(
        !v.members.contains(&Endpoint::new(3)),
        "ep3 was excluded by the membership protocol"
    );
    // All survivors installed the same view and agreed on the closing
    // view's messages (virtual synchrony).
    for r in [1u32, 2] {
        assert_eq!(sim.current_view(r).view_id, v.view_id, "rank {r} view");
        assert_eq!(
            sim.cast_deliveries(r),
            sim.cast_deliveries(0),
            "rank {r} deliveries"
        );
    }
    println!("survivors agree on membership and on every delivered message");

    // Life goes on in the new view.
    for i in 0..4u8 {
        sim.cast(0, &[100 + i]);
    }
    sim.run_for(Duration::from_millis(50));
    let after: Vec<Vec<u8>> = sim
        .cast_deliveries(1)
        .into_iter()
        .filter(|(_, b)| b[0] >= 100)
        .map(|(_, b)| b)
        .collect();
    println!(
        "\nnew-view traffic: ep1 delivered {} post-partition messages",
        after.len()
    );
    assert_eq!(after.len(), 4);
    println!("partition_recovery ok");
}
