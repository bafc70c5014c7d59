//! Quickstart: a three-member group exchanging totally ordered multicasts
//! over a simulated lossy Ethernet.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ensemble::sim::{EngineKind, Simulation};
use ensemble::{check_stack, FaultPlan, LayerConfig, ETHERNET_LATENCY, STACK_10};
use ensemble_util::Duration;

fn main() {
    // 1. Pick a stack. STACK_10 is the paper's 10-layer configuration:
    //    virtually synchronous reliable multicast with total order, flow
    //    control, and fragmentation.
    println!("stack: {STACK_10:?}");

    // 2. Check the configuration (§3.2's Above/Below interface check).
    check_stack(STACK_10).expect("configuration is sound");
    println!("configuration check: ok");

    // 3. Run three members over a hostile Ethernet: 10 % loss, 2 %
    //    duplication, 10 % of the copies arriving late (reordered).
    let (kind, cfg) = (EngineKind::Imp, LayerConfig::fast());
    let mut sim =
        Simulation::new(3, STACK_10, kind, cfg, ETHERNET_LATENCY, 42).expect("stack builds");
    sim.set_plan(FaultPlan::lossy(0.10, 0.02, 0.10));

    // 4. Everybody talks.
    for i in 0..5u8 {
        sim.cast(0, format!("from-0 #{i}").as_bytes());
        sim.cast(1, format!("from-1 #{i}").as_bytes());
        sim.cast(2, format!("from-2 #{i}").as_bytes());
        sim.run_for(Duration::from_micros(500));
    }
    // Let retransmissions settle.
    sim.run_for(Duration::from_millis(100));

    // 5. Every member delivered the same messages in the same total order.
    let reference = sim.cast_deliveries(0);
    println!("\ndeliveries at every member (identical order):");
    for (origin, body) in &reference {
        println!("  ep{origin}: {}", String::from_utf8_lossy(body));
    }
    for r in 1..3 {
        assert_eq!(sim.cast_deliveries(r), reference, "agreement at rank {r}");
    }
    let faults = sim.fault_counts();
    println!(
        "\nnetwork: {} copies dropped, {} duplicated, {} reordered — all masked",
        faults.dropped, faults.duplicated, faults.reordered
    );
    println!(
        "quickstart ok: {} messages, total order preserved",
        reference.len()
    );
}
