//! End-to-end integration: full stacks over hostile networks.
//!
//! The reliable layers must mask exactly the faults the `LossyNetwork`
//! specification permits: loss, duplication, reordering.

use ensemble::sim::{EngineKind, Simulation};
use ensemble::{FaultPlan, LayerConfig, STACK_10, STACK_4, VIA_LATENCY};
use ensemble_util::Duration;

/// `n` members over a 40 µs link that drops `drop_p`, duplicates 5 % and
/// reorders 20 % of the copies.
fn lossy(n: usize, stack: &[&'static str], kind: EngineKind, drop_p: f64, seed: u64) -> Simulation {
    let latency = Duration::from_micros(40);
    let mut sim = Simulation::new(n, stack, kind, LayerConfig::fast(), latency, seed).unwrap();
    sim.set_plan(FaultPlan::lossy(drop_p, 0.05, 0.2));
    sim
}

#[test]
fn casts_survive_loss_duplication_and_reordering() {
    let mut sim = lossy(3, STACK_10, EngineKind::Imp, 0.15, 0xE2E);
    for i in 0..30u8 {
        sim.cast(1, &[i]);
        sim.run_for(Duration::from_micros(200));
    }
    // Give the NAK/retransmission machinery time to repair.
    sim.run_for(Duration::from_millis(200));
    for r in [0u32, 2] {
        let got = sim.cast_deliveries(r);
        let expected: Vec<(u32, Vec<u8>)> = (0..30u8).map(|i| (1, vec![i])).collect();
        assert_eq!(got, expected, "rank {r}: gap-free FIFO despite faults");
    }
}

#[test]
fn sends_survive_loss() {
    let mut sim = lossy(2, STACK_4, EngineKind::Imp, 0.25, 0x5E17D);
    for i in 0..20u8 {
        sim.send(0, 1, &[i]);
        sim.run_for(Duration::from_micros(150));
    }
    sim.run_for(Duration::from_millis(100));
    let got = sim.send_deliveries(1);
    let expected: Vec<(u32, Vec<u8>)> = (0..20u8).map(|i| (0, vec![i])).collect();
    assert_eq!(got, expected);
}

#[test]
fn bidirectional_send_traffic() {
    let mut sim = lossy(3, STACK_10, EngineKind::Func, 0.1, 99);
    for i in 0..10u8 {
        sim.send(0, 1, &[i]);
        sim.send(1, 0, &[100 + i]);
        sim.run_for(Duration::from_micros(300));
    }
    sim.run_for(Duration::from_millis(100));
    assert_eq!(sim.send_deliveries(1).len(), 10);
    assert_eq!(sim.send_deliveries(0).len(), 10);
}

#[test]
fn stability_vector_advances_with_traffic() {
    let mut sim = Simulation::new(
        3,
        STACK_10,
        EngineKind::Imp,
        LayerConfig::fast(),
        VIA_LATENCY,
        4,
    )
    .unwrap();
    // Enough casts to cross the collect gossip threshold several times.
    for i in 0..64u8 {
        sim.cast(0, &[i]);
    }
    sim.run_to_quiescence();
    let st = sim.stability(1);
    assert!(!st.is_empty(), "stability reported to the application");
    assert!(st[0] > 0, "rank 0's casts became stable: {st:?}");
}

#[test]
fn flow_control_does_not_deadlock_under_burst() {
    let mut sim = Simulation::new(
        3,
        STACK_10,
        EngineKind::Imp,
        LayerConfig::fast(),
        VIA_LATENCY,
        5,
    )
    .unwrap();
    // Burst far beyond the mflow window (64).
    for i in 0..300u16 {
        sim.cast(0, &i.to_le_bytes());
    }
    sim.run_to_quiescence();
    for r in 0..3 {
        assert_eq!(
            sim.cast_deliveries(r).len(),
            300,
            "rank {r} delivered the whole burst"
        );
    }
}

#[test]
fn secure_stack_roundtrips() {
    // A custom stack with integrity and privacy layers spliced in.
    const SECURE: &[&str] = &[
        "top",
        "partial_appl",
        "total",
        "local",
        "sign",
        "encrypt",
        "frag",
        "collect",
        "pt2ptw",
        "mflow",
        "pt2pt",
        "mnak",
        "bottom",
    ];
    ensemble::check_stack(SECURE).unwrap();
    let mut sim = lossy(2, SECURE, EngineKind::Imp, 0.1, 77);
    for i in 0..10u8 {
        sim.cast(0, &[i, i, i]);
        sim.run_for(Duration::from_micros(300));
    }
    sim.run_for(Duration::from_millis(100));
    let got = sim.cast_deliveries(1);
    assert_eq!(got.len(), 10);
    for (i, (o, body)) in got.iter().enumerate() {
        assert_eq!(*o, 0);
        assert_eq!(body, &vec![i as u8; 3], "decrypted payload intact");
    }
}

#[test]
fn timer_driven_stability_variant_works() {
    // The library offers two stability protocols (the paper's library has
    // several): `collect` (delivery-count triggered) and `stable`
    // (timer-gossip). Swap one for the other and the stack still works.
    const STABLE_STACK: &[&str] = &[
        "top",
        "partial_appl",
        "total",
        "local",
        "frag",
        "stable",
        "pt2ptw",
        "mflow",
        "pt2pt",
        "mnak",
        "bottom",
    ];
    ensemble::check_stack(STABLE_STACK).unwrap();
    let mut sim = lossy(3, STABLE_STACK, EngineKind::Imp, 0.08, 21);
    for i in 0..20u8 {
        sim.cast(1, &[i]);
        sim.run_for(Duration::from_micros(250));
    }
    // Timer-driven gossip needs wall-clock (virtual) time to fire.
    sim.run_for(Duration::from_millis(100));
    for r in [0u32, 2] {
        let got = sim.cast_deliveries(r);
        assert_eq!(got.len(), 20, "rank {r}");
    }
    let st = sim.stability(0);
    assert!(
        st.iter().any(|&v| v > 0),
        "timer gossip advanced stability: {st:?}"
    );
}

#[test]
fn engines_agree_under_identical_fault_schedules() {
    let run = |kind: EngineKind| {
        let mut sim = lossy(3, STACK_10, kind, 0.12, 0xA9);
        for i in 0..15u8 {
            sim.cast(2, &[i]);
            sim.run_for(Duration::from_micros(250));
        }
        sim.run_for(Duration::from_millis(150));
        (sim.cast_deliveries(0), sim.cast_deliveries(1))
    };
    // Same seed → same drop schedule → identical outcomes, regardless of
    // engine ("the configurations must be equivalent", §4.2).
    assert_eq!(run(EngineKind::Imp), run(EngineKind::Func));
}
