//! Total-order agreement across the real stacks, including under faults
//! and with property-based workloads.

use ensemble::sim::{EngineKind, Simulation};
use ensemble::{FaultPlan, LayerConfig, ETHERNET_LATENCY, STACK_10, VIA_LATENCY};
use ensemble_ioa::props::total_order_agreement;
use ensemble_util::Duration;

fn agreement_holds(sim: &Simulation, n: u32) {
    let per: Vec<Vec<(u32, Vec<u8>)>> = (0..n).map(|r| sim.cast_deliveries(r)).collect();
    assert!(
        total_order_agreement(&per),
        "delivery sequences disagree: {per:?}"
    );
}

#[test]
fn concurrent_senders_agree() {
    let mut sim = Simulation::new(
        4,
        STACK_10,
        EngineKind::Imp,
        LayerConfig::fast(),
        ETHERNET_LATENCY,
        1,
    )
    .unwrap();
    // All four members cast interleaved.
    for round in 0..10u8 {
        for sender in 0..4u8 {
            sim.cast(sender as u32, &[sender * 60 + round]);
        }
        sim.run_for(Duration::from_micros(120));
    }
    sim.run_to_quiescence();
    agreement_holds(&sim, 4);
    // And everyone delivered everything.
    for r in 0..4 {
        assert_eq!(sim.cast_deliveries(r).len(), 40, "rank {r}");
    }
}

#[test]
fn agreement_survives_loss() {
    let mut sim = Simulation::new(
        3,
        STACK_10,
        EngineKind::Imp,
        LayerConfig::fast(),
        Duration::from_micros(30),
        0xBADBEEF,
    )
    .unwrap();
    sim.set_plan(FaultPlan::lossy(0.2, 0.05, 0.2));
    for i in 0..12u8 {
        sim.cast(1, &[i]);
        sim.cast(2, &[100 + i]);
        sim.run_for(Duration::from_micros(400));
    }
    sim.run_for(Duration::from_millis(300));
    agreement_holds(&sim, 3);
    assert_eq!(sim.cast_deliveries(0).len(), 24, "all repaired");
}

#[test]
fn nonsequencer_casts_are_ordered_by_the_sequencer() {
    let mut sim = Simulation::new(
        2,
        STACK_10,
        EngineKind::Func,
        LayerConfig::fast(),
        VIA_LATENCY,
        3,
    )
    .unwrap();
    // Only the non-sequencer casts.
    for i in 0..8u8 {
        sim.cast(1, &[i]);
    }
    sim.run_to_quiescence();
    let expected: Vec<(u32, Vec<u8>)> = (0..8u8).map(|i| (1, vec![i])).collect();
    assert_eq!(sim.cast_deliveries(0), expected);
    assert_eq!(sim.cast_deliveries(1), expected, "sender included");
}

/// Deterministic randomized sweep standing in for the proptest version
/// below: random interleavings of casters, payloads, and pauses always
/// agree. Driven by [`ensemble_util::DetRng`] so it needs no external
/// crates and reproduces bit-for-bit.
#[test]
fn random_workloads_agree_det() {
    let mut meta = ensemble_util::DetRng::new(0x0007_07A1);
    for case in 0..12u64 {
        let mut rng = meta.fork();
        let nops = rng.range(1, 39) as usize;
        let ops: Vec<(u32, usize)> = (0..nops)
            .map(|_| (rng.below(3) as u32, rng.range(1, 23) as usize))
            .collect();
        let seed = rng.below(1000);
        let mut sim = Simulation::new(
            3,
            STACK_10,
            EngineKind::Imp,
            LayerConfig::fast(),
            VIA_LATENCY,
            seed,
        )
        .unwrap();
        let mut sent = 0usize;
        for (sender, len) in &ops {
            sim.cast(*sender, &vec![*sender as u8; *len]);
            sent += 1;
            if sent.is_multiple_of(5) {
                sim.run_for(Duration::from_micros(50));
            }
        }
        sim.run_to_quiescence();
        let per: Vec<Vec<(u32, Vec<u8>)>> = (0..3).map(|r| sim.cast_deliveries(r)).collect();
        assert!(total_order_agreement(&per), "case {case}");
        for (r, d) in per.iter().enumerate() {
            assert_eq!(d.len(), ops.len(), "case {case}: rank {r} delivered all");
        }
    }
}

/// Deterministic randomized sweep: under loss, whatever prefix is
/// delivered agrees.
#[test]
fn lossy_random_workloads_agree_det() {
    let mut meta = ensemble_util::DetRng::new(0x0007_07A2);
    for case in 0..8u64 {
        let mut rng = meta.fork();
        let nmsgs = rng.range(1, 19) as usize;
        let drop = rng.below(30) as f64 / 100.0;
        let seed = rng.below(500);
        let mut sim = Simulation::new(
            3,
            STACK_10,
            EngineKind::Imp,
            LayerConfig::fast(),
            Duration::from_micros(20),
            seed,
        )
        .unwrap();
        sim.set_plan(FaultPlan::lossy(drop, 0.02, 0.2));
        for i in 0..nmsgs {
            sim.cast((i % 3) as u32, &[i as u8]);
            sim.run_for(Duration::from_micros(200));
        }
        sim.run_for(Duration::from_millis(100));
        let per: Vec<Vec<(u32, Vec<u8>)>> = (0..3).map(|r| sim.cast_deliveries(r)).collect();
        assert!(total_order_agreement(&per), "case {case}");
    }
}

// The original proptest property tests, kept behind a feature because the
// default build must resolve with no crates.io access. To run them, re-add
// `proptest = "1"` as a dev-dependency of `ensemble` and pass
// `--features proptests`.
#[cfg(feature = "proptests")]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of casters, payloads, and pauses always agree.
    #[test]
    fn random_workloads_agree(
        ops in prop::collection::vec((0u32..3, 1usize..24), 1..40),
        seed in 0u64..1000,
    ) {
        let mut sim = Simulation::new(
            3,
            STACK_10,
            EngineKind::Imp,
            LayerConfig::fast(),
            VIA_LATENCY,
            seed,
        )
        .unwrap();
        let mut sent = 0usize;
        for (sender, len) in &ops {
            sim.cast(*sender, &vec![*sender as u8; *len]);
            sent += 1;
            if sent.is_multiple_of(5) {
                sim.run_for(Duration::from_micros(50));
            }
        }
        sim.run_to_quiescence();
        let per: Vec<Vec<(u32, Vec<u8>)>> =
            (0..3).map(|r| sim.cast_deliveries(r)).collect();
        prop_assert!(total_order_agreement(&per));
        for (r, d) in per.iter().enumerate() {
            prop_assert_eq!(d.len(), ops.len(), "rank {} delivered all", r);
        }
    }

    /// Under loss, whatever prefix is delivered agrees.
    #[test]
    fn lossy_random_workloads_agree(
        nmsgs in 1usize..20,
        drop in 0u32..30,
        seed in 0u64..500,
    ) {
        let mut sim = Simulation::new(
            3,
            STACK_10,
            EngineKind::Imp,
            LayerConfig::fast(),
            Duration::from_micros(20),
            seed,
        )
        .unwrap();
        sim.set_plan(FaultPlan::lossy(drop as f64 / 100.0, 0.02, 0.2));
        for i in 0..nmsgs {
            sim.cast((i % 3) as u32, &[i as u8]);
            sim.run_for(Duration::from_micros(200));
        }
        sim.run_for(Duration::from_millis(100));
        let per: Vec<Vec<(u32, Vec<u8>)>> =
            (0..3).map(|r| sim.cast_deliveries(r)).collect();
        prop_assert!(total_order_agreement(&per));
    }
    }
}
