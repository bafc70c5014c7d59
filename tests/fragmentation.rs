//! Arbitrary-size messages through fragmentation, over faults.

use ensemble::sim::{EngineKind, Simulation};
use ensemble::{FaultPlan, LayerConfig, ETHERNET_LATENCY, STACK_10, VIA_LATENCY};
use ensemble_util::{DetRng, Duration};

#[test]
fn large_cast_reassembles() {
    let mut sim = Simulation::new(
        3,
        STACK_10,
        EngineKind::Imp,
        LayerConfig::fast(),
        ETHERNET_LATENCY,
        2,
    )
    .unwrap();
    let body: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
    sim.cast(0, &body);
    sim.run_to_quiescence();
    for r in 0..3 {
        let d = sim.cast_deliveries(r);
        assert_eq!(d.len(), 1, "rank {r}");
        assert_eq!(d[0].1, body, "rank {r} got the bytes back");
    }
}

#[test]
fn large_send_reassembles_under_loss() {
    let mut sim = Simulation::new(
        2,
        STACK_10,
        EngineKind::Imp,
        LayerConfig::fast(),
        Duration::from_micros(20),
        0xF4A6,
    )
    .unwrap();
    sim.set_plan(FaultPlan::lossy(0.1, 0.02, 0.2));
    let mut rng = DetRng::new(1);
    let mut body = vec![0u8; 6_000];
    rng.fill_bytes(&mut body);
    sim.send(0, 1, &body);
    sim.run_for(Duration::from_millis(200));
    let d = sim.send_deliveries(1);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].1, body);
}

#[test]
fn mixed_sizes_keep_order() {
    let mut sim = Simulation::new(
        2,
        STACK_10,
        EngineKind::Func,
        LayerConfig::fast(),
        VIA_LATENCY,
        5,
    )
    .unwrap();
    let sizes = [1usize, 2000, 4, 1400, 1401, 3000, 10];
    for (i, &s) in sizes.iter().enumerate() {
        sim.cast(0, &vec![i as u8; s]);
    }
    sim.run_to_quiescence();
    let d = sim.cast_deliveries(1);
    assert_eq!(d.len(), sizes.len());
    for (i, (_, body)) in d.iter().enumerate() {
        assert_eq!(body.len(), sizes[i], "message {i} size");
        assert!(body.iter().all(|&b| b == i as u8), "message {i} content");
    }
}

/// Deterministic randomized sweep standing in for the proptest version
/// below: random payload sizes straddling the fragment boundary
/// round-trip intact and in order.
#[test]
fn random_sizes_roundtrip_det() {
    let mut meta = DetRng::new(0xF4A6_0001);
    for case in 0..10u64 {
        let mut rng = meta.fork();
        let n = rng.range(1, 9) as usize;
        let sizes: Vec<usize> = (0..n).map(|_| rng.range(1, 3_999) as usize).collect();
        let seed = rng.below(300);
        let mut sim = Simulation::new(
            2,
            STACK_10,
            EngineKind::Imp,
            LayerConfig::fast(),
            VIA_LATENCY,
            seed,
        )
        .unwrap();
        for (i, &s) in sizes.iter().enumerate() {
            sim.cast(0, &vec![(i % 251) as u8; s]);
        }
        sim.run_to_quiescence();
        let d = sim.cast_deliveries(1);
        assert_eq!(d.len(), sizes.len(), "case {case}");
        for (i, (_, body)) in d.iter().enumerate() {
            assert_eq!(body.len(), sizes[i], "case {case}, message {i}");
        }
    }
}

// The original proptest property test, kept behind a feature because the
// default build must resolve with no crates.io access. To run it, re-add
// `proptest = "1"` as a dev-dependency of `ensemble` and pass
// `--features proptests`.
#[cfg(feature = "proptests")]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random payload sizes straddling the fragment boundary round-trip
    /// intact and in order.
    #[test]
    fn random_sizes_roundtrip(
        sizes in prop::collection::vec(1usize..4_000, 1..10),
        seed in 0u64..300,
    ) {
        let mut sim = Simulation::new(
            2,
            STACK_10,
            EngineKind::Imp,
            LayerConfig::fast(),
            VIA_LATENCY,
            seed,
        )
        .unwrap();
        for (i, &s) in sizes.iter().enumerate() {
            sim.cast(0, &vec![(i % 251) as u8; s]);
        }
        sim.run_to_quiescence();
        let d = sim.cast_deliveries(1);
        prop_assert_eq!(d.len(), sizes.len());
        for (i, (_, body)) in d.iter().enumerate() {
            prop_assert_eq!(body.len(), sizes[i]);
        }
    }
    }
}
