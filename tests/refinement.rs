//! Cross-crate verification: the IOA properties checked on real stack
//! executions, and configuration checking on selected stacks.
//!
//! §3 of the paper separates *specification* (IOA) from *implementation*
//! (OCaml, here the Rust layers). This suite ties the two: trace
//! predicates defined for the abstract automata are applied to executions
//! of the actual protocol stacks over faulty networks.

use ensemble::sim::{EngineKind, Simulation};
use ensemble::{check_stack, select_stack, FaultPlan, LayerConfig, Property, STACK_10};
use ensemble_ioa::props::{is_prefix, total_order_agreement};
use ensemble_ioa::protocol::{FifoProtocol, TotalProtocol};
use ensemble_ioa::specs::{FifoNetwork, TotalOrderSpec};
use ensemble_ioa::{check_refinement, RefineError, RefineOptions, Value};
use ensemble_util::Duration;

fn msgs() -> Vec<Value> {
    vec![Value::sym("a"), Value::sym("b")]
}

/// The headline §3.1 check, at a larger bound than the unit tests.
#[test]
fn sliding_window_refines_fifo_network_deeply() {
    let imp = FifoProtocol::new(msgs(), 3);
    let spec = FifoNetwork::new(vec![1], msgs(), 3);
    let opts = RefineOptions {
        max_depth: 30,
        max_nodes: 400_000,
        ..RefineOptions::default()
    };
    let stats = check_refinement(&imp, &spec, opts).unwrap_or_else(|e| panic!("{e}"));
    // The bounded model is exhausted (max_sends = 3): ~1k product nodes,
    // every one of them a checked simulation step.
    assert!(stats.nodes > 500, "{stats:?}");
}

#[test]
fn buggy_total_protocol_counterexample_is_minimal_shaped() {
    let imp = TotalProtocol::new_buggy(2, msgs(), 2);
    let spec = TotalOrderSpec::new(2, msgs(), 2);
    match check_refinement(&imp, &spec, RefineOptions::default()) {
        Err(RefineError::Violation { trace }) => {
            // Cast(1,m); Deliver(1,m) eagerly; then the sequencer's own
            // traffic exposes the disagreement. BFS yields a shortest
            // counterexample, which must involve both processes.
            let text = format!("{trace:?}");
            assert!(text.contains("Deliver"), "{text}");
            assert!(trace.len() >= 3, "{text}");
        }
        other => panic!("expected violation, got {other:?}"),
    }
}

/// Every stack the property-driven selector produces passes the
/// Above/Below interface check (§3.2's configuration hardening).
#[test]
fn all_selected_stacks_type_check() {
    use Property::*;
    let singles = [
        ReliableCast,
        ReliableSend,
        Fifo,
        TotalOrder,
        LocalDelivery,
        BigMessages,
        CastFlowControl,
        SendFlowControl,
        Stability,
        FailureDetection,
        Membership,
        VirtualSynchrony,
        Integrity,
        Privacy,
    ];
    for p in singles {
        let s = select_stack(&[p]);
        check_stack(&s).unwrap_or_else(|e| panic!("{p:?} → {s:?}: {e}"));
    }
    // And all pairs.
    for a in singles {
        for b in singles {
            let s = select_stack(&[a, b]);
            check_stack(&s).unwrap_or_else(|e| panic!("{a:?}+{b:?} → {s:?}: {e}"));
        }
    }
}

/// The FIFO trace property, checked on the real 10-layer stack under
/// loss: per-origin delivered sequences must be prefixes of the cast
/// sequences.
#[test]
fn real_stack_executions_satisfy_fifo_property() {
    for seed in 0..5u64 {
        let mut sim = Simulation::new(
            3,
            STACK_10,
            EngineKind::Imp,
            LayerConfig::fast(),
            Duration::from_micros(25),
            seed,
        )
        .unwrap();
        sim.set_plan(FaultPlan::lossy(0.15, 0.05, 0.2));
        let mut sent: Vec<Vec<u8>> = Vec::new();
        for i in 0..20u8 {
            sim.cast(1, &[i]);
            sent.push(vec![i]);
            sim.run_for(Duration::from_micros(150));
        }
        sim.run_for(Duration::from_millis(50));
        for r in [0u32, 2] {
            let delivered: Vec<Vec<u8>> =
                sim.cast_deliveries(r).into_iter().map(|(_, b)| b).collect();
            assert!(
                is_prefix(&delivered, &sent),
                "seed {seed} rank {r}: {delivered:?}"
            );
        }
    }
}

/// Agreement checked against the same predicate the IOA models use.
#[test]
fn real_stack_executions_satisfy_agreement_property() {
    let mut sim = Simulation::new(
        3,
        STACK_10,
        EngineKind::Func,
        LayerConfig::fast(),
        Duration::from_micros(25),
        0xA6EE,
    )
    .unwrap();
    sim.set_plan(FaultPlan::lossy(0.1, 0.03, 0.2));
    for i in 0..10u8 {
        sim.cast(0, &[i]);
        sim.cast(2, &[200 + i]);
        sim.run_for(Duration::from_micros(300));
    }
    sim.run_for(Duration::from_millis(120));
    let per: Vec<Vec<(u32, Vec<u8>)>> = (0..3).map(|r| sim.cast_deliveries(r)).collect();
    assert!(total_order_agreement(&per), "{per:?}");
}
