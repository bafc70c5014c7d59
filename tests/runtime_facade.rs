//! The runtime is reachable through the `ensemble` facade and behaves
//! like the simulator for the same workload: same stack constants, same
//! engine kinds, same delivery guarantees — one in virtual time, one in
//! wall-clock time over the loopback hub.

use ensemble::runtime::{Delivery, FaultPlan, LoopbackHub, Node, RuntimeConfig};
use ensemble::sim::{EngineKind, Simulation};
use ensemble::{LayerConfig, ViewState, STACK_4, VIA_LATENCY};
use ensemble_util::Rank;
use std::time::{Duration, Instant};

const N: u32 = 200;

fn runtime_deliveries(kind: EngineKind) -> Vec<(u32, Vec<u8>)> {
    let hub = LoopbackHub::with_faults(42, FaultPlan::lossy(0.01, 0.0, 0.02));
    let vs = ViewState::initial(2);
    let mut node = Node::new(RuntimeConfig::default());
    let a = node
        .join(
            STACK_4,
            vs.for_rank(Rank(0)),
            kind,
            LayerConfig::fast(),
            Box::new(hub.attach(vs.members[0])),
        )
        .expect("join a");
    let b = node
        .join(
            STACK_4,
            vs.for_rank(Rank(1)),
            kind,
            LayerConfig::fast(),
            Box::new(hub.attach(vs.members[1])),
        )
        .expect("join b");
    let receiver = std::thread::spawn(move || {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        while got.len() < N as usize && Instant::now() < deadline {
            if let Some(Delivery::Cast { origin, bytes }) =
                b.recv_timeout(Duration::from_millis(100))
            {
                if bytes.len() == 4 {
                    got.push((origin, bytes));
                }
            }
        }
        got
    });
    for i in 0..N {
        a.cast(&i.to_le_bytes()).expect("cast");
    }
    hub.set_plan(FaultPlan::clean());
    let got = loop {
        if receiver.is_finished() {
            break receiver.join().expect("receiver");
        }
        a.cast(&[0xFF; 8]).expect("flush");
        std::thread::sleep(Duration::from_millis(10));
    };
    node.shutdown();
    got
}

/// The runtime delivers the same (origin, payload) stream the simulator
/// delivers for an identical workload.
#[test]
fn facade_runtime_agrees_with_simulator() {
    let mut sim = Simulation::new(
        2,
        STACK_4,
        EngineKind::Imp,
        LayerConfig::fast(),
        VIA_LATENCY,
        42,
    )
    .unwrap();
    for i in 0..N {
        sim.cast(0, &i.to_le_bytes());
    }
    sim.run_to_quiescence();
    let sim_got = sim.cast_deliveries(1);

    let rt_got = runtime_deliveries(EngineKind::Imp);
    assert_eq!(rt_got, sim_got, "runtime and simulator deliveries differ");
}

/// Both engine kinds produce the same delivery stream under the runtime.
#[test]
fn facade_engines_agree_under_runtime() {
    assert_eq!(
        runtime_deliveries(EngineKind::Imp),
        runtime_deliveries(EngineKind::Func)
    );
}

/// The synthesized bypass is installable through the facade and carries
/// clean traffic.
#[test]
fn facade_bypass_hits_on_clean_loopback() {
    let hub = LoopbackHub::new(7);
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
    let receiver = std::thread::spawn(move || {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while got.len() < 100 && Instant::now() < deadline {
            if let Some(Delivery::Cast { bytes, .. }) = b.recv_timeout(Duration::from_millis(100)) {
                got.push(bytes[0]);
            }
        }
        got
    });
    for i in 0..100u8 {
        a.cast(&[i]).expect("cast");
    }
    let got = receiver.join().expect("receiver");
    assert_eq!(got, (0..100).collect::<Vec<u8>>());
    assert!(
        node.stats().totals().bypass_hits >= 100,
        "fast path must carry the clean traffic"
    );
    node.shutdown();
}
