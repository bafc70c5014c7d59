//! The shard hands deliveries to the application once per group turn,
//! not once per delivery — and still in order, exactly once, blocking
//! (never dropping) on a full queue.

use ensemble_event::ViewState;
use ensemble_layers::{LayerConfig, STACK_10};
use ensemble_runtime::{Delivery, GroupHandle, LoopbackHub, Node, RuntimeConfig};
use ensemble_stack::EngineKind;
use ensemble_util::Rank;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Waits for the first `n` casts from member 0 at `h` and returns their
/// sequence numbers in arrival order, plus how many deliveries of any
/// kind arrived meanwhile. Gives up after 30 s.
fn casts_from_0(h: &GroupHandle, n: u32) -> (Vec<u32>, u64) {
    let mut seqs = Vec::with_capacity(n as usize);
    let mut deliveries = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    while seqs.len() < n as usize && Instant::now() < deadline {
        let Some(d) = h.recv_timeout(Duration::from_millis(100)) else {
            continue;
        };
        deliveries += 1;
        if let Delivery::Cast { origin: 0, bytes } = d {
            seqs.push(u32::from_le_bytes(bytes.try_into().expect("4-byte cast")));
        }
    }
    (seqs, deliveries)
}

/// `got` is exactly `0..n`, reported without printing thousands of
/// numbers.
fn assert_all_in_order(got: &[u32], n: u32, who: &str) {
    let first_wrong = got.iter().zip(0..).position(|(&g, want)| g != want);
    assert!(
        got.len() == n as usize && first_wrong.is_none(),
        "{who}: {} of {n} casts, first out of order at {first_wrong:?}",
        got.len()
    );
}

/// No cast from member 0 arrives at `h` within `wait`; whatever else
/// arrives meanwhile is drained.
fn no_more_casts(h: &GroupHandle, wait: Duration) -> bool {
    let deadline = Instant::now() + wait;
    while Instant::now() < deadline {
        if let Some(Delivery::Cast { origin: 0, .. }) = h.recv_timeout(Duration::from_millis(10)) {
            return false;
        }
    }
    true
}

#[test]
fn a_backlog_reaches_the_application_in_one_hand_off_not_one_per_cast() {
    // Inside the credit window, so the sender never waits for the
    // receiver, which does not exist yet.
    const K: u32 = 48;
    assert!(u64::from(K) <= LayerConfig::default().mflow_window);
    let hub = LoopbackHub::new(0x2601);
    let vs = ViewState::initial(2);
    // The receiver's ingress channel exists before its node does: the
    // casts queue there.
    let b_transport = hub.attach(vs.members[1]);
    let mut sender = Node::new(RuntimeConfig::default());
    let a = sender
        .join(
            STACK_10,
            vs.for_rank(Rank(0)),
            EngineKind::Imp,
            LayerConfig::default(),
            Box::new(hub.attach(vs.members[0])),
        )
        .expect("join a");
    for i in 0..K {
        a.cast(&i.to_le_bytes()).expect("cast");
    }
    // A member's own copy is handed over after the turn that transmitted
    // it, so once all K are back every cast is queued at the receiver.
    let (own, _) = casts_from_0(&a, K);
    assert_all_in_order(&own, K, "sender's own deliveries");

    let mut receiver = Node::new(RuntimeConfig::default());
    let b = receiver
        .join(
            STACK_10,
            vs.for_rank(Rank(1)),
            EngineKind::Imp,
            LayerConfig::default(),
            Box::new(b_transport),
        )
        .expect("join b");
    let (got, mut deliveries) = casts_from_0(&b, K);
    assert_all_in_order(&got, K, "receiver");
    // A flush is counted just after its last delivery is queued, so the
    // casts can be here before their hand-off is counted.
    let flushes = || receiver.stats().totals().delivery_flushes;
    let deadline = Instant::now() + Duration::from_secs(10);
    while flushes() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Every flush counted here has finished queueing, so draining now
    // sees all of its deliveries.
    let flushes = flushes();
    while b.try_recv().is_some() {
        deliveries += 1;
    }
    assert!(flushes >= 1, "deliveries were handed over");
    assert!(
        deliveries * 2 >= u64::from(K) * flushes,
        "{deliveries} deliveries in {flushes} hand-offs: fewer than {} per hand-off",
        K / 2
    );
    assert!(no_more_casts(&b, Duration::from_millis(50)), "exactly once");
    sender.shutdown();
    receiver.shutdown();
}

#[test]
fn a_new_view_ends_the_turn_and_is_handed_over_before_what_follows() {
    let hub = LoopbackHub::new(0x2603);
    let vs = ViewState::initial(1);
    let mut node = Node::new(RuntimeConfig {
        delivery_capacity: 1,
        ..RuntimeConfig::default()
    });
    let g = node
        .join(
            STACK_10,
            vs.for_rank(Rank(0)),
            EngineKind::Imp,
            LayerConfig::default(),
            Box::new(hub.attach(vs.members[0])),
        )
        .expect("join");
    let totals = || node.stats().totals();
    // Two own deliveries against a one-slot queue: the shard blocks
    // handing over the second, so what is queued next waits for one turn.
    g.cast(b"c0").expect("cast");
    g.cast(b"c1").expect("cast");
    let deadline = Instant::now() + Duration::from_secs(10);
    while totals().delivery_depth < 2 {
        assert!(Instant::now() < deadline, "the shard never blocked");
        std::thread::sleep(Duration::from_millis(1));
    }
    let next = vs.next_view(&[]);
    g.install_view(next.clone()).expect("install");
    for c in [b"c2", b"c3", b"c4"] {
        g.cast(c).expect("cast");
    }
    let before = totals().delivery_flushes;
    let mut got = Vec::new();
    while got.last() != Some(&"c4".to_string()) {
        got.push(
            match g.recv_timeout(Duration::from_secs(10)).expect("delivery") {
                Delivery::Cast { bytes, .. } => String::from_utf8(bytes).unwrap(),
                Delivery::View(v) => format!("view {}", v.view_id.ltime),
                other => format!("{other:?}"),
            },
        );
    }
    let view = format!("view {}", next.view_id.ltime);
    assert_eq!(got, ["c0", "c1", &view, "c2", "c3", "c4"]);
    // The blocked batch, the view on its own, the casts after it. A
    // flush is counted just after its last delivery is queued.
    let flushes = || totals().delivery_flushes - before;
    let deadline = Instant::now() + Duration::from_secs(10);
    while flushes() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(flushes(), 3, "hand-offs");
    node.shutdown();
}

#[test]
fn a_full_delivery_queue_blocks_the_held_batch_and_loses_nothing() {
    const N: u32 = 3_000;
    let hub = LoopbackHub::new(0x2602);
    let vs = ViewState::initial(2);
    let mut node = Node::new(RuntimeConfig {
        delivery_capacity: 2,
        ..RuntimeConfig::default()
    });
    let mut join = |rank: u16| {
        node.join(
            STACK_10,
            vs.for_rank(Rank(rank)),
            EngineKind::Imp,
            LayerConfig::default(),
            Box::new(hub.attach(vs.members[rank as usize])),
        )
        .expect("join")
    };
    let (a, b) = (join(0), join(1));
    let a_tx = a.sender();
    let done = AtomicBool::new(false);
    let b_done = &AtomicBool::new(false);
    let node = &node;

    let (at_a, at_b, max_depth) = std::thread::scope(|s| {
        // A wrapped gauge (a decrement that ran ahead of its increment)
        // reads near u64::MAX; the held batch itself must be counted.
        let monitor = s.spawn(|| {
            let mut max = 0;
            while !done.load(Ordering::Acquire) {
                max = max.max(node.stats().totals().delivery_depth);
                std::thread::sleep(Duration::from_micros(100));
            }
            max
        });
        let caster = s.spawn(move || {
            for i in 0..N {
                a_tx.cast(&i.to_le_bytes()).expect("cast");
            }
        });
        // Member 0's own copies come back at once (`local` sits above the
        // credit window) but its stream to member 1 needs member 1's
        // grants, which its shard reads only while not blocked on a full
        // queue: so member 0 keeps draining until member 1 has everything.
        let at_a = s.spawn(move || {
            let own = casts_from_0(&a, N).0;
            while !b_done.load(Ordering::Acquire) {
                if let Some(Delivery::Cast { origin: 0, .. }) =
                    a.recv_timeout(Duration::from_millis(10))
                {
                    return (own, a, false);
                }
            }
            (own, a, true)
        });
        let at_b = s.spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let got = casts_from_0(&b, N).0;
            b_done.store(true, Ordering::Release);
            (got, b)
        });
        caster.join().expect("caster");
        let at_a = at_a.join().expect("member 0's consumer");
        let at_b = at_b.join().expect("member 1's consumer");
        done.store(true, Ordering::Release);
        (at_a, at_b, monitor.join().expect("monitor"))
    });

    assert_all_in_order(&at_a.0, N, "member 0's own deliveries");
    assert_all_in_order(&at_b.0, N, "member 1");
    assert!(
        at_a.2 && no_more_casts(&at_a.1, Duration::from_millis(50)),
        "exactly once at 0"
    );
    assert!(
        no_more_casts(&at_b.1, Duration::from_millis(50)),
        "exactly once at 1"
    );
    // Both consumers have drained everything, stability reports included.
    assert_eq!(
        node.stats().totals().delivery_depth,
        0,
        "gauge after the drain"
    );
    assert!(
        max_depth > 2 && max_depth <= u64::from(N),
        "delivery_depth peaked at {max_depth}: the blocked shard's held batch \
         counts on top of the full queue's 2, and the gauge never wraps"
    );
}
