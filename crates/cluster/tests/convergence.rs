//! Cross-node convergence: the cluster demo's scenario, asserted.
//!
//! Three nodes rendezvous from one seed over seeded loopback hubs, one
//! member is killed, and the survivors must install exactly one new
//! view — the same view — within ten heartbeat periods, with every
//! application cast (before, during, and after the change) delivered
//! exactly once on each survivor. A second test checks epoch fencing:
//! a correctly-signed heartbeat from a stale epoch is answered with a
//! `Fence` and never disturbs the installed view.

use ensemble_cluster::{encode, ClusterConfig, ClusterEvent, Envelope, Frame, StateProvider};
use ensemble_event::ViewState;
use ensemble_runtime::{Delivery, FaultPlan, LoopbackHub, Transport};
use ensemble_transport::Packet;
use ensemble_util::Endpoint;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

mod common;
use common::Member;

/// Forms a three-node cluster over the given hubs and drains each
/// node's queue through its `Formed` event.
fn form_three(control: &LoopbackHub, data: &LoopbackHub) -> Vec<Member> {
    let cfg = ClusterConfig::new(3);
    let seed = Endpoint::new(0);
    let mut formers = Vec::new();
    for i in 0..3u32 {
        let ep = Endpoint::new(i);
        let (c, d) = (control.attach(ep), data.attach(ep));
        let cfg = cfg.clone();
        formers.push(std::thread::spawn(move || {
            let state: Option<Box<dyn StateProvider>> =
                (ep == seed).then(|| Box::new(|| b"kv-state".to_vec()) as Box<dyn StateProvider>);
            Member::form(ep, seed, cfg, Box::new(c), Box::new(d), state)
        }));
    }
    let nodes: Vec<Member> = formers
        .into_iter()
        .map(|f| f.join().unwrap().expect("rendezvous completes"))
        .collect();
    for n in &nodes {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(
                Instant::now() < deadline,
                "node {} never saw Formed",
                n.endpoint().id()
            );
            match n.events.recv_timeout(Duration::from_millis(10)) {
                Ok(ClusterEvent::Formed(vs)) => {
                    assert_eq!(vs.nmembers(), 3);
                    break;
                }
                _ => continue,
            }
        }
    }
    nodes
}

/// Drains every pending event on each survivor into `views` / `casts`.
fn drain(
    nodes: &[Member],
    views: &mut [Vec<ViewState>],
    casts: &mut [Vec<Vec<u8>>],
    fenced: &mut Vec<(Endpoint, u64)>,
) {
    for (i, n) in nodes.iter().enumerate() {
        while let Ok(ev) = n.events.try_recv() {
            match ev {
                ClusterEvent::Delivery(Delivery::View(vs)) => views[i].push(vs),
                ClusterEvent::Delivery(Delivery::Cast { bytes, .. }) => casts[i].push(bytes),
                ClusterEvent::FencedPeer { peer, epoch } => fenced.push((peer, epoch)),
                _ => {}
            }
        }
    }
}

#[test]
fn survivors_install_exactly_one_new_view_with_exactly_once_delivery() {
    // Duplication and reordering on both planes, but no loss: the
    // outcome must be identical to a clean run (idempotent rendezvous,
    // seqno-suppressed data plane, miss-budgeted heartbeats).
    let control = LoopbackHub::with_faults(21, FaultPlan::lossy(0.0, 0.3, 0.3));
    let data = LoopbackHub::with_faults(22, FaultPlan::lossy(0.0, 0.3, 0.3));
    let mut nodes = form_three(&control, &data);
    let hb = ClusterConfig::new(3).heartbeat_period;

    nodes[0].cast(b"before").unwrap();
    let victim = nodes.pop().unwrap();
    let victim_ep = victim.endpoint();
    victim.node.kill();
    let killed = Instant::now();

    // A cast roughly inside the detection/flush window: whether it
    // lands before the Block or parks and replays, it must come out
    // exactly once in the new view.
    std::thread::sleep(hb * 2);
    nodes[1].cast(b"during").unwrap();

    let mut views = vec![Vec::new(), Vec::new()];
    let mut casts = vec![Vec::new(), Vec::new()];
    let mut fenced = Vec::new();
    let deadline = killed + hb * 10;
    while views
        .iter()
        .any(|v: &Vec<ViewState>| v.iter().all(|x| x.view_id.ltime == 0))
    {
        assert!(
            Instant::now() < deadline,
            "survivors must install the new view within 10 heartbeat periods"
        );
        drain(&nodes, &mut views, &mut casts, &mut fenced);
        std::thread::sleep(Duration::from_millis(2));
    }

    nodes[0].cast(b"after").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while casts.iter().any(|c| c.len() < 3) && Instant::now() < deadline {
        drain(&nodes, &mut views, &mut casts, &mut fenced);
        std::thread::sleep(Duration::from_millis(2));
    }
    // Grace window: no *second* view change may sneak in afterwards.
    std::thread::sleep(hb * 5);
    drain(&nodes, &mut views, &mut casts, &mut fenced);

    let mut installed = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        let new_views: Vec<&ViewState> = views[i].iter().filter(|v| v.view_id.ltime > 0).collect();
        assert_eq!(
            new_views.len(),
            1,
            "survivor {} installed {} new views, want exactly 1",
            n.endpoint().id(),
            new_views.len()
        );
        assert_eq!(new_views[0].nmembers(), 2);
        assert!(new_views[0].rank_of(victim_ep).is_none());
        installed.push(new_views[0].view_id);
        for payload in [&b"before"[..], &b"during"[..], &b"after"[..]] {
            let copies = casts[i].iter().filter(|b| &b[..] == payload).count();
            assert_eq!(
                copies,
                1,
                "survivor {}: {:?} delivered {} times",
                n.endpoint().id(),
                String::from_utf8_lossy(payload),
                copies
            );
        }
    }
    assert_eq!(installed[0], installed[1], "survivors agree on the view");

    // The counters the operator would scrape.
    let m = nodes[0].metrics();
    assert!(m.heartbeats_sent.load(Ordering::Relaxed) >= 1);
    assert!(m.suspicions.load(Ordering::Relaxed) >= 1);
    assert_eq!(m.views_installed.load(Ordering::Relaxed), 1);
    let text = nodes[0].metrics_text();
    for series in [
        "ensemble_cluster_heartbeats_total{dir=\"sent\"}",
        "ensemble_cluster_heartbeats_total{dir=\"recv\"}",
        "ensemble_cluster_suspicions_total",
        "ensemble_cluster_views_installed_total",
        "ensemble_view_change_ns_count 1",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }
}

#[test]
fn stale_epoch_heartbeats_are_fenced_without_disturbing_the_view() {
    let control = LoopbackHub::new(31);
    let data = LoopbackHub::new(32);
    let cfg = ClusterConfig::new(3);
    let mut nodes = form_three(&control, &data);
    let hb = cfg.heartbeat_period;

    let victim = nodes.pop().unwrap();
    victim.node.kill();
    let killed = Instant::now();

    let mut views = vec![Vec::new(), Vec::new()];
    let mut casts = vec![Vec::new(), Vec::new()];
    let mut fenced = Vec::new();
    while views
        .iter()
        .any(|v: &Vec<ViewState>| v.iter().all(|x| x.view_id.ltime == 0))
    {
        assert!(Instant::now() < killed + hb * 10, "new view installs");
        drain(&nodes, &mut views, &mut casts, &mut fenced);
        std::thread::sleep(Duration::from_millis(2));
    }

    // A ghost with the right key but a stale epoch — a member the group
    // already moved past. Its heartbeat must be fenced, not counted.
    let ghost_ep = Endpoint::new(9);
    let mut ghost = control.attach(ghost_ep);
    let env = Envelope {
        src: ghost_ep,
        epoch: 0,
        frame: Frame::Heartbeat { seq: 0 },
    };
    ghost
        .send(&Packet::point(
            ghost_ep,
            nodes[0].endpoint(),
            encode(&env, cfg.key),
        ))
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(2);
    while nodes[0].metrics().fences_sent.load(Ordering::Acquire) == 0 {
        assert!(Instant::now() < deadline, "stale heartbeat is fenced");
        std::thread::sleep(Duration::from_millis(2));
    }
    while !fenced.contains(&(ghost_ep, 0)) {
        assert!(
            Instant::now() < deadline,
            "FencedPeer event names the ghost: {fenced:?}"
        );
        drain(&nodes, &mut views, &mut casts, &mut fenced);
        std::thread::sleep(Duration::from_millis(2));
    }

    // The ghost hears back which epoch the group is in now.
    let deadline = Instant::now() + Duration::from_secs(2);
    let fence = loop {
        assert!(Instant::now() < deadline, "ghost receives the Fence");
        if let Ok(Some(pkt)) = ghost.try_recv() {
            break ensemble_cluster::decode(&pkt.bytes, cfg.key).expect("signed Fence");
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(matches!(fence.frame, Frame::Fence));
    assert!(fence.epoch >= 1, "fence carries the current epoch");

    // And the installed view was not disturbed.
    std::thread::sleep(hb * 3);
    drain(&nodes, &mut views, &mut casts, &mut fenced);
    for v in &views {
        assert_eq!(v.iter().filter(|x| x.view_id.ltime > 0).count(), 1);
    }
    assert_eq!(nodes[0].view().nmembers(), 2);
    assert!(nodes[0]
        .metrics_text()
        .contains("ensemble_cluster_fences_total{dir=\"sent\"} 1"));
}

#[test]
fn cloned_sender_casts_through_view_change_exactly_once() {
    // A service thread (the KV apply plane, a metrics pusher, …) holds a
    // cloned `GroupSender` and keeps casting while the driver thread is
    // busy detecting a death and running the flush. Every cast the
    // sender accepts must come out exactly once on every survivor —
    // whether it landed before the Block, parked during the sync
    // window and replayed, or followed the new view.
    let control = LoopbackHub::with_faults(31, FaultPlan::default());
    let data = LoopbackHub::with_faults(32, FaultPlan::default());
    let mut nodes = form_three(&control, &data);
    let hb = ClusterConfig::new(3).heartbeat_period;

    let victim = nodes.pop().unwrap();
    let sender = nodes[0].sender();

    // The non-driver thread: cast continuously from before the kill
    // until well past the expected view installation.
    let caster = std::thread::spawn(move || {
        let mut sent = Vec::new();
        for i in 0..200u32 {
            let payload = format!("w-{i}").into_bytes();
            if sender.cast(&payload).is_err() {
                break;
            }
            sent.push(payload);
            std::thread::sleep(Duration::from_millis(1));
        }
        sent
    });
    std::thread::sleep(hb);
    victim.node.kill();
    let killed = Instant::now();

    let mut views = vec![Vec::new(), Vec::new()];
    let mut casts = vec![Vec::new(), Vec::new()];
    let mut fenced = Vec::new();
    let deadline = killed + hb * 20;
    while views
        .iter()
        .any(|v: &Vec<ViewState>| v.iter().all(|x| x.view_id.ltime == 0))
    {
        assert!(
            Instant::now() < deadline,
            "survivors must install the new view under the cast load"
        );
        drain(&nodes, &mut views, &mut casts, &mut fenced);
        std::thread::sleep(Duration::from_millis(2));
    }
    let sent = caster.join().expect("caster thread completes");
    assert!(sent.len() == 200, "the sender accepted every cast");

    // Collect until both survivors have every accepted cast (parked
    // casts replay after the view), then a grace window for strays.
    let deadline = Instant::now() + Duration::from_secs(20);
    while casts.iter().any(|c| c.len() < sent.len()) && Instant::now() < deadline {
        drain(&nodes, &mut views, &mut casts, &mut fenced);
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(hb * 3);
    drain(&nodes, &mut views, &mut casts, &mut fenced);

    for (i, n) in nodes.iter().enumerate() {
        assert_eq!(
            casts[i].len(),
            sent.len(),
            "survivor {}: {} casts delivered, want {}",
            n.endpoint().id(),
            casts[i].len(),
            sent.len()
        );
        // Exactly once AND in submission order: the window must not
        // reorder the service thread's stream either.
        assert_eq!(
            casts[i],
            sent,
            "survivor {} delivery order",
            n.endpoint().id()
        );
    }
}
