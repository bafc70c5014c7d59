//! Fenced-member rejoin: a killed node comes back under a fresh
//! incarnation and is absorbed through the merge path.
//!
//! Three nodes form; one is killed; the survivors install the shrunk
//! view. The dead member then calls [`ClusterNode::form`] again with
//! `ep.reincarnate()` and fresh transports. Its Hello reaches the
//! acting coordinator, which runs a merge flush and answers with a
//! `MergeGrant` carrying the current view and a state snapshot — no
//! second seed rendezvous, no manual intervention. Afterwards the
//! cluster is symmetric: casts from either side deliver exactly once
//! everywhere.

use ensemble_cluster::{ClusterConfig, ClusterEvent, StateProvider};
use ensemble_runtime::{Delivery, LoopbackHub};
use ensemble_util::Endpoint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::Member;

/// A provider at a fixed state version that counts what it is asked.
struct Counting {
    version: u64,
    snapshots: Arc<AtomicU64>,
    versions: Arc<AtomicU64>,
}

impl StateProvider for Counting {
    fn snapshot(&mut self) -> Vec<u8> {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        b"replicated-kv".to_vec()
    }

    fn version(&mut self) -> u64 {
        self.versions.fetch_add(1, Ordering::Relaxed);
        self.version
    }
}

fn counting(version: u64) -> (Counting, Arc<AtomicU64>, Arc<AtomicU64>) {
    let (snapshots, versions) = (Arc::default(), Arc::default());
    let provider = Counting {
        version,
        snapshots: Arc::clone(&snapshots),
        versions: Arc::clone(&versions),
    };
    (provider, snapshots, versions)
}

fn wait(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn killed_member_rejoins_with_fresh_incarnation_and_snapshot() {
    let control = LoopbackHub::new(41);
    let data = LoopbackHub::new(42);
    let cfg = ClusterConfig::new(3);
    let seed = Endpoint::new(0);

    let mut formers = Vec::new();
    for i in 0..3u32 {
        let ep = Endpoint::new(i);
        let (c, d) = (control.attach(ep), data.attach(ep));
        let cfg = cfg.clone();
        formers.push(std::thread::spawn(move || {
            let state: Option<Box<dyn StateProvider>> = (ep == seed)
                .then(|| Box::new(|| b"replicated-kv".to_vec()) as Box<dyn StateProvider>);
            Member::form(ep, seed, cfg.clone(), Box::new(c), Box::new(d), state)
        }));
    }
    let mut nodes: Vec<Member> = formers
        .into_iter()
        .map(|f| f.join().unwrap().expect("rendezvous completes"))
        .collect();

    // Kill the highest member; survivors converge on the 2-member view.
    let victim = nodes.pop().unwrap();
    let victim_ep = victim.endpoint();
    victim.node.kill();
    wait("survivors install the 2-member view", || {
        nodes
            .iter()
            .all(|n| n.view().nmembers() == 2 && n.view().view_id.ltime > 0)
    });

    // The ghost returns: same id, next incarnation, fresh transports.
    let reborn_ep = victim_ep.reincarnate();
    let (c, d) = (control.attach(reborn_ep), data.attach(reborn_ep));
    let cfg2 = cfg.clone();
    let rejoiner = std::thread::spawn(move || {
        Member::form(reborn_ep, seed, cfg2, Box::new(c), Box::new(d), None)
    });
    let reborn = rejoiner.join().unwrap().expect("rejoin completes");

    // The grant shipped the coordinator's snapshot before Formed.
    let mut got_snapshot = false;
    let mut formed_view = None;
    let deadline = Instant::now() + Duration::from_secs(10);
    while formed_view.is_none() {
        assert!(Instant::now() < deadline, "rejoiner never saw Formed");
        match reborn.events.recv_timeout(Duration::from_millis(10)) {
            Ok(ClusterEvent::Snapshot(s)) => {
                assert_eq!(s, b"replicated-kv");
                got_snapshot = true;
            }
            Ok(ClusterEvent::Formed(vs)) => formed_view = Some(vs),
            _ => continue,
        }
    }
    assert!(got_snapshot, "rejoin must carry a state snapshot");
    let formed = formed_view.expect("loop exits with a view");
    assert_eq!(formed.nmembers(), 3);
    assert!(
        formed.members.contains(&reborn_ep),
        "merged view holds the fresh incarnation"
    );
    assert!(
        !formed.members.contains(&victim_ep),
        "merged view must not resurrect the dead incarnation"
    );

    // Survivors install the same 3-member merged view.
    wait("survivors absorb the reborn member", || {
        nodes
            .iter()
            .all(|n| n.view().nmembers() == 3 && n.view().members.contains(&reborn_ep))
    });
    for n in &nodes {
        assert_eq!(n.view().view_id, formed.view_id, "one merged view");
    }

    // Full symmetry: traffic flows both ways, exactly once.
    nodes[0].cast(b"from-survivor").unwrap();
    reborn.cast(b"from-reborn").unwrap();
    let drain = |n: &Member, hits: &mut Vec<Vec<u8>>| {
        while let Ok(ev) = n.events.try_recv() {
            if let ClusterEvent::Delivery(Delivery::Cast { bytes, .. }) = ev {
                hits.push(bytes);
            }
        }
    };
    let mut per_node: Vec<Vec<Vec<u8>>> = vec![Vec::new(); 3];
    wait("both casts deliver everywhere", || {
        for (i, n) in nodes.iter().chain(std::iter::once(&reborn)).enumerate() {
            drain(n, &mut per_node[i]);
        }
        per_node.iter().all(|c| {
            c.iter().any(|b| b == b"from-survivor") && c.iter().any(|b| b == b"from-reborn")
        })
    });
    for c in &per_node {
        assert_eq!(c.len(), 2, "exactly-once delivery after rejoin: {c:?}");
    }

    // The episode is visible to operators.
    let m0 = nodes[0].metrics();
    assert!(m0.rejoins.load(Ordering::Relaxed) >= 1);
    assert!(m0.merge_grants_sent.load(Ordering::Relaxed) >= 1);
    assert!(
        reborn
            .metrics()
            .merge_grants_installed
            .load(Ordering::Relaxed)
            == 0
    );
    assert!(nodes[0]
        .metrics_text()
        .contains("ensemble_cluster_rejoins_total"));
}

#[test]
fn a_rejoiner_whose_hint_covers_the_state_costs_the_coordinator_no_snapshot() {
    let control = LoopbackHub::new(43);
    let data = LoopbackHub::new(44);
    let cfg = ClusterConfig::new(3);
    let seed = Endpoint::new(0);
    let (provider, snapshots, versions) = counting(7);
    let mut provider = Some(provider);

    let mut formers = Vec::new();
    for i in 0..3u32 {
        let ep = Endpoint::new(i);
        let (c, d) = (control.attach(ep), data.attach(ep));
        let cfg = cfg.clone();
        let state = (ep == seed)
            .then(|| Box::new(provider.take().expect("one seed")) as Box<dyn StateProvider>);
        formers.push(std::thread::spawn(move || {
            Member::form(ep, seed, cfg, Box::new(c), Box::new(d), state)
        }));
    }
    let mut nodes: Vec<Member> = formers
        .into_iter()
        .map(|f| f.join().unwrap().expect("rendezvous completes"))
        .collect();
    // The seed's rendezvous ships the one snapshot this test allows.
    assert_eq!(snapshots.load(Ordering::Relaxed), 1);

    let victim = nodes.pop().unwrap();
    let reborn_ep = victim.endpoint().reincarnate();
    victim.node.kill();
    wait("survivors install the 2-member view", || {
        nodes.iter().all(|n| n.view().nmembers() == 2)
    });

    // The rejoiner recovered version 7 on its own: its Hello says so.
    let (own, _, own_versions) = counting(7);
    let (c, d) = (control.attach(reborn_ep), data.attach(reborn_ep));
    let reborn = Member::form(
        reborn_ep,
        seed,
        cfg,
        Box::new(c),
        Box::new(d),
        Some(Box::new(own)),
    )
    .expect("rejoin completes");
    assert_eq!(own_versions.load(Ordering::Relaxed), 1, "the resume hint");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "rejoiner never saw Formed");
        match reborn.events.recv_timeout(Duration::from_millis(10)) {
            Ok(ClusterEvent::Snapshot(_)) => panic!("a covered rejoiner got a snapshot"),
            Ok(ClusterEvent::Formed(vs)) => {
                assert!(vs.members.contains(&reborn_ep));
                break;
            }
            _ => continue,
        }
    }
    wait("survivors absorb the reborn member", || {
        nodes.iter().all(|n| n.view().members.contains(&reborn_ep))
    });

    let m0 = nodes[0].metrics();
    assert!(m0.merge_grants_sent.load(Ordering::Relaxed) >= 1);
    assert!(m0.snapshots_skipped.load(Ordering::Relaxed) >= 1);
    assert!(
        versions.load(Ordering::Relaxed) >= 1,
        "the grant compared versions"
    );
    assert_eq!(
        snapshots.load(Ordering::Relaxed),
        1,
        "the grant encoded a snapshot nobody received"
    );
}
