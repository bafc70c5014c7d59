//! Deterministic chaos: partitions and crash-stops — checked.
//!
//! Six nodes form over seeded loopback hubs. Two seeded schedule
//! families run over the same harness:
//!
//! * **Partition soak** — split both planes 4/2, wait for the minority
//!   to stall ([`ClusterEvent::MinorityPartition`]) and the majority to
//!   install the shrunk view, push traffic only the majority may
//!   deliver, heal, and wait for the single merged six-member view.
//! * **Crash soak** — crash-stop members mid-traffic ([`ClusterNode::
//!   kill`]: no Leave, no flush) and restart them under fresh
//!   incarnations through the merge path: a follower, then the senior
//!   coordinator, then a member killed *while* another member's rejoin
//!   merge is in flight (the flush must survive losing a participant).
//!
//! Every view install and cast delivery on every node feeds a
//! [`VsyncChecker`]; a run passes only if the whole execution satisfies
//! the virtual-synchrony contract — one primary view sequence, agreed
//! delivery, exactly-once — for each seed in the matrix.

use ensemble_cluster::{ClusterConfig, ClusterEvent, StateProvider, VsyncChecker};
use ensemble_runtime::{Delivery, FaultPlan, LoopbackHub};
use ensemble_util::Endpoint;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

mod common;
use common::Member;

const N: usize = 6;
const MAJORITY: [u32; 4] = [0, 1, 2, 3];
const MINORITY: [u32; 2] = [4, 5];

/// Forms `ep` through `seed` with a state provider, so whoever ends up
/// acting coordinator after a crash can still ship snapshots.
fn form(
    control: &LoopbackHub,
    data: &LoopbackHub,
    ep: Endpoint,
    seed: Endpoint,
    cfg: ClusterConfig,
) -> std::thread::JoinHandle<Result<Member, ensemble_cluster::ClusterError>> {
    let (c, d) = (control.attach(ep), data.attach(ep));
    std::thread::spawn(move || {
        let state: Option<Box<dyn StateProvider>> =
            Some(Box::new(|| b"kv-state".to_vec()) as Box<dyn StateProvider>);
        Member::form(ep, seed, cfg, Box::new(c), Box::new(d), state)
    })
}

struct Harness {
    /// Slot per original member id; `None` while that member is dead.
    nodes: Vec<Option<Member>>,
    checker: VsyncChecker,
    casts: Vec<Vec<Vec<u8>>>,
    stalled: HashSet<u32>,
    snapshots: Vec<u32>,
}

impl Harness {
    /// Forms the six-node cluster and seeds the checker with the
    /// initial view (its `Formed` event is consumed while forming).
    fn form(control: &LoopbackHub, data: &LoopbackHub) -> Harness {
        let cfg = ClusterConfig::new(N);
        let seed = Endpoint::new(0);
        let formers: Vec<_> = (0..N as u32)
            .map(|i| form(control, data, Endpoint::new(i), seed, cfg.clone()))
            .collect();
        let nodes: Vec<Option<Member>> = formers
            .into_iter()
            .map(|f| Some(f.join().unwrap().expect("rendezvous completes")))
            .collect();
        let mut checker = VsyncChecker::new();
        for n in nodes.iter().flatten() {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                assert!(Instant::now() < deadline, "node never saw Formed");
                match n.events.recv_timeout(Duration::from_millis(10)) {
                    Ok(ClusterEvent::Formed(vs)) => {
                        assert_eq!(vs.nmembers(), N);
                        checker.on_view(n.endpoint(), &vs);
                        break;
                    }
                    _ => continue,
                }
            }
        }
        Harness {
            nodes,
            checker,
            casts: vec![Vec::new(); N],
            stalled: HashSet::new(),
            snapshots: Vec::new(),
        }
    }

    /// The live node in slot `id` (panics if it is crashed).
    fn node(&self, id: u32) -> &Member {
        self.nodes[id as usize].as_ref().expect("node alive")
    }

    fn drain(&mut self) {
        for (i, n) in self.nodes.iter().enumerate() {
            let Some(n) = n else { continue };
            let ep = n.endpoint();
            while let Ok(ev) = n.events.try_recv() {
                match ev {
                    ClusterEvent::Formed(vs) => self.checker.on_view(ep, &vs),
                    ClusterEvent::Delivery(Delivery::View(vs)) => self.checker.on_view(ep, &vs),
                    ClusterEvent::Delivery(Delivery::Cast { bytes, .. }) => {
                        self.checker.on_cast_delivery(ep, &bytes);
                        self.casts[i].push(bytes);
                    }
                    ClusterEvent::MinorityPartition { live, needed } => {
                        assert!(live < needed, "stall reports a real quorum loss");
                        self.stalled.insert(ep.id());
                    }
                    ClusterEvent::Snapshot(_) => self.snapshots.push(ep.id()),
                    _ => {}
                }
            }
        }
    }

    /// Polls `drain` until `cond` holds (bounded), asserting `what`.
    /// The bound outlasts suspicion eviction of a crashed member.
    fn wait(&mut self, what: &str, mut cond: impl FnMut(&Harness) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            self.drain();
            if cond(self) {
                return;
            }
            assert!(Instant::now() < deadline, "timed out waiting for: {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Casts one unique payload from each node in `from` and waits until
    /// every node in `to` has delivered all of them.
    fn cast_round(&mut self, tag: char, from: &[u32], to: &[u32]) {
        for &id in from {
            let payload = format!("{tag}{id}");
            self.node(id).cast(payload.as_bytes()).unwrap();
        }
        let want: Vec<Vec<u8>> = from
            .iter()
            .map(|id| format!("{tag}{id}").into_bytes())
            .collect();
        self.wait(&format!("round '{tag}' delivered to {to:?}"), |h| {
            to.iter().all(|&id| {
                want.iter()
                    .all(|p| h.casts[id as usize].iter().any(|c| c == p))
            })
        });
    }

    /// Crash-stops slot `id` (capturing the delivery prefix it already
    /// handed up) and returns the dead incarnation's endpoint.
    fn kill(&mut self, id: u32) -> Endpoint {
        self.drain();
        let n = self.nodes[id as usize].take().expect("victim alive");
        let ep = n.endpoint();
        n.node.kill();
        ep
    }

    /// Waits until every node in `live` has installed a view that holds
    /// exactly `live.len()` members and excludes `dead`.
    fn wait_evicted(&mut self, dead: Endpoint, live: &[u32]) {
        self.wait(&format!("survivors evict {dead:?}"), |h| {
            live.iter().all(|&id| {
                let v = h.node(id).view();
                v.nmembers() == live.len() && !v.members.contains(&dead)
            })
        });
    }
}

/// Starts the rejoin of `dead` under a fresh incarnation on its own
/// thread (forming blocks until the merge grant lands). `contact` is
/// where the Hellos go — any live member relays to the acting
/// coordinator. The join windows are widened: a rejoin may land while
/// the group is mid-suspicion or mid-merge and must outwait both. Like
/// a recovered replica, the reborn node re-arms its state provider —
/// it may end up acting coordinator for a *later* rejoiner.
fn restart(
    control: &LoopbackHub,
    data: &LoopbackHub,
    dead: Endpoint,
    contact: Endpoint,
) -> std::thread::JoinHandle<Result<Member, ensemble_cluster::ClusterError>> {
    let mut cfg = ClusterConfig::new(N);
    cfg.form_timeout = Duration::from_secs(30);
    form(control, data, dead.reincarnate(), contact, cfg)
}

fn soak(seed: u64) {
    let control = LoopbackHub::with_faults(seed, FaultPlan::default());
    let data = LoopbackHub::with_faults(seed ^ 0x5EED, FaultPlan::default());
    let mut h = Harness::form(&control, &data);

    // Phase A: healthy cluster, every node casts, everyone delivers.
    let all: Vec<u32> = (0..N as u32).collect();
    h.cast_round('a', &all, &all);

    // Split 4/2 on both planes.
    let groups = vec![MAJORITY.to_vec(), MINORITY.to_vec()];
    control.split(groups.clone());
    data.split(groups);
    assert!(control.partition_status().is_partitioned());

    // The minority stalls; the majority installs the shrunk view.
    h.wait("both minority nodes stall", |h| {
        MINORITY.iter().all(|id| h.stalled.contains(id))
    });
    h.wait("majority installs the 4-member view", |h| {
        MAJORITY.iter().all(|&id| {
            let v = h.node(id).view();
            v.nmembers() == MAJORITY.len() && v.view_id.ltime > 0
        })
    });

    // Phase B: only the primary component may deliver this traffic.
    h.cast_round('b', &MAJORITY, &MAJORITY);

    // Heal. Beacons cross, the senior coordinator merges, grants pull
    // the minority into the single six-member view.
    control.heal();
    data.heal();
    h.wait("all six nodes install the merged view", |h| {
        h.nodes.iter().flatten().all(|n| {
            let v = n.view();
            v.nmembers() == N && v.view_id.ltime > 1
        })
    });
    let merged = h.node(0).view();
    for n in h.nodes.iter().flatten() {
        assert_eq!(n.view().view_id, merged.view_id, "one merged view");
    }

    // Phase C: the healed cluster is fully symmetric again.
    h.cast_round('c', &all, &all);
    h.drain();

    // The minority skipped the primary's solo view entirely: phase B
    // payloads must never have reached it (agreed delivery, not "late").
    for &id in &MINORITY {
        assert!(
            !h.casts[id as usize].iter().any(|c| c.starts_with(b"b")),
            "minority node {id} delivered majority-only traffic"
        );
        assert!(
            h.snapshots.contains(&id),
            "minority node {id} rejoined without a state snapshot"
        );
    }

    // The whole execution satisfies the virtual-synchrony contract.
    let violations = h.checker.finish();
    assert!(
        violations.is_empty(),
        "seed {seed}: vsync violations:\n{}",
        violations.join("\n")
    );

    // Operator-visible traces of the episode.
    let m0 = h.node(0).metrics();
    assert!(m0.merge_beacons.load(Ordering::Relaxed) >= 1);
    assert!(m0.merge_grants_sent.load(Ordering::Relaxed) >= MINORITY.len() as u64);
    let m4 = h.node(4).metrics();
    assert!(m4.minority_stalls.load(Ordering::Relaxed) >= 1);
    assert!(m4.merge_grants_installed.load(Ordering::Relaxed) >= 1);
    assert!(
        control.fault_counts().partition_drops > 0,
        "the split dropped real traffic"
    );
    assert!(!control.partition_status().is_partitioned());
}

#[test]
fn seeded_partition_chaos_keeps_virtual_synchrony_seed_1() {
    soak(1);
}

#[test]
fn seeded_partition_chaos_keeps_virtual_synchrony_seed_2() {
    soak(2);
}

#[test]
fn seeded_partition_chaos_keeps_virtual_synchrony_seed_3() {
    soak(3);
}

/// Crash-stop soak: members die without ceremony mid-traffic and come
/// back as fresh incarnations through the merge path. The schedule
/// escalates — follower crash, then coordinator crash (seniority moves
/// to node 1), then a crash *during* another member's rejoin merge so
/// the in-flight flush loses a participant and must recover via
/// suspicion eviction. The [`VsyncChecker`] holds throughout: a crashed
/// node installs no successor view, so only the prefix rule binds it,
/// and its reincarnation is a brand-new checker identity.
fn crash_soak(seed: u64) {
    let control = LoopbackHub::with_faults(seed, FaultPlan::default());
    let data = LoopbackHub::with_faults(seed ^ 0xC4A5, FaultPlan::default());
    let mut h = Harness::form(&control, &data);
    let all: Vec<u32> = (0..N as u32).collect();

    // Phase A: healthy traffic, then a follower crash-stops.
    h.cast_round('a', &all, &all);
    let dead5 = h.kill(5);
    h.wait_evicted(dead5, &[0, 1, 2, 3, 4]);

    // Phase B: the survivors keep delivering without the dead member.
    h.cast_round('b', &[0, 1, 2, 3, 4], &[0, 1, 2, 3, 4]);

    // Node 5 restarts under a fresh incarnation and rejoins by merge.
    let t = restart(&control, &data, dead5, h.node(0).endpoint());
    h.nodes[5] = Some(t.join().unwrap().expect("rejoin completes"));
    h.wait("reborn follower pulled into the 6-member view", |h| {
        h.nodes.iter().flatten().all(|n| n.view().nmembers() == N)
    });

    // Phase C: full-strength traffic, then the *coordinator* crashes.
    h.cast_round('c', &all, &all);
    let dead0 = h.kill(0);
    h.wait_evicted(dead0, &[1, 2, 3, 4, 5]);

    // Phase D: node 1 is senior now; the group still delivers.
    h.cast_round('d', &[1, 2, 3, 4, 5], &[1, 2, 3, 4, 5]);

    // The old coordinator rejoins by Hello-ing a surviving member; the
    // relay forwards it to the acting coordinator.
    let t = restart(&control, &data, dead0, h.node(1).endpoint());
    h.nodes[0] = Some(t.join().unwrap().expect("rejoin completes"));
    h.wait("reborn ex-coordinator pulled into the 6-member view", |h| {
        h.nodes.iter().flatten().all(|n| n.view().nmembers() == N)
    });
    h.cast_round('e', &all, &all);

    // Phase F: crash during merge. Node 4 dies and starts rejoining;
    // while its merge flush is (possibly) in flight, participant 3 dies
    // too. The flush must not wedge: suspicion evicts the corpse and
    // the merge completes for the members that are actually alive.
    let dead4 = h.kill(4);
    h.wait_evicted(dead4, &[0, 1, 2, 3, 5]);
    let t = restart(&control, &data, dead4, h.node(1).endpoint());
    std::thread::sleep(Duration::from_millis(5 + (seed % 7) * 5));
    let dead3 = h.kill(3);
    h.nodes[4] = Some(t.join().unwrap().expect("rejoin completes"));
    let live = [0u32, 1, 2, 4, 5];
    h.wait(
        "five live members converge after the mid-merge crash",
        |h| {
            live.iter().all(|&id| {
                let v = h.node(id).view();
                v.nmembers() == live.len()
                    && !v.members.contains(&dead3)
                    && v.members.contains(&h.node(4).endpoint())
            })
        },
    );

    // Phase G: the converged five-member group is fully symmetric.
    h.cast_round('g', &live, &live);
    h.drain();

    // Every reborn member was state-transferred on its way back in.
    for id in [5u32, 0, 4] {
        assert!(
            h.snapshots.contains(&id),
            "reborn node {id} rejoined without a state snapshot"
        );
    }

    // The whole execution — three crashes, three rebirths, one corpse —
    // satisfies the virtual-synchrony contract.
    let violations = h.checker.finish();
    assert!(
        violations.is_empty(),
        "seed {seed}: vsync violations:\n{}",
        violations.join("\n")
    );

    // Operator-visible traces: the rebirths were admitted through the
    // rejoin path and granted membership. A reborn joiner consumes its
    // grant inside the rendezvous (before the driver exists), so the
    // evidence lives on the coordinator side — and which member acted
    // as coordinator shifted across the schedule, so sum over the
    // group. Node 0 admitted the first rejoin and then crash-stopped,
    // taking that tally with it: only the later two remain visible.
    let (mut rejoins, mut grants) = (0u64, 0u64);
    for n in h.nodes.iter().flatten() {
        let m = n.metrics();
        rejoins += m.rejoins.load(Ordering::Relaxed);
        grants += m.merge_grants_sent.load(Ordering::Relaxed);
    }
    assert!(rejoins >= 2, "only {rejoins} rejoin admissions, want >= 2");
    assert!(grants >= 2, "only {grants} merge grants sent, want >= 2");
}

#[test]
fn seeded_crash_restart_chaos_keeps_virtual_synchrony_seed_1() {
    crash_soak(1);
}

#[test]
fn seeded_crash_restart_chaos_keeps_virtual_synchrony_seed_2() {
    crash_soak(2);
}

#[test]
fn seeded_crash_restart_chaos_keeps_virtual_synchrony_seed_3() {
    crash_soak(3);
}
