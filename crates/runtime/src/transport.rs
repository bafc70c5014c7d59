//! The runtime's transport seam.
//!
//! A [`Transport`] moves [`Packet`]-shaped datagrams between endpoints:
//! unreliable, unordered, datagram-oriented. It is the same seam the
//! simulator models, literally — the hub and `ensemble::sim::Simulation`
//! put every datagram to the same [`FaultPlane`] — so a stack that
//! survives the simulator's faults meets the same faults on the hub and
//! runs unchanged over a real socket. Two drivers are provided:
//!
//! * [`LoopbackHub`] — an in-process hub over bounded channels, with a
//!   deterministic, seedable [`FaultPlan`] (drop / duplicate / reorder)
//!   and scripted partitions for integration tests;
//! * [`crate::UdpTransport`] — real UDP sockets on 127.0.0.1.
//!
//! Both are polled (`try_recv`) rather than callback-driven: the shard
//! worker owns the poll loop, so a transport never needs its own thread.

use crate::fault::{
    Fate, FaultCounts, FaultPlan, FaultPlane, PartitionOp, PartitionScript, PartitionStatus,
};
use ensemble_transport::{decode_datagram_owned, encode_datagram, Dest, Packet};
use ensemble_util::Endpoint;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Wakes an idle shard worker when work arrives (a command, a join, or a
/// datagram), replacing a fixed-interval polling sleep.
///
/// Parking is cooperative: the worker re-checks every queue after each
/// wake, so a notification racing a drain costs at most one extra loop
/// iteration (counted as a spurious wakeup in `RuntimeStats`). A wake
/// posted while the worker is busy is latched and consumed by the next
/// park, so notifications are never lost.
pub struct Waker {
    pending: Mutex<bool>,
    cv: Condvar,
}

impl Waker {
    /// A waker with no notification pending.
    pub fn new() -> Waker {
        Waker {
            pending: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Posts a notification; cheap when one is already pending.
    pub fn wake(&self) {
        let mut pending = self
            .pending
            .lock()
            .expect("waker mutex poisoned: a worker thread panicked mid-park");
        if !*pending {
            *pending = true;
            self.cv.notify_one();
        }
    }

    /// Parks the caller up to `timeout` unless a notification is already
    /// pending. Returns `true` when released by [`Waker::wake`], `false`
    /// on timeout.
    pub fn park(&self, timeout: std::time::Duration) -> bool {
        let mut pending = self
            .pending
            .lock()
            .expect("waker mutex poisoned: a worker thread panicked mid-park");
        if !*pending {
            let (guard, _) = self
                .cv
                .wait_timeout(pending, timeout)
                .expect("waker mutex poisoned: a worker thread panicked mid-park");
            pending = guard;
        }
        let woken = *pending;
        *pending = false;
        woken
    }
}

impl Default for Waker {
    fn default() -> Waker {
        Waker::new()
    }
}

/// Socket errors a transport accumulated since the last drain. Lossy
/// conditions (full buffers, `WouldBlock`) are *not* errors — the stacks
/// recover from loss; these are hard failures that were previously
/// swallowed silently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportIoErrors {
    /// Hard send failures.
    pub send: u64,
    /// Hard recv failures.
    pub recv: u64,
}

impl TransportIoErrors {
    /// True when no errors were recorded.
    pub fn is_zero(&self) -> bool {
        self.send == 0 && self.recv == 0
    }
}

/// A datagram driver bound to one local endpoint.
///
/// Implementations must be `Send` (the shard worker owns them) and
/// non-blocking on both paths. Loss is allowed at any point — the layer
/// stacks (mnak, pt2pt) recover — but a delivered datagram must arrive
/// intact and at the right endpoint.
pub trait Transport: Send {
    /// The endpoint this transport receives for.
    fn local_ep(&self) -> Endpoint;

    /// Enqueues one packet (cast fan-out is the driver's job). A full
    /// egress queue may drop — like a UDP socket buffer — never block.
    fn send(&mut self, pkt: &Packet) -> io::Result<()>;

    /// Polls one packet; `Ok(None)` when nothing is pending.
    fn try_recv(&mut self) -> io::Result<Option<Packet>>;

    /// Like [`Transport::send`], carrying the sender-side origin
    /// timestamp (nanoseconds on the obs clock) alongside the packet.
    /// Drivers that can propagate it in-band (the loopback hub) let the
    /// receiver measure true cast→deliver latency; the default discards
    /// the stamp, which is all a wire protocol without a timestamp field
    /// (UDP here) can do.
    fn send_at(&mut self, pkt: &Packet, origin_ns: u64) -> io::Result<()> {
        let _ = origin_ns;
        self.send(pkt)
    }

    /// Polls one packet with its origin stamp, when the driver carries
    /// one. The default adapts [`Transport::try_recv`] with no stamp.
    fn try_recv_stamped(&mut self) -> io::Result<Option<(Packet, Option<u64>)>> {
        Ok(self.try_recv()?.map(|p| (p, None)))
    }

    /// Largest datagram the driver accepts.
    fn max_datagram(&self) -> usize {
        60_000
    }

    /// Installs a waker the driver should nudge when ingress arrives
    /// while the owning worker may be parked. Drivers with no delivery
    /// hook (a plain UDP socket) ignore it — the worker's park timeout
    /// bounds their latency instead.
    fn set_waker(&mut self, waker: Arc<Waker>) {
        let _ = waker;
    }

    /// Drains socket error counts accumulated since the last call
    /// (delta semantics: the driver resets its tallies). The default
    /// reports none.
    fn take_io_errors(&mut self) -> TransportIoErrors {
        TransportIoErrors::default()
    }
}

struct HubPeer {
    /// The peer's 32-bit endpoint id (what the plane keys on).
    id: u32,
    /// Frames carry the sender's origin stamp (obs-clock ns) in-band so
    /// receivers can measure cast→deliver latency.
    tx: SyncSender<(u64, Vec<u8>)>,
    /// Nudged after each enqueue so a parked recipient shard wakes.
    waker: Option<Arc<Waker>>,
    /// The hub's meaning of [`Fate::Late`]: datagrams (src id, stamp,
    /// frame) held back until the next datagram to this recipient (or an
    /// idle poll by it). The src id is kept so the flush re-checks the
    /// link matrix — a datagram held back before a split must not leak
    /// across it afterwards.
    held: Vec<(u32, u64, Vec<u8>)>,
}

impl HubPeer {
    fn push(&self, plane: &mut FaultPlane, stamp: u64, frame: Vec<u8>) {
        if self.tx.try_send((stamp, frame)).is_err() {
            plane.count_backpressure_drop();
        } else if let Some(w) = &self.waker {
            w.wake();
        }
    }

    /// Carries out the plane's verdict on one datagram from endpoint id
    /// `src` to this peer. An owned `frame` is moved into the peer's
    /// queue; a borrowed one is copied only if the verdict keeps it.
    fn deliver(&mut self, plane: &mut FaultPlane, src: u32, stamp: u64, frame: Cow<'_, [u8]>) {
        match plane.fate(src, self.id) {
            Fate::Drop => return,
            Fate::Late => {
                self.held.push((src, stamp, frame.into_owned()));
                return;
            }
            Fate::Once => {}
            Fate::Twice => self.push(plane, stamp, frame.as_ref().to_owned()),
        }
        self.push(plane, stamp, frame.into_owned());
        self.flush_held(plane);
    }

    fn flush_held(&mut self, plane: &mut FaultPlane) {
        for (src, stamp, frame) in std::mem::take(&mut self.held) {
            if !plane.link_blocked(src, self.id) {
                self.push(plane, stamp, frame);
            }
        }
    }
}

/// Puts one encoded datagram to each of `recipients` in turn — the plane's
/// dice are drawn in that order — lending it to all but the last, which
/// gets the buffer itself.
fn fan_out<'a>(
    mut recipients: impl Iterator<Item = &'a mut HubPeer>,
    plane: &mut FaultPlane,
    src: u32,
    stamp: u64,
    frame: Vec<u8>,
) {
    let Some(mut peer) = recipients.next() else {
        return;
    };
    for next in recipients {
        peer.deliver(plane, src, stamp, Cow::Borrowed(&frame));
        peer = next;
    }
    peer.deliver(plane, src, stamp, Cow::Owned(frame));
}

/// The hub is the wall-clock shell around one [`FaultPlane`]: it owns the
/// peers' channels, wakers and hold-back lists, and asks the plane what
/// happens to every copy.
struct HubInner {
    /// Keyed by wire key and ordered, so a cast meets its recipients —
    /// and the plane's dice — in the same order on every run.
    peers: BTreeMap<u64, HubPeer>,
    plane: FaultPlane,
}

/// An in-process datagram hub connecting [`LoopbackTransport`] endpoints.
///
/// Cloning the hub handle is cheap; all clones share one registry. The
/// fault plan is driven by a seeded [`FaultPlane`] and casts fan out in
/// ascending wire-key order, so a failing integration test replays
/// bit-for-bit.
#[derive(Clone)]
pub struct LoopbackHub {
    inner: Arc<Mutex<HubInner>>,
    capacity: usize,
}

impl LoopbackHub {
    /// A fault-free hub (still seedable: the plan can be swapped later).
    pub fn new(seed: u64) -> LoopbackHub {
        LoopbackHub::with_faults(seed, FaultPlan::clean())
    }

    /// A hub injecting `plan` faults, deterministically from `seed`.
    pub fn with_faults(seed: u64, plan: FaultPlan) -> LoopbackHub {
        LoopbackHub {
            inner: Arc::new(Mutex::new(HubInner {
                peers: BTreeMap::new(),
                plane: FaultPlane::new(seed, plan),
            })),
            capacity: 4096,
        }
    }

    /// Ingress queue capacity (datagrams) for transports attached later.
    pub fn with_capacity(mut self, capacity: usize) -> LoopbackHub {
        self.capacity = capacity.max(1);
        self
    }

    /// Registers `ep` and returns its transport.
    ///
    /// # Panics
    ///
    /// Panics if `ep` is already attached — two receivers for one
    /// endpoint is a wiring bug, not a runtime condition.
    pub fn attach(&self, ep: Endpoint) -> LoopbackTransport {
        let (tx, rx) = sync_channel(self.capacity);
        let peer = HubPeer {
            id: ep.id(),
            tx,
            waker: None,
            held: Vec::new(),
        };
        let prev = self.locked().peers.insert(ep.to_wire(), peer);
        assert!(prev.is_none(), "endpoint attached twice: {ep:?}");
        LoopbackTransport {
            ep,
            hub: self.clone(),
            rx,
        }
    }

    fn locked(&self) -> MutexGuard<'_, HubInner> {
        self.inner
            .lock()
            .expect("loopback hub mutex poisoned: a peer worker thread panicked mid-operation")
    }

    /// Replaces the fault plan (e.g. to stop faults for a drain phase).
    pub fn set_plan(&self, plan: FaultPlan) {
        self.locked().plane.set_plan(plan);
    }

    /// Faults injected so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.locked().plane.counts()
    }

    /// Arms `script` relative to the current obs clock, replacing any
    /// previously armed schedule. Steps fire as datagram traffic (or an
    /// idle receiver poll) moves the hub clock past each deadline.
    pub fn run_script(&self, script: PartitionScript) {
        let t0 = ensemble_obs::now_ns();
        self.locked().plane.arm(t0, script);
    }

    /// Immediately partitions the listed endpoint ids into disjoint
    /// components (see [`PartitionOp::Split`]).
    pub fn split(&self, groups: Vec<Vec<u32>>) {
        self.locked().plane.apply(&PartitionOp::Split(groups));
    }

    /// Immediately removes the component map.
    pub fn heal(&self) {
        self.locked().plane.apply(&PartitionOp::Heal);
    }

    /// Immediately installs a one-way drop from `from` to `to`.
    pub fn drop_link(&self, from: u32, to: u32) {
        self.locked()
            .plane
            .apply(&PartitionOp::DropLink { from, to });
    }

    /// Immediately removes a one-way drop.
    pub fn restore_link(&self, from: u32, to: u32) {
        self.locked()
            .plane
            .apply(&PartitionOp::RestoreLink { from, to });
    }

    /// The active link restrictions and remaining script steps.
    pub fn partition_status(&self) -> PartitionStatus {
        self.locked().plane.status()
    }

    /// Fault totals and partition layout in one snapshot, the shape
    /// [`crate::RuntimeStats`] carries. Hand
    /// `move || hub.health()` to
    /// [`crate::Node::set_transport_health_source`] to surface it from
    /// [`crate::Node::stats`] and the metrics exposition.
    pub fn health(&self) -> crate::metrics::TransportHealth {
        let inner = self.locked();
        crate::metrics::TransportHealth {
            faults: inner.plane.counts(),
            partition: inner.plane.status(),
        }
    }
}

/// One endpoint's view of a [`LoopbackHub`].
pub struct LoopbackTransport {
    ep: Endpoint,
    hub: LoopbackHub,
    rx: Receiver<(u64, Vec<u8>)>,
}

impl Transport for LoopbackTransport {
    fn local_ep(&self) -> Endpoint {
        self.ep
    }

    fn send(&mut self, pkt: &Packet) -> io::Result<()> {
        self.send_at(pkt, ensemble_obs::now_ns())
    }

    fn send_at(&mut self, pkt: &Packet, origin_ns: u64) -> io::Result<()> {
        let frame = encode_datagram(pkt);
        let src = self.ep.id();
        let mut inner = self.hub.locked();
        let HubInner { peers, plane } = &mut *inner;
        plane.advance(origin_ns);
        match pkt.dst {
            Dest::Cast => {
                let me = self.ep.to_wire();
                let others = peers.iter_mut().filter(|(&dst, _)| dst != me);
                fan_out(others.map(|(_, peer)| peer), plane, src, origin_ns, frame);
            }
            Dest::Point(dst) => {
                let peer = peers.get_mut(&dst.to_wire());
                fan_out(peer.into_iter(), plane, src, origin_ns, frame);
            }
        }
        Ok(())
    }

    fn try_recv(&mut self) -> io::Result<Option<Packet>> {
        Ok(self.try_recv_stamped()?.map(|(p, _)| p))
    }

    fn set_waker(&mut self, waker: Arc<Waker>) {
        if let Some(peer) = self.hub.locked().peers.get_mut(&self.ep.to_wire()) {
            peer.waker = Some(waker);
        }
    }

    fn try_recv_stamped(&mut self) -> io::Result<Option<(Packet, Option<u64>)>> {
        loop {
            match self.rx.try_recv() {
                Ok((stamp, frame)) => match decode_datagram_owned(frame) {
                    Ok(pkt) => return Ok(Some((pkt, Some(stamp)))),
                    Err(_) => continue, // foreign datagram: drop, keep polling
                },
                Err(TryRecvError::Empty) => {
                    // Idle: release anything held back for us so a
                    // reordered datagram cannot be starved forever, and
                    // keep the script moving on a quiet hub.
                    {
                        let mut inner = self.hub.locked();
                        let HubInner { peers, plane } = &mut *inner;
                        plane.advance(ensemble_obs::now_ns());
                        if let Some(peer) = peers.get_mut(&self.ep.to_wire()) {
                            peer.flush_held(plane);
                        }
                    }
                    return match self.rx.try_recv() {
                        Ok((stamp, frame)) => {
                            Ok(decode_datagram_owned(frame).ok().map(|p| (p, Some(stamp))))
                        }
                        Err(_) => Ok(None),
                    };
                }
                Err(TryRecvError::Disconnected) => return Ok(None),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_transport::decode_datagram;

    fn cast(src: u32, body: &[u8]) -> Packet {
        Packet::cast(Endpoint::new(src), body.to_vec())
    }

    #[test]
    fn clean_hub_delivers_casts_to_everyone_else() {
        let hub = LoopbackHub::new(1);
        let mut a = hub.attach(Endpoint::new(0));
        let mut b = hub.attach(Endpoint::new(1));
        let mut c = hub.attach(Endpoint::new(2));
        a.send(&cast(0, b"hi")).unwrap();
        assert!(a.try_recv().unwrap().is_none(), "no self-delivery");
        let pb = b.try_recv().unwrap().expect("b receives");
        let pc = c.try_recv().unwrap().expect("c receives");
        assert_eq!(pb.bytes, b"hi");
        assert_eq!(pc.src, Endpoint::new(0));
    }

    #[test]
    fn point_reaches_only_the_target() {
        let hub = LoopbackHub::new(1);
        let mut a = hub.attach(Endpoint::new(0));
        let mut b = hub.attach(Endpoint::new(1));
        let mut c = hub.attach(Endpoint::new(2));
        let pkt = Packet::point(Endpoint::new(0), Endpoint::new(2), b"x".to_vec());
        a.send(&pkt).unwrap();
        assert!(b.try_recv().unwrap().is_none());
        assert_eq!(c.try_recv().unwrap().unwrap().bytes, b"x");
    }

    #[test]
    fn drop_plan_loses_packets_deterministically() {
        let run = |seed| {
            let hub = LoopbackHub::with_faults(seed, FaultPlan::lossy(0.5, 0.0, 0.0));
            let a = hub.attach(Endpoint::new(0));
            let mut b = hub.attach(Endpoint::new(1));
            let mut a = a;
            for i in 0..100u8 {
                a.send(&cast(0, &[i])).unwrap();
            }
            let mut got = Vec::new();
            while let Some(p) = b.try_recv().unwrap() {
                got.push(p.bytes[0]);
            }
            got
        };
        let first = run(7);
        assert!(first.len() < 100, "some packets must drop");
        assert!(!first.is_empty(), "some packets must survive");
        assert_eq!(first, run(7), "same seed, same faults");
    }

    #[test]
    fn reorder_swaps_adjacent_packets() {
        let hub = LoopbackHub::with_faults(3, FaultPlan::lossy(0.0, 0.0, 0.4));
        let mut a = hub.attach(Endpoint::new(0));
        let mut b = hub.attach(Endpoint::new(1));
        for i in 0..200u8 {
            a.send(&cast(0, &[i])).unwrap();
        }
        let mut got = Vec::new();
        while let Some(p) = b.try_recv().unwrap() {
            got.push(p.bytes[0]);
        }
        assert_eq!(got.len(), 200, "reordering must not lose packets");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_ne!(got, sorted, "some packets must arrive out of order");
        assert_eq!(sorted, (0..200u8).collect::<Vec<_>>());
    }

    #[test]
    fn duplication_delivers_twice() {
        let hub = LoopbackHub::with_faults(9, FaultPlan::lossy(0.0, 1.0, 0.0));
        let mut a = hub.attach(Endpoint::new(0));
        let mut b = hub.attach(Endpoint::new(1));
        a.send(&cast(0, b"dup")).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap().bytes, b"dup");
        assert_eq!(b.try_recv().unwrap().unwrap().bytes, b"dup");
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn waker_latches_a_wake_posted_before_park() {
        let w = Waker::new();
        w.wake();
        w.wake(); // redundant wakes coalesce
        assert!(w.park(std::time::Duration::ZERO), "latched wake consumed");
        assert!(
            !w.park(std::time::Duration::from_millis(1)),
            "second park times out"
        );
    }

    #[test]
    fn waker_releases_a_parked_thread() {
        let w = Arc::new(Waker::new());
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || w2.park(std::time::Duration::from_secs(5)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        w.wake();
        assert!(t.join().unwrap(), "park released by wake, not timeout");
    }

    #[test]
    fn hub_send_nudges_the_recipients_waker() {
        let hub = LoopbackHub::new(2);
        let mut a = hub.attach(Endpoint::new(0));
        let mut b = hub.attach(Endpoint::new(1));
        let w = Arc::new(Waker::new());
        b.set_waker(Arc::clone(&w));
        a.send(&cast(0, b"ping")).unwrap();
        assert!(w.park(std::time::Duration::ZERO), "delivery posted a wake");
        assert_eq!(b.try_recv().unwrap().unwrap().bytes, b"ping");
    }

    #[test]
    fn split_blocks_cross_component_traffic_both_ways() {
        let hub = LoopbackHub::new(11);
        let mut a = hub.attach(Endpoint::new(0));
        let mut b = hub.attach(Endpoint::new(1));
        let mut c = hub.attach(Endpoint::new(2));
        hub.split(vec![vec![0, 1], vec![2]]);
        a.send(&cast(0, b"in")).unwrap();
        c.send(&cast(2, b"out")).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap().bytes, b"in");
        assert!(b.try_recv().unwrap().is_none(), "c is cut off from b");
        assert!(c.try_recv().unwrap().is_none(), "a is cut off from c");
        assert_eq!(hub.fault_counts().partition_drops, 3);
        assert!(hub.partition_status().is_partitioned());
        hub.heal();
        a.send(&cast(0, b"again")).unwrap();
        assert_eq!(c.try_recv().unwrap().unwrap().bytes, b"again");
        assert!(!hub.partition_status().is_partitioned());
    }

    #[test]
    fn split_keys_on_id_so_reincarnations_stay_inside() {
        let hub = LoopbackHub::new(11);
        let mut a = hub.attach(Endpoint::new(0));
        let mut b2 = hub.attach(Endpoint::new(1).reincarnate());
        hub.split(vec![vec![0], vec![1]]);
        a.send(&cast(0, b"x")).unwrap();
        assert!(
            b2.try_recv().unwrap().is_none(),
            "id 1 is partitioned regardless of incarnation"
        );
        let _ = a;
    }

    #[test]
    fn one_way_drop_is_asymmetric() {
        let hub = LoopbackHub::new(4);
        let mut a = hub.attach(Endpoint::new(0));
        let mut b = hub.attach(Endpoint::new(1));
        hub.drop_link(0, 1);
        a.send(&cast(0, b"lost")).unwrap();
        b.send(&cast(1, b"heard")).unwrap();
        assert!(b.try_recv().unwrap().is_none(), "a→b is dead");
        assert_eq!(a.try_recv().unwrap().unwrap().bytes, b"heard");
        assert_eq!(hub.fault_counts().link_drops, 1);
        hub.restore_link(0, 1);
        a.send(&cast(0, b"back")).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap().bytes, b"back");
    }

    #[test]
    fn script_splits_and_heals_on_the_virtual_clock() {
        let hub = LoopbackHub::new(8);
        let mut a = hub.attach(Endpoint::new(0));
        let mut b = hub.attach(Endpoint::new(1));
        // Split immediately, heal 5ms after arming.
        hub.run_script(
            PartitionScript::new()
                .at(0, PartitionOp::Split(vec![vec![0], vec![1]]))
                .at(5_000_000, PartitionOp::Heal),
        );
        a.send(&cast(0, b"early")).unwrap();
        assert!(b.try_recv().unwrap().is_none(), "split step applied");
        assert_eq!(hub.partition_status().pending_steps, 1);
        std::thread::sleep(std::time::Duration::from_millis(6));
        a.send(&cast(0, b"late")).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap().bytes, b"late");
        assert_eq!(hub.partition_status().pending_steps, 0);
    }

    #[test]
    fn holdback_does_not_leak_across_a_later_split() {
        // Force every datagram into holdback, then split before the
        // flush: the held datagram must be re-checked and dropped.
        let hub = LoopbackHub::with_faults(2, FaultPlan::lossy(0.0, 0.0, 1.0));
        let mut a = hub.attach(Endpoint::new(0));
        let mut b = hub.attach(Endpoint::new(1));
        a.send(&cast(0, b"held")).unwrap();
        hub.split(vec![vec![0], vec![1]]);
        assert!(
            b.try_recv().unwrap().is_none(),
            "flush re-checks the matrix"
        );
        assert_eq!(hub.fault_counts().partition_drops, 1);
    }

    #[test]
    fn same_seed_assigns_the_same_dice_to_the_same_recipients() {
        // A cast meets its recipients in wire-key order, so the plan's
        // draws land on the same (datagram, recipient) pairs in every hub
        // built from one seed — a per-instance hash order did not.
        let run = || {
            let hub = LoopbackHub::with_faults(0xD1CE, FaultPlan::lossy(0.2, 0.2, 0.2));
            let mut peers: Vec<_> = (0..3).map(|i| hub.attach(Endpoint::new(i))).collect();
            for i in 0..200u8 {
                let from = u32::from(i % 3);
                peers[from as usize].send(&cast(from, &[i])).unwrap();
            }
            let got: Vec<Vec<u8>> = peers
                .iter_mut()
                .map(|p| {
                    std::iter::from_fn(|| p.try_recv().unwrap().map(|pkt| pkt.bytes[0])).collect()
                })
                .collect();
            (got, hub.fault_counts())
        };
        let first = run();
        assert!(first.1.dropped > 0 && first.1.duplicated > 0 && first.1.reordered > 0);
        for hub in 1..16 {
            assert_eq!(run(), first, "hub #{hub} replays hub #0");
        }
    }

    #[test]
    fn hub_and_bare_plane_agree_on_every_fate() {
        // One model: the hub adds to the plane only what "late" means on
        // its clock (behind the next datagram to that recipient, matrix
        // re-checked at the flush). Same seed, plan, script and link
        // sequence → same fates, same counts.
        const T0: u64 = 1_000;
        let (seed, plan) = (0xFA7E, FaultPlan::lossy(0.2, 0.15, 0.25));
        let script = || {
            PartitionScript::new()
                .at(100, PartitionOp::Split(vec![vec![0, 1], vec![2]]))
                .at(200, PartitionOp::DropLink { from: 1, to: 0 })
                .at(300, PartitionOp::Heal)
                .at(400, PartitionOp::RestoreLink { from: 1, to: 0 })
        };
        let hub = LoopbackHub::with_faults(seed, plan);
        let mut peers: Vec<_> = (0..3).map(|i| hub.attach(Endpoint::new(i))).collect();
        hub.locked().plane.arm(T0, script());
        let mut plane = FaultPlane::new(seed, plan);
        plane.arm(T0, script());
        let mut held: [Vec<u32>; 3] = Default::default();

        let mut links = ensemble_util::DetRng::new(99);
        let mut seen = Vec::new();
        for k in 0..500u64 {
            let src = links.below(3) as u32;
            let dst = (src + 1 + links.below(2) as u32) % 3;
            let now = T0 + k;

            let body = k.to_le_bytes().to_vec();
            let pkt = Packet::point(Endpoint::new(src), Endpoint::new(dst), body.clone());
            peers[src as usize].send_at(&pkt, now).unwrap();
            // Read the channel directly: an idle `try_recv` would flush
            // the hold-back list and consult the wall clock.
            let rx = &peers[dst as usize].rx;
            let copies = std::iter::from_fn(|| rx.try_recv().ok())
                .filter(|(_, frame)| decode_datagram(frame).unwrap().bytes == body)
                .count();
            let key = Endpoint::new(dst).to_wire();
            let is_held = hub.locked().peers[&key].held.iter().any(|h| h.1 == now);
            let hub_fate = match (is_held, copies) {
                (true, 0) => Fate::Late,
                (false, 0) => Fate::Drop,
                (false, 1) => Fate::Once,
                (false, 2) => Fate::Twice,
                other => panic!("datagram {k}: held and copies = {other:?}"),
            };

            plane.advance(now);
            let fate = plane.fate(src, dst);
            match fate {
                Fate::Drop => {}
                Fate::Late => held[dst as usize].push(src),
                Fate::Once | Fate::Twice => {
                    for late_src in held[dst as usize].drain(..) {
                        plane.link_blocked(late_src, dst);
                    }
                }
            }
            assert_eq!(hub_fate, fate, "datagram {k}: {src}→{dst}");
            if !seen.contains(&fate) {
                seen.push(fate);
            }
        }
        assert_eq!(seen.len(), 4, "every fate occurred: {seen:?}");
        let counts = plane.counts();
        assert!(counts.partition_drops > 0 && counts.link_drops > 0);
        assert_eq!(hub.fault_counts(), counts);
        assert_eq!(hub.partition_status(), plane.status());
    }

    #[test]
    fn full_ingress_queue_drops_not_blocks() {
        let hub = LoopbackHub::new(5).with_capacity(4);
        let mut a = hub.attach(Endpoint::new(0));
        let _b = hub.attach(Endpoint::new(1));
        for i in 0..10u8 {
            a.send(&cast(0, &[i])).unwrap(); // must not block
        }
        assert_eq!(hub.fault_counts().backpressure_drops, 6);
    }
}
