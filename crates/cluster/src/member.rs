//! [`ClusterNode`]: one self-assembling group member.
//!
//! `form` runs rendezvous synchronously on the caller's thread, joins
//! the agreed view on a private [`Node`], then hands the control
//! transport and the group handle to a *driver* thread. The driver owns
//! the member's view and three deadlines (heartbeat, detector sweep,
//! merge beacon), checks them each time it wakes from a short park, and:
//!
//! * heartbeats every peer each period and sweeps the [`Detector`];
//! * feeds real `Suspect` events into the stack, naming the silent
//!   members by endpoint: the stack maps them to ranks in the view it
//!   is in (suspect/elect/gmp run the actual view change — the driver
//!   never invents views);
//! * fences stale-epoch frames, so an expelled member cannot disturb the
//!   survivors and learns it has been passed by;
//! * hands stack deliveries to the channel the caller passed to
//!   [`ClusterNode::form`], so the application reads at its own pace
//!   without stalling a shard.

use crate::config::{ClusterConfig, ClusterError};
use crate::detector::Detector;
use crate::metrics::ClusterMetrics;
use crate::rendezvous::{JoinerRendezvous, SeedRendezvous};
use crate::wire::{decode, encode, Envelope, Frame};
use ensemble_event::ViewState;
use ensemble_obs::{now_ns, CcpFailure, Direction, Event, EventKind, RingWriter, Tag};
use ensemble_runtime::{Delivery, GroupHandle, GroupSender, Node, NodeObs, Transport, Waker};
use ensemble_transport::Packet;
use ensemble_util::{Endpoint, GroupId, Rank, Time, ViewId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// First interval between a joiner's Hello retries; each retry doubles
/// it (with seed-derived jitter) up to [`HELLO_RETRY_MAX`].
const HELLO_RETRY: Duration = Duration::from_millis(20);
/// Cap on the Hello retry backoff.
const HELLO_RETRY_MAX: Duration = Duration::from_millis(320);
/// Interval between merge beacons while a coordinator has absent or
/// unreachable members to rediscover (partition healing).
const MERGE_BEACON_PERIOD_NS: u64 = 100_000_000;

/// Supplies the application snapshot shipped to joiners in the Welcome.
///
/// Implemented for any `FnMut() -> Vec<u8> + Send` closure.
pub trait StateProvider: Send {
    /// Serializes the current application state.
    fn snapshot(&mut self) -> Vec<u8>;

    /// A monotonic version of the state (for the KV service, the commit
    /// index). Joiners advertise the version they recovered locally in
    /// their Hello; a coordinator whose state is at or below that
    /// version skips shipping the snapshot — the rejoiner caught up
    /// from its own log. The default (`0`) disables the fast path.
    fn version(&mut self) -> u64 {
        0
    }
}

impl<F: FnMut() -> Vec<u8> + Send> StateProvider for F {
    fn snapshot(&mut self) -> Vec<u8> {
        self()
    }
}

/// What a cluster member reports to its application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterEvent {
    /// Rendezvous completed; the group stack runs in this view.
    Formed(ViewState),
    /// The seed's state snapshot (joiners only, before `Formed`).
    Snapshot(Vec<u8>),
    /// A delivery from the group stack (casts, sends, new views, …).
    Delivery(Delivery),
    /// We told a stale-epoch peer the group has moved on.
    FencedPeer {
        /// The stale member.
        peer: Endpoint,
        /// The epoch it was still in.
        epoch: u64,
    },
    /// A newer-epoch member fenced *us*: we were expelled by a view
    /// change we never saw. The driver stops heartbeating; rejoin with
    /// a fresh incarnation ([`Endpoint::reincarnate`]) via a new
    /// [`ClusterNode::form`] — the group admits it through the merge
    /// path and ships a state snapshot.
    FencedBy {
        /// The member that fenced us.
        peer: Endpoint,
        /// Its (newer) epoch.
        epoch: u64,
    },
    /// This component lost quorum (a partition left it in the minority):
    /// the group stalled — application egress parks, ingress is
    /// quarantined — until the partition heals and a merge readmits it.
    MinorityPartition {
        /// Live (unsuspected) members still reachable in this component.
        live: usize,
        /// Members needed for quorum (majority of the last primary view).
        needed: usize,
    },
}

/// One member of a self-assembling cluster.
///
/// See the crate docs for the protocol; see `examples/cluster_demo.rs`
/// for the three-node lifecycle.
pub struct ClusterNode {
    ep: Endpoint,
    node: Node,
    sender: GroupSender,
    metrics: Arc<ClusterMetrics>,
    /// The driver's view, published each time it installs one.
    view: Arc<Mutex<ViewState>>,
    stop: Arc<AtomicBool>,
    /// The driver parks on this; `halt` wakes it after setting `stop`.
    waker: Arc<Waker>,
    serving: Arc<AtomicBool>,
    driver: Option<JoinHandle<()>>,
}

impl ClusterNode {
    /// Rendezvous via `seed` and start this member.
    ///
    /// Blocks until the initial membership forms (or `cfg.form_timeout`
    /// passes). `control` carries the cluster's Hello/Welcome/Heartbeat
    /// frames; `data` carries the group stack's traffic — two transport
    /// instances for the same endpoint identity. When `ep == seed`,
    /// this node *is* the seed and `state` (if any) supplies the
    /// snapshot shipped to every joiner.
    ///
    /// Every [`ClusterEvent`] goes to `events`: `Snapshot` and `Formed`
    /// from the caller's thread before this returns, the rest from the
    /// driver thread, in order. An application whose thread also serves
    /// `state` requests can merge both into one queue: the driver asks
    /// `state` and emits deliveries in its own program order.
    pub fn form<E>(
        ep: Endpoint,
        seed: Endpoint,
        cfg: ClusterConfig,
        mut control: Box<dyn Transport>,
        data: Box<dyn Transport>,
        state: Option<Box<dyn StateProvider>>,
        events: Sender<E>,
    ) -> Result<ClusterNode, ClusterError>
    where
        E: From<ClusterEvent> + Send + 'static,
    {
        cfg.validate()?;
        let metrics = Arc::new(ClusterMetrics::default());
        let deadline = std::time::Instant::now() + cfg.form_timeout;
        let poll_pause = (HELLO_RETRY / 4).max(Duration::from_micros(200));

        // --- Rendezvous (caller's thread, blocking) -------------------
        let am_seed = ep == seed;
        let mut state = state;
        let mut snapshot_out = Vec::new();
        let mut welcome_cache: Option<SeedRendezvous> = None;
        let (members, snapshot_in, start_ltime) = if am_seed {
            // Snapshot by borrow: the provider is retained and handed to
            // the driver, which re-snapshots for merge grants after heals.
            let snap = state.as_mut().map(|s| s.snapshot()).unwrap_or_default();
            let mut rdv = SeedRendezvous::new(ep, cfg.expected, cfg.key, snap.clone());
            let members = loop {
                if let Some(m) = rdv.poll(control.as_mut()) {
                    break m;
                }
                if std::time::Instant::now() >= deadline {
                    metrics
                        .bad_frames
                        .fetch_add(rdv.bad_frames, Ordering::Relaxed);
                    return Err(ClusterError::Timeout);
                }
                std::thread::sleep(poll_pause);
            };
            metrics
                .bad_frames
                .fetch_add(rdv.bad_frames, Ordering::Relaxed);
            if !snap.is_empty() {
                metrics
                    .state_transfers
                    .fetch_add((members.len() - 1) as u64, Ordering::Relaxed);
            }
            snapshot_out = snap;
            welcome_cache = Some(rdv);
            (members, Vec::new(), 0)
        } else {
            // Advertise the locally recovered state version so the
            // coordinator can skip the snapshot if we're already caught
            // up (crash-recovery rejoin fast path).
            let have = state.as_mut().map(|s| s.version()).unwrap_or(0);
            let mut rdv = JoinerRendezvous::new(
                ep,
                seed,
                cfg.key,
                HELLO_RETRY.as_nanos() as u64,
                HELLO_RETRY_MAX.as_nanos() as u64,
            )
            .with_resume_hint(have);
            let got = loop {
                if let Some(got) = rdv.poll(control.as_mut(), Time(now_ns())) {
                    break got;
                }
                if std::time::Instant::now() >= deadline {
                    metrics
                        .bad_frames
                        .fetch_add(rdv.bad_frames, Ordering::Relaxed);
                    return Err(ClusterError::JoinFailed {
                        attempts: rdv.attempts,
                    });
                }
                std::thread::sleep(poll_pause);
            };
            metrics
                .bad_frames
                .fetch_add(rdv.bad_frames, Ordering::Relaxed);
            (got.members, got.snapshot, got.view_ltime)
        };

        // --- Join the agreed view on a private runtime node -----------
        let rank = members
            .iter()
            .position(|&m| m == ep)
            .map(|i| Rank(i as u16))
            .expect("rendezvous produced a membership excluding this node");
        let vs = ViewState {
            group: GroupId(1),
            view_id: ViewId {
                ltime: start_ltime,
                coord: members[0],
            },
            members: members.clone(),
            rank,
        };
        let mut node = Node::new(cfg.runtime.clone());
        let handle: GroupHandle = node
            .join(cfg.stack, vs.clone(), cfg.engine, cfg.layers.clone(), data)
            .map_err(|e| ClusterError::Runtime(e.to_string()))?;
        let sender = handle.sender();

        // --- Start the driver -----------------------------------------
        let obs = node.obs_arc();
        let mut trace = Trace::new(obs.aux_writer());
        if !am_seed && !snapshot_in.is_empty() {
            metrics.state_transfers.fetch_add(1, Ordering::Relaxed);
            trace.record(
                ep,
                EventKind::StateTransfer,
                Direction::Up,
                snapshot_in.len() as u64,
            );
            let _ = events.send(ClusterEvent::Snapshot(snapshot_in).into());
        } else if am_seed && !snapshot_out.is_empty() {
            trace.record(
                ep,
                EventKind::StateTransfer,
                Direction::Dn,
                snapshot_out.len() as u64,
            );
        }
        let _ = events.send(ClusterEvent::Formed(vs.clone()).into());

        let published = Arc::new(Mutex::new(vs.clone()));
        let stop = Arc::new(AtomicBool::new(false));
        let serving = Arc::new(AtomicBool::new(true));
        let waker = Arc::new(Waker::new());
        let now = Time(now_ns());
        let period_ns = cfg.heartbeat_period.as_nanos() as u64;
        let driver = Driver {
            me: ep,
            key: cfg.key,
            period_ns,
            control,
            handle,
            welcome: welcome_cache.map(|r| (r, members)),
            detector: Detector::new(period_ns, cfg.miss_limit),
            view: vs,
            published: Arc::clone(&published),
            metrics: Arc::clone(&metrics),
            events,
            stop: Arc::clone(&stop),
            waker: Arc::clone(&waker),
            heartbeat_at: Time(now.0 + period_ns),
            sweep_at: Time(now.0 + period_ns / 2),
            beacon_at: Time(now.0 + MERGE_BEACON_PERIOD_NS),
            obs,
            trace,
            epoch: start_ltime,
            hb_seq: 0,
            fenced: false,
            suspicion_at: None,
            state,
            stalled: false,
            serving: Arc::clone(&serving),
            suspected_eps: Vec::new(),
            absent: Vec::new(),
            pending_admits: Vec::new(),
            admit_hints: Vec::new(),
            merging: false,
        };
        let worker = std::thread::Builder::new()
            .name(format!("ensemble-cluster-{}", ep.id()))
            .spawn(move || driver.run(now))
            .map_err(|e| ClusterError::Runtime(format!("spawn driver: {e}")))?;

        Ok(ClusterNode {
            ep,
            node,
            sender,
            metrics,
            view: published,
            stop,
            waker,
            serving,
            driver: Some(worker),
        })
    }

    /// This member's endpoint.
    pub fn endpoint(&self) -> Endpoint {
        self.ep
    }

    /// The most recently installed view.
    pub fn view(&self) -> ViewState {
        self.view
            .lock()
            .expect("cluster view mutex poisoned: the driver thread panicked")
            .clone()
    }

    /// Multicasts `payload` to the group.
    pub fn cast(&self, payload: &[u8]) -> Result<(), ClusterError> {
        self.sender
            .cast(payload)
            .map_err(|e| ClusterError::Runtime(e.to_string()))
    }

    /// A cloneable send-only handle usable from other threads.
    pub fn sender(&self) -> GroupSender {
        self.sender.clone()
    }

    /// Whether this member is currently serving application traffic.
    ///
    /// `false` while the member is stalled in a minority partition or
    /// fenced by a newer epoch — a service fronting this node (the KV
    /// server) should reject requests immediately instead of letting
    /// clients time out on operations parked behind the stall. One
    /// relaxed atomic load; safe to call on every request.
    pub fn is_serving(&self) -> bool {
        self.serving.load(Ordering::Relaxed)
    }

    /// A cloneable handle to the serving flag for threads that cannot
    /// borrow the node (e.g. TCP connection workers).
    pub fn serving_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.serving)
    }

    /// This member's cluster counters.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Drains this member's flight recorder: runtime trace events plus
    /// the cluster driver's (heartbeats, suspicion, merge beacons and
    /// grants, minority stalls). The partition demo prints the healing
    /// episode from here.
    pub fn trace_events(&self) -> Vec<ensemble_obs::TraceEvent> {
        self.node.obs().drain()
    }

    /// A writer of this member's flight recorder, so one thread of a
    /// service layered on it (e.g. the KV replica's apply loop) records
    /// its spans where [`ClusterNode::trace_events`] drains. `None` when
    /// obs is off or the service ring's writer was taken before.
    pub fn trace_writer(&self) -> Option<RingWriter> {
        self.node.obs().aux_writer()
    }

    /// Runtime + cluster metrics in Prometheus text exposition format
    /// (includes the `ensemble_view_change_ns` histogram and every
    /// `ensemble_cluster_*` counter).
    pub fn metrics_text(&self) -> String {
        let mut text = self.node.metrics_text();
        text.push_str(&self.metrics.render());
        text
    }

    /// Stops this member abruptly — no Leave, no flush — simulating a
    /// crash. Survivors must detect it and install a new view.
    pub fn kill(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(d) = self.driver.take() {
            let _ = d.join();
        }
        self.node.shutdown();
    }
}

impl Drop for ClusterNode {
    fn drop(&mut self) {
        self.halt();
    }
}

/// The cluster driver's own flight-recorder ring (`None` when obs is
/// off), under the `cluster` pseudo-layer.
struct Trace(Option<(RingWriter, Tag)>);

impl Trace {
    fn new(writer: Option<RingWriter>) -> Trace {
        Trace(writer.map(|w| {
            let tag = w.register("cluster");
            (w, tag)
        }))
    }

    fn record(&mut self, ep: Endpoint, kind: EventKind, dir: Direction, aux: u64) {
        let Some((w, tag)) = &mut self.0 else {
            return;
        };
        w.record(&Event {
            t_ns: now_ns(),
            layer: *tag,
            kind,
            dir,
            group: ep.id(),
            seqno: 0,
            ccp: CcpFailure::None,
            aux,
        });
    }
}

struct Driver<E> {
    me: Endpoint,
    key: u64,
    period_ns: u64,
    control: Box<dyn Transport>,
    handle: GroupHandle,
    /// Seed only: the rendezvous state kept around to re-Welcome a
    /// joiner whose Welcome was lost (it shows up as a repeated Hello).
    welcome: Option<(SeedRendezvous, Vec<Endpoint>)>,
    detector: Detector,
    /// The view this driver last installed; its own copy, read lock-free.
    view: ViewState,
    /// Where [`ClusterNode::view`] reads `view`, written at each install.
    published: Arc<Mutex<ViewState>>,
    metrics: Arc<ClusterMetrics>,
    events: Sender<E>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    /// When to heartbeat every peer next.
    heartbeat_at: Time,
    /// When to sweep the detector for newly silent peers next.
    sweep_at: Time,
    /// When to beacon absent and suspected members next.
    beacon_at: Time,
    obs: Arc<NodeObs>,
    trace: Trace,
    epoch: u64,
    hb_seq: u64,
    /// Set when a newer epoch fenced us: stop heartbeating, the group
    /// has moved on without this member.
    fenced: bool,
    /// When the current suspicion window opened (first suspicion since
    /// the last view install), for the view-change latency histogram.
    suspicion_at: Option<u64>,
    /// Application state provider, re-snapshotted for merge grants.
    state: Option<Box<dyn StateProvider>>,
    /// This component lacks quorum: egress parks, ingress quarantines.
    stalled: bool,
    /// Published `!stalled && !fenced` for cheap service-plane queries.
    serving: Arc<AtomicBool>,
    /// Members of the current view the detector has silenced.
    suspected_eps: Vec<Endpoint>,
    /// Members expelled by past view changes — merge beacon targets.
    absent: Vec<Endpoint>,
    /// Endpoints awaiting admission through the next merge flush.
    pending_admits: Vec<Endpoint>,
    /// Resume hints (state version already held) advertised by pending
    /// admits in their Hello, by endpoint id. Component merges arrive
    /// without a hint and always receive the snapshot.
    admit_hints: Vec<(u32, u64)>,
    /// A merge flush is in flight; don't start another until it lands.
    merging: bool,
}

impl<E: From<ClusterEvent>> Driver<E> {
    fn run(mut self, now: Time) {
        self.detector.reset(&self.peers(), now);
        // Every idle turn parks this long unless woken, and the three
        // deadlines are checked once per turn, so each fires up to one
        // pause late. The shard nudges the waker once per batch of
        // deliveries it hands over (the loop below drains the whole
        // batch), the control transport on every ingress packet, and
        // `halt` on stop; a transport that ignores `set_waker` (UDP) is
        // only polled this often.
        let pause = Duration::from_nanos((self.period_ns / 8).clamp(100_000, 5_000_000));
        let _ = self.handle.set_delivery_waker(Arc::clone(&self.waker));
        self.control.set_waker(Arc::clone(&self.waker));

        while !self.stop.load(Ordering::Relaxed) {
            let mut busy = false;
            let now = Time(now_ns());

            // Control-plane ingress.
            while let Ok(Some(pkt)) = self.control.try_recv() {
                busy = true;
                match decode(&pkt.bytes, self.key) {
                    Ok(env) => self.on_frame(env, now),
                    Err(_) => {
                        self.metrics.bad_frames.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }

            // Deadlines: heartbeats out, detector sweeps, merge beacons.
            if now >= self.heartbeat_at {
                busy = true;
                self.heartbeat();
                self.heartbeat_at = Time(now.0 + self.period_ns);
            }
            if now >= self.sweep_at {
                busy = true;
                self.sweep(now);
                self.sweep_at = Time(now.0 + self.period_ns / 2);
            }
            if now >= self.beacon_at {
                busy = true;
                self.beacon();
                self.beacon_at = Time(now.0 + MERGE_BEACON_PERIOD_NS);
            }

            // Stack deliveries out to the application.
            while let Some(d) = self.handle.try_recv() {
                busy = true;
                self.on_delivery(d, Time(now_ns()));
            }

            if !busy {
                self.waker.park(pause);
            }
        }
        self.serving.store(false, Ordering::Relaxed);
    }

    fn emit(&self, ev: ClusterEvent) {
        let _ = self.events.send(ev.into());
    }

    /// Current peers (everyone in the view but us).
    fn peers(&self) -> Vec<Endpoint> {
        self.view
            .members
            .iter()
            .copied()
            .filter(|&m| m != self.me)
            .collect()
    }

    fn send_control(&mut self, to: Endpoint, frame: Frame) {
        let env = Envelope {
            src: self.me,
            epoch: self.epoch,
            frame,
        };
        let bytes = encode(&env, self.key);
        let _ = self.control.send(&Packet::point(self.me, to, bytes));
    }

    fn heartbeat(&mut self) {
        // A stalled component keeps heartbeating its own side (else the
        // minority members suspect each other and heal one-by-one); the
        // Fences its stale epoch draws from the majority are ignored
        // while stalled.
        if self.fenced {
            return;
        }
        let seq = self.hb_seq;
        self.hb_seq += 1;
        let peers = self.peers();
        for p in &peers {
            self.send_control(*p, Frame::Heartbeat { seq });
        }
        self.metrics
            .heartbeats_sent
            .fetch_add(peers.len() as u64, Ordering::Relaxed);
        self.trace
            .record(self.me, EventKind::Heartbeat, Direction::Dn, seq);
    }

    fn sweep(&mut self, now: Time) {
        let newly = self.detector.sweep(now);
        if newly.is_empty() {
            return;
        }
        for &ep in &newly {
            self.metrics.suspicions.fetch_add(1, Ordering::Relaxed);
            self.trace
                .record(ep, EventKind::Suspect, Direction::None, now.0);
            if !self.suspected_eps.contains(&ep) {
                self.suspected_eps.push(ep);
            }
        }
        if self.suspicion_at.is_none() {
            self.suspicion_at = Some(now.0);
        }
        // Primary-partition gate: suspicion only reaches the stack while
        // this component still holds a strict majority of the last view.
        // Below that, stall instead — the other side of the split owns
        // the primary view sequence.
        let live = self.live_members().len();
        let needed = self.view.members.len() / 2 + 1;
        if live < needed {
            self.enter_stall(live, needed);
            return;
        }
        if self.am_acting_coord() {
            // The acting coordinator's gmp will open the flush: this is
            // where the new view is first proposed.
            self.trace.record(
                self.me,
                EventKind::ViewPropose,
                Direction::Dn,
                self.epoch + 1,
            );
        }
        let _ = self.handle.suspect(newly);
    }

    /// Members of the view not currently suspected, in view order.
    fn live_members(&self) -> Vec<Endpoint> {
        self.view
            .members
            .iter()
            .copied()
            .filter(|m| !self.suspected_eps.contains(m))
            .collect()
    }

    /// The lowest unsuspected member acts as coordinator: rank 0 itself
    /// may be on the far side of a partition.
    fn acting_coord(&self) -> Option<Endpoint> {
        self.live_members().first().copied()
    }

    fn am_acting_coord(&self) -> bool {
        self.acting_coord() == Some(self.me)
    }

    /// Publishes the service-plane availability flag ([`ClusterNode::is_serving`]).
    fn publish_serving(&self) {
        self.serving
            .store(!self.stalled && !self.fenced, Ordering::Relaxed);
    }

    /// Parks the group: quorum is lost, so no view change may be driven
    /// from this component until a merge restores a majority.
    fn enter_stall(&mut self, live: usize, needed: usize) {
        if self.stalled {
            return;
        }
        self.stalled = true;
        let _ = self.handle.stall(true);
        self.publish_serving();
        self.metrics.minority_stalls.fetch_add(1, Ordering::Relaxed);
        self.trace.record(
            self.me,
            EventKind::MinorityStall,
            Direction::Dn,
            live as u64,
        );
        self.emit(ClusterEvent::MinorityPartition { live, needed });
    }

    /// Periodic merge beacon: the acting coordinator advertises its
    /// component to every absent or suspected member so the two sides of
    /// a healed partition rediscover each other.
    fn beacon(&mut self) {
        if self.fenced || !self.am_acting_coord() {
            return;
        }
        let mut targets: Vec<Endpoint> = Vec::new();
        for ep in self.suspected_eps.iter().chain(self.absent.iter()) {
            if *ep != self.me && !targets.contains(ep) {
                targets.push(*ep);
            }
        }
        if targets.is_empty() {
            return;
        }
        let live = self.live_members();
        for t in &targets {
            self.send_control(
                *t,
                Frame::MergeBeacon {
                    members: live.clone(),
                    stalled: self.stalled,
                },
            );
        }
        self.metrics
            .merge_beacons
            .fetch_add(targets.len() as u64, Ordering::Relaxed);
        self.trace.record(
            self.me,
            EventKind::MergeBeacon,
            Direction::Dn,
            targets.len() as u64,
        );
    }

    /// A foreign coordinator advertised its component. Seniority (by
    /// `(holds quorum, epoch, endpoint)`) decides direction: the junior
    /// side requests absorption, the senior side answers with its own
    /// beacon so the junior learns who to ask. Quorum ranks above epoch
    /// because only a non-stalled component may have kept committing —
    /// merged state must flow from it, never over it; a stalled side
    /// with a racing epoch would otherwise absorb the primary and roll
    /// back acknowledged work.
    fn on_merge_beacon(
        &mut self,
        src: Endpoint,
        their_epoch: u64,
        their_stalled: bool,
        _now: Time,
    ) {
        if self.fenced || !self.am_acting_coord() {
            return;
        }
        // Beacons from a live same-view peer are echoes, not foreign
        // components — nothing to merge.
        let foreign =
            self.stalled || !self.view.members.contains(&src) || self.suspected_eps.contains(&src);
        if !foreign {
            return;
        }
        self.trace
            .record(src, EventKind::MergeBeacon, Direction::Up, their_epoch);
        let live = self.live_members();
        if (!their_stalled, their_epoch, src) > (!self.stalled, self.epoch, self.me) {
            self.metrics.merge_requests.fetch_add(1, Ordering::Relaxed);
            self.send_control(src, Frame::MergeRequest { members: live });
        } else {
            self.metrics.merge_beacons.fetch_add(1, Ordering::Relaxed);
            self.send_control(
                src,
                Frame::MergeBeacon {
                    members: live,
                    stalled: self.stalled,
                },
            );
        }
    }

    /// A junior component (or a lone rejoiner) asked to be absorbed.
    /// Non-coordinators relay to the acting coordinator; the coordinator
    /// queues the admits and starts a merge flush once quorum allows.
    fn on_merge_request(&mut self, members: Vec<Endpoint>, _now: Time) {
        if self.fenced {
            return;
        }
        if !self.am_acting_coord() {
            if let Some(c) = self.acting_coord() {
                if c != self.me {
                    self.send_control(c, Frame::MergeRequest { members });
                }
            }
            return;
        }
        for ep in members {
            if ep == self.me {
                continue;
            }
            let live_in_view = self.view.members.contains(&ep) && !self.suspected_eps.contains(&ep);
            if live_in_view {
                continue;
            }
            if !self.pending_admits.contains(&ep) {
                self.pending_admits.push(ep);
            }
        }
        self.try_merge();
    }

    /// Starts a merge flush for the queued admits if none is in flight
    /// and the merged membership would hold quorum. A stalled senior
    /// unstalls here and injects its gated suspicions so gmp can run the
    /// combined suspect+merge view change without unreachable rows.
    fn try_merge(&mut self) {
        if self.merging || self.pending_admits.is_empty() {
            return;
        }
        let mut merged = self.live_members();
        for ep in &self.pending_admits {
            if !merged.iter().any(|m| m.id() == ep.id()) {
                merged.push(*ep);
            }
        }
        let needed = self.view.members.len() / 2 + 1;
        if merged.len() < needed {
            return;
        }
        self.merging = true;
        if self.stalled {
            self.stalled = false;
            let _ = self.handle.stall(false);
            self.publish_serving();
            self.trace.record(
                self.me,
                EventKind::MinorityStall,
                Direction::Up,
                merged.len() as u64,
            );
            if !self.suspected_eps.is_empty() {
                let _ = self.handle.suspect(self.suspected_eps.clone());
            }
        }
        self.trace.record(
            self.me,
            EventKind::ViewPropose,
            Direction::Dn,
            self.epoch + 1,
        );
        let _ = self.handle.merge(self.pending_admits.clone());
    }

    /// The senior coordinator granted us membership in its merged view:
    /// install it directly (the control plane replaces the flush we
    /// could not participate in from the far side of the split).
    fn on_merge_grant(
        &mut self,
        view_ltime: u64,
        members: Vec<Endpoint>,
        snapshot: Vec<u8>,
        _now: Time,
    ) {
        if self.fenced || view_ltime <= self.epoch {
            return;
        }
        let Some(idx) = members.iter().position(|&m| m == self.me) else {
            return;
        };
        let vs = ViewState {
            group: GroupId(1),
            view_id: ViewId {
                ltime: view_ltime,
                coord: members[0],
            },
            members,
            rank: Rank(idx as u16),
        };
        self.metrics
            .merge_grants_installed
            .fetch_add(1, Ordering::Relaxed);
        self.trace
            .record(self.me, EventKind::MergeGrant, Direction::Up, view_ltime);
        // The epoch moves now, not when the stack hands the view back: a
        // fence the old epoch drew must not land on the unstalled member
        // in between.
        self.epoch = view_ltime;
        if self.stalled {
            self.stalled = false;
            let _ = self.handle.stall(false);
            self.publish_serving();
        }
        if !snapshot.is_empty() {
            self.metrics.state_transfers.fetch_add(1, Ordering::Relaxed);
            self.trace.record(
                self.me,
                EventKind::StateTransfer,
                Direction::Up,
                snapshot.len() as u64,
            );
            self.emit(ClusterEvent::Snapshot(snapshot));
        }
        let _ = self.handle.install_view(vs);
    }

    fn on_frame(&mut self, env: Envelope, now: Time) {
        match env.frame {
            Frame::Heartbeat { .. } => {
                if self.fenced {
                    return;
                }
                if env.epoch < self.epoch {
                    if self.view.members.contains(&env.src) {
                        // A current member still catching up to the view
                        // we installed first (e.g. freshly merge-granted
                        // while another merge lands): alive, not expelled.
                        self.detector.heard(env.src, now);
                    } else {
                        // A stale non-member: tell it the group moved on.
                        // The event goes out before the counter ticks so an
                        // observer that polls `fences_sent` is guaranteed to
                        // find the FencedPeer event already handed to the sink.
                        self.send_control(env.src, Frame::Fence);
                        self.emit(ClusterEvent::FencedPeer {
                            peer: env.src,
                            epoch: env.epoch,
                        });
                        self.metrics.fences_sent.fetch_add(1, Ordering::Release);
                    }
                } else {
                    // Equal epoch, or newer while our own view change is
                    // still in flight — either way the peer is alive, and
                    // starving the detector of that fact would cascade
                    // into spurious suspicion mid-merge.
                    self.detector.heard(env.src, now);
                    if env.epoch == self.epoch {
                        self.metrics
                            .heartbeats_received
                            .fetch_add(1, Ordering::Relaxed);
                        self.trace
                            .record(env.src, EventKind::Heartbeat, Direction::Up, env.epoch);
                    }
                }
            }
            Frame::Fence => {
                if self.stalled {
                    // Expected crossfire during a heal: the majority
                    // moved on while we were parked. The merge path
                    // catches us up; being fenced here would strand us.
                    return;
                }
                if env.epoch > self.epoch && !self.fenced {
                    self.fenced = true;
                    self.publish_serving();
                    self.metrics.fences_received.fetch_add(1, Ordering::Relaxed);
                    self.emit(ClusterEvent::FencedBy {
                        peer: env.src,
                        epoch: env.epoch,
                    });
                }
            }
            Frame::Hello { have } => {
                // A joiner whose Welcome was lost retries its Hello; the
                // seed answers idempotently.
                if let Some((rdv, members)) = &self.welcome {
                    if members.contains(&env.src) {
                        rdv.rewelcome(self.control.as_mut(), env.src, members);
                        self.metrics.state_transfers.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                if self.fenced {
                    return;
                }
                // An unknown endpoint — a fenced member back with a
                // fresh incarnation, or a late cold joiner — is admitted
                // through the merge path: the acting coordinator runs a
                // flush and grants it the next view with a snapshot
                // (skipped if its resume hint says it is caught up).
                if !self.pending_admits.contains(&env.src) {
                    self.metrics.rejoins.fetch_add(1, Ordering::Relaxed);
                }
                self.admit_hints.retain(|(id, _)| *id != env.src.id());
                self.admit_hints.push((env.src.id(), have));
                self.on_merge_request(vec![env.src], now);
            }
            Frame::MergeBeacon {
                members: _,
                stalled,
            } => {
                self.on_merge_beacon(env.src, env.epoch, stalled, now);
            }
            Frame::MergeRequest { members } => {
                self.on_merge_request(members, now);
            }
            Frame::MergeGrant {
                view_ltime,
                members,
                snapshot,
            } => {
                self.on_merge_grant(view_ltime, members, snapshot, now);
            }
            Frame::Welcome { .. } => {} // already formed
        }
    }

    fn on_delivery(&mut self, d: Delivery, now: Time) {
        if let Delivery::View(vs) = &d {
            self.epoch = vs.view_id.ltime;
            let prev = std::mem::replace(&mut self.view, vs.clone());
            *self.published.lock().expect("cluster view mutex poisoned") = vs.clone();
            // Members the group expelled stay on the beacon list until a
            // merge (under any incarnation) brings them back.
            for m in prev.members {
                if m != self.me
                    && !vs.members.iter().any(|v| v.id() == m.id())
                    && !self.absent.contains(&m)
                {
                    self.absent.push(m);
                }
            }
            self.absent
                .retain(|a| !vs.members.iter().any(|v| v.id() == a.id()));
            self.suspected_eps.clear();
            if self.stalled {
                self.stalled = false;
                let _ = self.handle.stall(false);
                self.publish_serving();
            }
            self.detector.reset(&self.peers(), now);
            self.metrics.views_installed.fetch_add(1, Ordering::Relaxed);
            self.trace.record(
                self.me,
                EventKind::ViewInstall,
                Direction::None,
                vs.view_id.ltime,
            );
            if let Some(t0) = self.suspicion_at.take() {
                if self.obs.enabled() {
                    self.obs.view_change_ns.record(now.0.saturating_sub(t0));
                }
            }
            // This node drove the merge: grant the admitted members the
            // view they could not receive through the (partitioned) data
            // plane, with a fresh state snapshot.
            let granted: Vec<Endpoint> = self
                .pending_admits
                .iter()
                .copied()
                .filter(|ep| vs.members.contains(ep))
                .collect();
            if !granted.is_empty() {
                // State-transfer fast path: a rejoiner that already
                // recovered at least our state version from its own log
                // gets the view without the snapshot. Ask the provider
                // only for what ships: the version if some grantee sent
                // a hint, the snapshot if some grantee is not covered.
                let hints: Vec<u64> = granted
                    .iter()
                    .map(|g| {
                        let hint = self.admit_hints.iter().find(|(id, _)| *id == g.id());
                        hint.map_or(0, |(_, h)| *h)
                    })
                    .collect();
                let version = match &mut self.state {
                    Some(s) if hints.iter().any(|&h| h > 0) => s.version(),
                    _ => 0,
                };
                let covered = |have: u64| have > 0 && version > 0 && have >= version;
                let snap = match &mut self.state {
                    Some(s) if !hints.iter().all(|&h| covered(h)) => s.snapshot(),
                    _ => Vec::new(),
                };
                let mut shipped = 0u64;
                for (g, &have) in granted.iter().zip(&hints) {
                    let skip = covered(have);
                    let snapshot = if skip { Vec::new() } else { snap.clone() };
                    if skip {
                        self.metrics
                            .snapshots_skipped
                            .fetch_add(1, Ordering::Relaxed);
                    } else if !snap.is_empty() {
                        shipped += 1;
                    }
                    self.send_control(
                        *g,
                        Frame::MergeGrant {
                            view_ltime: vs.view_id.ltime,
                            members: vs.members.clone(),
                            snapshot,
                        },
                    );
                }
                self.metrics
                    .merge_grants_sent
                    .fetch_add(granted.len() as u64, Ordering::Relaxed);
                if shipped > 0 {
                    self.metrics
                        .state_transfers
                        .fetch_add(shipped, Ordering::Relaxed);
                }
                self.trace.record(
                    self.me,
                    EventKind::MergeGrant,
                    Direction::Dn,
                    vs.view_id.ltime,
                );
                self.pending_admits.retain(|ep| !vs.members.contains(ep));
                self.admit_hints
                    .retain(|(id, _)| self.pending_admits.iter().any(|ep| ep.id() == *id));
            }
            self.merging = false;
            if !self.pending_admits.is_empty() {
                self.try_merge();
            }
        }
        self.emit(ClusterEvent::Delivery(d));
    }
}
