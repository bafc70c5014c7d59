//! The thread-pooled executor: [`Node`], shards, and [`GroupHandle`].
//!
//! A node owns M worker threads (shards). Each group a process joins is
//! assigned to one shard (round-robin), and the shard's worker drives
//! every group it owns through one poll loop:
//!
//! 1. accept newly joined groups;
//! 2. drain up to `BATCH` application commands per group;
//! 3. drain up to `BATCH` transport datagrams per group, then hand
//!    the deliveries that turn produced to the group's application queue
//!    in one batch (a new view ends the turn early);
//! 4. pop the layer timers due from the shard's [`DeadlineQueue`] (never
//!    one before its deadline), fire them, and hand over what they
//!    delivered;
//! 5. if nothing happened, park on the shard's [`Waker`] for up to
//!    `IDLE_SLEEP` (50 µs).
//!
//! Sharding gives groups-to-cores parallelism without any locking on the
//! protocol path: a group's stack is only ever touched by its shard's
//! thread. The channels at both edges are bounded; see the backpressure
//! notes on [`GroupHandle`].

use crate::group::{Action, CoreEvent, Delivery, GroupCore, LayerTags};
use crate::metrics::{RuntimeStats, ShardMetrics};
use crate::obs::{NodeObs, ShardHistograms};
use crate::timer::DeadlineQueue;
use crate::transport::{Transport, Waker};
use ensemble_event::Payload;
use ensemble_layers::LayerConfig;
use ensemble_obs::{now_ns, Event, EventKind, Histogram, RingWriter, Tag};
use ensemble_stack::EngineKind;
use ensemble_util::{Endpoint, Rank, Time};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{
    sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError, TrySendError,
};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Application command queue capacity per group.
const CMD_CAPACITY: usize = 1024;
/// Commands / packets drained per group per loop iteration.
const BATCH: usize = 64;
/// Longest a worker parks when a loop iteration did no work. Handles and
/// waker-aware transports (the loopback hub) wake the worker early; this
/// bound keeps polled transports (UDP) and timers live.
const IDLE_SLEEP: std::time::Duration = std::time::Duration::from_micros(50);
/// Flight-recorder capacity (events) per shard ring.
const OBS_RING_CAPACITY: usize = 8192;

/// Tuning knobs for a [`Node`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Worker threads (= shards). Default: 2.
    pub workers: usize,
    /// Application delivery queue capacity per group.
    pub delivery_capacity: usize,
    /// Structured tracing + latency histograms ([`Node::obs`]). The cost
    /// when off is one branch per event. When on, each event costs plain
    /// stores into the shard's own ring and histograms: on the benchmark's
    /// `cast-small` (4-byte bypass casts, 2-vCPU guest) 5 % more CPU per
    /// cast than off (2.67 against 2.54 µs, medians of 5 runs) and 0.6 MiB
    /// of rings. Default: on.
    pub obs: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            delivery_capacity: 4096,
            obs: true,
        }
    }
}

/// Why a handle operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// The node (or this group's worker) has shut down.
    Closed,
    /// The group failed to build or install a bypass; details were
    /// reported on the join/install result channel.
    Rejected,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Closed => write!(f, "runtime has shut down"),
            RuntimeError::Rejected => write!(f, "request rejected by the worker"),
        }
    }
}

enum Command {
    /// The caller's thread makes the one copy a cast costs on its way in;
    /// the shard wraps that buffer ([`Payload::from_vec`]) without copying.
    Cast(Vec<u8>),
    Send(Rank, Vec<u8>),
    Suspect(Vec<Endpoint>),
    /// Admit endpoints into the group via gmp's merge flush.
    Merge(Vec<Endpoint>),
    /// Install a view granted from outside the stack (partition heal).
    InstallView(ensemble_event::ViewState),
    /// Stall (true) or resume (false) the group for lack of quorum.
    Stall(bool),
    /// Synthesize + compile the MACH bypass; the result goes back on the
    /// provided channel.
    InstallBypass(Sender<Result<(), String>>),
    DropBypass,
    /// Register a waker nudged once per batch of deliveries handed over
    /// (and before the shard blocks on a full queue), so a consumer parked
    /// on [`Waker::park`] (instead of a blocking channel recv) learns
    /// about new deliveries without polling.
    SetDeliveryWaker(Arc<Waker>),
}

struct JoinSpec {
    names: Vec<&'static str>,
    vs: ensemble_event::ViewState,
    kind: EngineKind,
    cfg: LayerConfig,
    transport: Box<dyn Transport>,
    cmd_rx: Receiver<Command>,
    delivery_tx: SyncSender<Delivery>,
    /// Reports stack-build success/failure back to `join`.
    built: Sender<Result<(), String>>,
}

struct GroupSlot {
    core: GroupCore,
    transport: Box<dyn Transport>,
    cmd_rx: Receiver<Command>,
    delivery_tx: SyncSender<Delivery>,
    /// Deliveries produced during the group's current turn, in order;
    /// [`hand_off`] empties it before the worker can park.
    held: Vec<Delivery>,
    /// `held` contains a new view: the turn drains nothing more, so the
    /// application learns what ranks mean now (its `send` names members
    /// by rank) as early as when every delivery was sent on its own.
    view_held: bool,
    /// Nudged once per hand-off (see `Command::SetDeliveryWaker`).
    delivery_waker: Option<Arc<Waker>>,
    tags: SlotTags,
}

/// Pre-resolved recorder tags and histogram handles for one group, built
/// once at join so the event loop never touches a string or a lock.
struct SlotTags {
    group: u32,
    wire: Tag,
    core: LayerTags,
    layer_hists: Vec<Arc<Histogram>>,
}

impl SlotTags {
    fn new(core: &GroupCore, obs: &NodeObs) -> SlotTags {
        let names = core.layer_names();
        SlotTags {
            group: core.endpoint().id(),
            wire: obs.recorder.register("wire"),
            core: LayerTags::new(names, |n| obs.recorder.register(n)),
            layer_hists: names.iter().map(|n| obs.layer_handler_ns.get(n)).collect(),
        }
    }
}

/// A handle to one joined group.
///
/// ## Backpressure
///
/// Both queues are bounded. A full *command* queue blocks the caller in
/// [`GroupHandle::cast`]/[`GroupHandle::send`] until the shard catches up
/// — the application feels the stack's pace. Deliveries are handed over
/// once per group turn: the shard holds what one turn of command and
/// ingress draining (bounded by `BATCH`, and cut short by a new view) or
/// one timer pass produced, then queues it in order. A full *delivery*
/// queue blocks the shard worker mid-hand-off: the runtime never drops an
/// application delivery, so a consumer that stops reading eventually
/// stalls its whole shard (every group on it). Drain deliveries promptly
/// or size `delivery_capacity` for the burst.
pub struct GroupHandle {
    sender: GroupSender,
    delivery_rx: Receiver<Delivery>,
}

impl GroupHandle {
    /// This member's endpoint.
    pub fn endpoint(&self) -> Endpoint {
        self.sender.endpoint()
    }

    /// This member's rank in the initial view.
    pub fn rank(&self) -> Rank {
        self.sender.rank()
    }

    /// A cloneable send-only handle for this group, so one thread can own
    /// `recv` while others cast/send (e.g. a cluster driver draining
    /// deliveries while the application keeps publishing).
    pub fn sender(&self) -> GroupSender {
        self.sender.clone()
    }

    /// Multicasts `payload` to the group (blocks on a full queue).
    pub fn cast(&self, payload: &[u8]) -> Result<(), RuntimeError> {
        self.sender.cast(payload)
    }

    /// Sends `payload` point-to-point to `dst` (blocks on a full queue).
    pub fn send(&self, dst: Rank, payload: &[u8]) -> Result<(), RuntimeError> {
        self.sender.send(dst, payload)
    }

    /// Asks the stack to suspect `members`, resolved against the view it
    /// is in when the command runs (see [`GroupCore::suspect`]).
    pub fn suspect(&self, members: Vec<Endpoint>) -> Result<(), RuntimeError> {
        self.sender.command(Command::Suspect(members))
    }

    /// Asks the stack to admit `members` (partition healing): gmp runs
    /// a flush and announces the grown view to the current members.
    pub fn merge(&self, members: Vec<Endpoint>) -> Result<(), RuntimeError> {
        self.sender.command(Command::Merge(members))
    }

    /// Installs a strictly newer view handed in from outside the stack
    /// (a control-plane merge grant). Older or equal views are ignored.
    pub fn install_view(&self, vs: ensemble_event::ViewState) -> Result<(), RuntimeError> {
        self.sender.command(Command::InstallView(vs))
    }

    /// Stalls (`true`) or resumes (`false`) the group: while stalled,
    /// application traffic parks and ingress is quarantined — the
    /// minority-partition safety mode.
    pub fn stall(&self, on: bool) -> Result<(), RuntimeError> {
        self.sender.command(Command::Stall(on))
    }

    /// Registers a waker the shard nudges once per batch of deliveries it
    /// hands over, and before it blocks on a full delivery queue.
    ///
    /// A consumer multiplexing deliveries with other work (a cluster
    /// driver, a service loop) can park on the waker instead of sleeping
    /// a fixed interval between `try_recv` polls, cutting delivery
    /// forwarding latency from the poll period to microseconds. One nudge
    /// may stand for many deliveries: drain with `try_recv` until empty.
    pub fn set_delivery_waker(&self, waker: Arc<Waker>) -> Result<(), RuntimeError> {
        self.sender.command(Command::SetDeliveryWaker(waker))
    }

    /// Synthesizes and installs the MACH bypass for the current view,
    /// waiting for the worker to compile it.
    pub fn install_bypass(&self) -> Result<(), RuntimeError> {
        let (tx, rx) = mpsc::channel();
        self.sender.command(Command::InstallBypass(tx))?;
        match rx.recv() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(_)) => Err(RuntimeError::Rejected),
            Err(_) => Err(RuntimeError::Closed),
        }
    }

    /// Removes the bypass.
    pub fn drop_bypass(&self) -> Result<(), RuntimeError> {
        self.sender.command(Command::DropBypass)
    }

    /// Blocks up to `timeout` for the next delivery.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<Delivery> {
        match self.delivery_rx.recv_timeout(timeout) {
            Ok(d) => {
                self.sender
                    .metrics
                    .delivery_depth
                    .fetch_sub(1, Ordering::Relaxed);
                Some(d)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Non-blocking poll for the next delivery.
    pub fn try_recv(&self) -> Option<Delivery> {
        match self.delivery_rx.try_recv() {
            Ok(d) => {
                self.sender
                    .metrics
                    .delivery_depth
                    .fetch_sub(1, Ordering::Relaxed);
                Some(d)
            }
            Err(_) => None,
        }
    }
}

/// A send-only, cloneable handle to a joined group (no delivery side).
///
/// Obtained from [`GroupHandle::sender`]. Commands share the group's
/// bounded queue, so the backpressure notes on [`GroupHandle`] apply.
#[derive(Clone)]
pub struct GroupSender {
    ep: Endpoint,
    rank: Rank,
    cmd_tx: SyncSender<Command>,
    metrics: Arc<ShardMetrics>,
    waker: Arc<Waker>,
}

impl GroupSender {
    /// This member's endpoint.
    pub fn endpoint(&self) -> Endpoint {
        self.ep
    }

    /// This member's rank in the initial view.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    fn command(&self, c: Command) -> Result<(), RuntimeError> {
        self.metrics.cmd_depth.fetch_add(1, Ordering::Relaxed);
        self.cmd_tx.send(c).map_err(|_| {
            self.metrics.cmd_depth.fetch_sub(1, Ordering::Relaxed);
            RuntimeError::Closed
        })?;
        self.waker.wake();
        Ok(())
    }

    /// Multicasts `payload` to the group (blocks on a full queue).
    pub fn cast(&self, payload: &[u8]) -> Result<(), RuntimeError> {
        self.command(Command::Cast(payload.to_vec()))
    }

    /// Sends `payload` point-to-point to `dst` (blocks on a full queue).
    pub fn send(&self, dst: Rank, payload: &[u8]) -> Result<(), RuntimeError> {
        self.command(Command::Send(dst, payload.to_vec()))
    }
}

struct Shard {
    join_tx: Sender<JoinSpec>,
    metrics: Arc<ShardMetrics>,
    waker: Arc<Waker>,
    worker: Option<JoinHandle<()>>,
}

/// A runtime node: M shard workers executing any number of groups.
pub struct Node {
    shards: Vec<Shard>,
    stop: Arc<AtomicBool>,
    next_shard: usize,
    cfg: RuntimeConfig,
    obs: Arc<NodeObs>,
}

impl Node {
    /// Starts the worker pool.
    pub fn new(cfg: RuntimeConfig) -> Node {
        let stop = Arc::new(AtomicBool::new(false));
        let workers = cfg.workers.max(1);
        let obs = Arc::new(NodeObs::new(cfg.obs, workers, OBS_RING_CAPACITY));
        let mut shards = Vec::with_capacity(workers);
        for shard_id in 0..workers {
            let (join_tx, join_rx) = mpsc::channel::<JoinSpec>();
            let metrics = Arc::new(ShardMetrics::default());
            let waker = Arc::new(Waker::new());
            let m = Arc::clone(&metrics);
            let s = Arc::clone(&stop);
            let o = Arc::clone(&obs);
            let w = Arc::clone(&waker);
            let worker = std::thread::Builder::new()
                .name(format!("ensemble-shard-{shard_id}"))
                .spawn(move || worker_loop(shard_id, join_rx, m, s, o, w))
                .expect("failed to spawn shard worker OS thread (resource limit?)");
            shards.push(Shard {
                join_tx,
                metrics,
                waker,
                worker: Some(worker),
            });
        }
        Node {
            shards,
            stop,
            next_shard: 0,
            cfg,
            obs,
        }
    }

    /// The node's monotonic clock, as stack [`Time`]. This is the
    /// process-global obs clock, so every node in the process (and every
    /// trace event) shares one timeline.
    pub fn now(&self) -> Time {
        Time(now_ns())
    }

    /// The node's observability surface: flight recorder + histograms.
    pub fn obs(&self) -> &NodeObs {
        &self.obs
    }

    /// A clone of the obs handle, for a driver thread that outlives
    /// borrows of the node.
    pub fn obs_arc(&self) -> Arc<NodeObs> {
        Arc::clone(&self.obs)
    }

    /// Renders current metrics in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.obs.metrics_text(&self.stats())
    }

    /// Joins a group: builds the stack for `vs` on the next shard and
    /// connects it to `transport`.
    pub fn join(
        &mut self,
        names: &[&'static str],
        vs: ensemble_event::ViewState,
        kind: EngineKind,
        cfg: LayerConfig,
        transport: Box<dyn Transport>,
    ) -> Result<GroupHandle, RuntimeError> {
        let shard = self.next_shard % self.shards.len();
        self.next_shard += 1;
        let (cmd_tx, cmd_rx) = sync_channel(CMD_CAPACITY);
        let (delivery_tx, delivery_rx) = sync_channel(self.cfg.delivery_capacity);
        let (built_tx, built_rx) = mpsc::channel();
        let ep = vs.my_endpoint();
        let rank = vs.rank;
        let spec = JoinSpec {
            names: names.to_vec(),
            vs,
            kind,
            cfg,
            transport,
            cmd_rx,
            delivery_tx,
            built: built_tx,
        };
        self.shards[shard]
            .join_tx
            .send(spec)
            .map_err(|_| RuntimeError::Closed)?;
        self.shards[shard].waker.wake();
        match built_rx.recv() {
            Ok(Ok(())) => Ok(GroupHandle {
                sender: GroupSender {
                    ep,
                    rank,
                    cmd_tx,
                    metrics: Arc::clone(&self.shards[shard].metrics),
                    waker: Arc::clone(&self.shards[shard].waker),
                },
                delivery_rx,
            }),
            Ok(Err(_)) | Err(_) => Err(RuntimeError::Rejected),
        }
    }

    /// Snapshots every shard's counters.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| s.metrics.snapshot(i))
                .collect(),
        }
    }

    /// Stops the workers and joins them.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for s in &self.shards {
            s.waker.wake();
        }
        for s in &mut self.shards {
            if let Some(w) = s.worker.take() {
                let _ = w.join();
            }
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One shard's event loop. Owns its groups exclusively.
fn worker_loop(
    shard: usize,
    join_rx: Receiver<JoinSpec>,
    metrics: Arc<ShardMetrics>,
    stop: Arc<AtomicBool>,
    obs: Arc<NodeObs>,
    waker: Arc<Waker>,
) {
    let mut groups: Vec<GroupSlot> = Vec::new();
    // Layer timers as (group index, layer, generation).
    let mut timers: DeadlineQueue<(usize, usize, u64)> = DeadlineQueue::new();
    let mut fired: Vec<(Time, (usize, usize, u64))> = Vec::new();
    let obs_on = obs.enabled();
    let (ring, hists) = obs.shard(shard);
    let mut rec = ShardRecorder {
        ring,
        hists,
        events: Vec::new(),
    };
    // True when the previous park was ended by a wake: if this iteration
    // then finds no work, that wake was spurious (raced with a drain).
    let mut woke = false;

    while !stop.load(Ordering::Relaxed) {
        let mut busy = false;
        // The loop step's clock, read here and then once at the end of
        // each handled event: one handler's end stamp is the next one's
        // start. A stamp trails the true time by at most one loop step,
        // so no timer pops before its deadline.
        let mut now = Time(now_ns());

        // 1. Accept new groups.
        while let Ok(mut spec) = join_rx.try_recv() {
            busy = true;
            spec.transport.set_waker(Arc::clone(&waker));
            match GroupCore::new(&spec.names, spec.vs, spec.kind, spec.cfg, now) {
                Ok((mut core, init_actions)) => {
                    core.set_tracing(obs_on);
                    let tags = SlotTags::new(&core, &obs);
                    let gidx = groups.len();
                    groups.push(GroupSlot {
                        core,
                        transport: spec.transport,
                        cmd_rx: spec.cmd_rx,
                        delivery_tx: spec.delivery_tx,
                        held: Vec::new(),
                        view_held: false,
                        delivery_waker: None,
                        tags,
                    });
                    metrics.groups.fetch_add(1, Ordering::Relaxed);
                    let _ = spec.built.send(Ok(()));
                    let mut ctx = RouteCtx {
                        timers: &mut timers,
                        metrics: &metrics,
                        trace: rec.ring.as_mut(),
                        from_timer: false,
                        origin_ns: now.0,
                    };
                    route_actions(&mut groups, gidx, init_actions, &mut ctx);
                }
                Err(e) => {
                    let _ = spec.built.send(Err(format!("{e:?}")));
                }
            }
        }

        for gidx in 0..groups.len() {
            // 2. Application commands.
            for _ in 0..BATCH {
                if groups[gidx].view_held {
                    break;
                }
                let cmd = match groups[gidx].cmd_rx.try_recv() {
                    Ok(c) => c,
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                };
                metrics.cmd_depth.fetch_sub(1, Ordering::Relaxed);
                busy = true;
                let start = now;
                let core = &mut groups[gidx].core;
                let acts = match cmd {
                    Command::Cast(p) => core.cast_payload(start, Payload::from_vec(p)),
                    Command::Send(dst, p) => core.send_payload(start, dst, Payload::from_vec(p)),
                    Command::Suspect(members) => core.suspect(start, members),
                    Command::Merge(members) => core.merge(start, members),
                    Command::InstallView(vs) => core.install_external_view(start, vs),
                    Command::Stall(on) => core.set_stalled(start, on),
                    Command::InstallBypass(reply) => {
                        let r = core.install_bypass().map_err(|e| e.to_string());
                        let _ = reply.send(r);
                        Vec::new()
                    }
                    Command::DropBypass => {
                        core.drop_bypass();
                        Vec::new()
                    }
                    Command::SetDeliveryWaker(w) => {
                        groups[gidx].delivery_waker = Some(w);
                        Vec::new()
                    }
                };
                let mut ctx = RouteCtx {
                    timers: &mut timers,
                    metrics: &metrics,
                    trace: rec.ring.as_mut(),
                    from_timer: false,
                    // Outbound packets inherit the command-drain stamp, so
                    // a receiver's cast→deliver latency covers the full
                    // path: sender stack, wire, receiver stack.
                    origin_ns: start.0,
                };
                route_actions(&mut groups, gidx, acts, &mut ctx);
                now = Time(now_ns());
                rec.handled(&mut groups[gidx], start, now);
            }

            // 3. Transport ingress.
            for _ in 0..BATCH {
                if groups[gidx].view_held {
                    break;
                }
                let (pkt, stamp) = match groups[gidx].transport.try_recv_stamped() {
                    Ok(Some(p)) => p,
                    Ok(None) => break,
                    Err(_) => break,
                };
                busy = true;
                metrics.msgs_in.fetch_add(1, Ordering::Relaxed);
                let start = now;
                if let Some(w) = rec.ring.as_mut() {
                    let t = &groups[gidx].tags;
                    w.record(&Event {
                        t_ns: start.0,
                        layer: t.wire,
                        kind: EventKind::PacketIn,
                        dir: ensemble_obs::Direction::Up,
                        group: t.group,
                        seqno: 0,
                        ccp: ensemble_obs::CcpFailure::None,
                        aux: pkt.bytes.len() as u64,
                    });
                }
                let acts = groups[gidx].core.deliver_packet(start, pkt);
                if obs_on {
                    if let Some(origin) = stamp {
                        // One sample per application payload delivered by
                        // this packet (a packet can release stashed ones).
                        let delivered = acts
                            .iter()
                            .filter(|a| {
                                matches!(
                                    a,
                                    Action::Deliver(Delivery::Cast { .. })
                                        | Action::Deliver(Delivery::Send { .. })
                                )
                            })
                            .count();
                        let latency = start.0.saturating_sub(origin);
                        for _ in 0..delivered {
                            rec.hists.cast_to_deliver_ns.record_unshared(latency);
                        }
                    }
                }
                let mut ctx = RouteCtx {
                    timers: &mut timers,
                    metrics: &metrics,
                    trace: rec.ring.as_mut(),
                    from_timer: false,
                    origin_ns: start.0,
                };
                route_actions(&mut groups, gidx, acts, &mut ctx);
                now = Time(now_ns());
                rec.handled(&mut groups[gidx], start, now);
            }

            // Everything this turn (and the join, on a group's first turn)
            // delivered goes to the application as one batch. If a new
            // view cut the turn short, the rest waits for the next one.
            if hand_off(&mut groups[gidx], &metrics) {
                // The shard waited on a full queue for as long as the
                // consumer took: stamping later handlers with the time
                // before the wait would arm their timers that much early.
                now = Time(now_ns());
            }
        }

        // 4. Timers: what is due now fires; what the firing re-arms waits
        // for the next iteration, even if it is due already.
        fired.extend(std::iter::from_fn(|| timers.pop_due(now)));
        for (deadline, (gidx, layer, generation)) in fired.drain(..) {
            busy = true;
            metrics.timers_fired.fetch_add(1, Ordering::Relaxed);
            let start = now;
            if obs_on {
                let lateness = start.0.saturating_sub(deadline.0);
                rec.hists.timer_lateness_ns.record_unshared(lateness);
            }
            let acts = groups[gidx].core.fire_timer(start, layer, generation);
            let mut ctx = RouteCtx {
                timers: &mut timers,
                metrics: &metrics,
                trace: rec.ring.as_mut(),
                from_timer: true,
                origin_ns: start.0,
            };
            route_actions(&mut groups, gidx, acts, &mut ctx);
            now = Time(now_ns());
            if obs_on {
                if let Some(h) = groups[gidx].tags.layer_hists.get(layer) {
                    h.record(now.0 - start.0);
                }
            }
            rec.handled(&mut groups[gidx], start, now);
        }

        // Hand over what the timers delivered, and fold the groups'
        // counter deltas into the shard metrics.
        for g in &mut groups {
            // A wait here ends the loop step; the next one reads the clock.
            hand_off(g, &metrics);
            let (hits, misses) = g.core.take_bypass_delta();
            if hits > 0 {
                metrics.bypass_hits.fetch_add(hits, Ordering::Relaxed);
            }
            if misses > 0 {
                metrics.bypass_misses.fetch_add(misses, Ordering::Relaxed);
            }
            let (batched, flushes) = g.core.take_defer_delta();
            if batched > 0 {
                metrics.defer_batched.fetch_add(batched, Ordering::Relaxed);
            }
            if flushes > 0 {
                metrics.defer_flushes.fetch_add(flushes, Ordering::Relaxed);
            }
            let cost = g.core.take_cost_delta();
            if cost != ensemble_util::Counters::zero() {
                metrics.add_cost(&cost);
            }
            let stalled = g.core.take_stall_drops();
            if stalled > 0 {
                metrics.stall_drops.fetch_add(stalled, Ordering::Relaxed);
            }
            let io = g.transport.take_io_errors();
            if !io.is_zero() {
                metrics
                    .transport_send_errors
                    .fetch_add(io.send, Ordering::Relaxed);
                metrics
                    .transport_recv_errors
                    .fetch_add(io.recv, Ordering::Relaxed);
            }
        }

        // 5. Idle: park until woken (command, join, loopback delivery) or
        // until the timeout that keeps polled transports and timers live.
        if !busy {
            if woke {
                metrics.spurious_wakeups.fetch_add(1, Ordering::Relaxed);
            }
            woke = waker.park(IDLE_SLEEP);
        } else {
            woke = false;
        }
    }
}

/// What one shard worker records into, and only it: its ring (`None`
/// when obs is off) and its histograms.
struct ShardRecorder<'a> {
    ring: Option<RingWriter>,
    hists: &'a ShardHistograms,
    /// Scratch for folding a core's buffered events into the ring.
    events: Vec<CoreEvent>,
}

impl ShardRecorder<'_> {
    /// Closes one event handled from `start` to `end`: records its
    /// handling time and drains the group's buffered trace events.
    fn handled(&mut self, slot: &mut GroupSlot, start: Time, end: Time) {
        if let Some(w) = &mut self.ring {
            self.hists.handler_ns.record_unshared(end.0 - start.0);
            slot.tags.core.fold(&mut slot.core, w, &mut self.events);
        }
    }
}

/// Everything [`route_actions`] needs besides the groups themselves.
struct RouteCtx<'a> {
    timers: &'a mut DeadlineQueue<(usize, usize, u64)>,
    metrics: &'a ShardMetrics,
    /// The shard's ring, when obs is on.
    trace: Option<&'a mut RingWriter>,
    from_timer: bool,
    /// The handler's start stamp: the `PacketOut` events' time, and the
    /// origin stamp handed to the transport with each transmission.
    origin_ns: u64,
}

/// Applies one batch of actions for group `gidx`; deliveries join the
/// group's held batch for [`hand_off`]. Packets are handed to the
/// transport by value and the emptied list goes back to the group's core
/// for its next call.
fn route_actions(
    groups: &mut [GroupSlot],
    gidx: usize,
    mut actions: Vec<Action>,
    ctx: &mut RouteCtx,
) {
    let g = &mut groups[gidx];
    for a in actions.drain(..) {
        match a {
            Action::Transmit(pkt) => {
                ctx.metrics.msgs_out.fetch_add(1, Ordering::Relaxed);
                if ctx.from_timer {
                    ctx.metrics.retransmits.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(w) = ctx.trace.as_mut() {
                    w.record(&Event {
                        t_ns: ctx.origin_ns,
                        layer: g.tags.wire,
                        kind: EventKind::PacketOut,
                        dir: ensemble_obs::Direction::Dn,
                        group: g.tags.group,
                        seqno: 0,
                        ccp: ensemble_obs::CcpFailure::None,
                        aux: pkt.bytes.len() as u64,
                    });
                }
                let _ = g.transport.send_owned_at(pkt, ctx.origin_ns);
            }
            Action::Timer {
                layer,
                deadline,
                generation,
            } => {
                ctx.timers.push(deadline, (gidx, layer, generation));
            }
            Action::Deliver(d) => {
                g.view_held |= matches!(d, Delivery::View(_));
                g.held.push(d);
            }
        }
    }
    g.core.recycle_actions(actions);
}

/// Hands a group's held deliveries to its application queue, in order:
/// the one place a shard gives the application anything. The depth gauge
/// is raised by the whole batch first, so the consumer's decrement never
/// runs ahead of it. The delivery waker is nudged once per batch — and
/// before blocking on a full queue, so a consumer parked on the waker
/// rather than on the channel always learns there is something to drain.
/// Returns whether the shard had to wait for room.
fn hand_off(g: &mut GroupSlot, metrics: &ShardMetrics) -> bool {
    if g.held.is_empty() {
        return false;
    }
    let mut waited = false;
    g.view_held = false;
    metrics
        .delivery_depth
        .fetch_add(g.held.len() as u64, Ordering::Relaxed);
    let mut discarded = 0;
    for d in g.held.drain(..) {
        let d = match g.delivery_tx.try_send(d) {
            Ok(()) => continue,
            Err(TrySendError::Full(d)) => d,
            Err(TrySendError::Disconnected(_)) => {
                discarded += 1;
                continue;
            }
        };
        if let Some(w) = &g.delivery_waker {
            w.wake();
        }
        // Blocking: lossless backpressure onto this shard (see
        // GroupHandle docs). A dropped handle discards instead.
        waited = true;
        if g.delivery_tx.send(d).is_err() {
            discarded += 1;
        }
    }
    if discarded > 0 {
        metrics
            .delivery_depth
            .fetch_sub(discarded, Ordering::Relaxed);
    }
    metrics.delivery_flushes.fetch_add(1, Ordering::Relaxed);
    if let Some(w) = &g.delivery_waker {
        w.wake();
    }
    waited
}
