//! The thread-pooled executor: [`Node`], shards, and [`GroupHandle`].
//!
//! A node owns M worker threads (shards). Each group a process joins is
//! assigned to one shard (round-robin), and the shard's worker drives
//! every group it owns through one poll loop:
//!
//! 1. accept newly joined groups;
//! 2. drain a bounded batch of application commands per group;
//! 3. drain a bounded batch of transport ingress per group;
//! 4. advance the shard's timer wheel and fire due layer timers;
//! 5. if nothing happened, sleep briefly (~50 µs) to yield the CPU.
//!
//! Sharding gives groups-to-cores parallelism without any locking on the
//! protocol path: a group's stack is only ever touched by its shard's
//! thread. The channels at both edges are bounded; see the backpressure
//! notes on [`GroupHandle`].

use crate::group::{Action, CoreEvent, Delivery, GroupCore, LayerTags};
use crate::metrics::{RuntimeStats, ShardMetrics, TransportHealth};
use crate::obs::NodeObs;
use crate::timer::TimerWheel;
use crate::transport::{Transport, Waker};
use ensemble_event::Payload;
use ensemble_layers::LayerConfig;
use ensemble_obs::{now_ns, Event, EventKind, Histogram, Tag};
use ensemble_stack::EngineKind;
use ensemble_util::{Endpoint, Rank, Time};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Tuning knobs for a [`Node`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Worker threads (= shards). Default: 2.
    pub workers: usize,
    /// Application command queue capacity per group.
    pub cmd_capacity: usize,
    /// Application delivery queue capacity per group.
    pub delivery_capacity: usize,
    /// Commands / packets drained per group per loop iteration.
    pub batch: usize,
    /// Longest a worker parks when a loop iteration did no work. Handles
    /// and waker-aware transports (the loopback hub) wake the worker
    /// early; this bound keeps polled transports (UDP) and timers live.
    pub idle_sleep: std::time::Duration,
    /// Structured tracing + latency histograms ([`Node::obs`]). The cost
    /// when off is one branch per event; when on, a handful of relaxed
    /// atomic stores. Default: on.
    pub obs: bool,
    /// Flight-recorder capacity (events) per shard ring.
    pub obs_ring_capacity: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            cmd_capacity: 1024,
            delivery_capacity: 4096,
            batch: 64,
            idle_sleep: std::time::Duration::from_micros(50),
            obs: true,
            obs_ring_capacity: 8192,
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
    Suspect(Vec<Rank>),
    /// Admit endpoints into the group via gmp's merge flush.
    Merge(Vec<Endpoint>),
    /// Install a view granted from outside the stack (partition heal).
    InstallView(ensemble_event::ViewState),
    /// Stall (true) or resume (false) the group for lack of quorum.
    Stall(bool),
    Leave,
    /// Synthesize + compile the MACH bypass; the result goes back on the
    /// provided channel.
    InstallBypass(Sender<Result<(), String>>),
    DropBypass,
    /// Register a waker nudged after every delivery is queued, so a
    /// consumer parked on [`Waker::park`] (instead of a blocking channel
    /// recv) learns about new deliveries without polling.
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
    /// Nudged after each queued delivery (see `Command::SetDeliveryWaker`).
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
            core: LayerTags::new(names, &obs.recorder),
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
/// — the application feels the stack's pace. A full *delivery* queue
/// blocks the shard worker: the runtime never drops an application
/// delivery, so a consumer that stops reading eventually stalls its whole
/// shard (every group on it). Drain deliveries promptly or size
/// `delivery_capacity` for the burst.
pub struct GroupHandle {
    ep: Endpoint,
    rank: Rank,
    cmd_tx: SyncSender<Command>,
    delivery_rx: Receiver<Delivery>,
    metrics: Arc<ShardMetrics>,
    waker: Arc<Waker>,
}

impl GroupHandle {
    /// This member's endpoint.
    pub fn endpoint(&self) -> Endpoint {
        self.ep
    }

    /// This member's rank in the initial view.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// A cloneable send-only handle for this group, so one thread can own
    /// `recv` while others cast/send (e.g. a cluster driver draining
    /// deliveries while the application keeps publishing).
    pub fn sender(&self) -> GroupSender {
        GroupSender {
            ep: self.ep,
            rank: self.rank,
            cmd_tx: self.cmd_tx.clone(),
            metrics: Arc::clone(&self.metrics),
            waker: Arc::clone(&self.waker),
        }
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

    /// Asks the stack to suspect `ranks`.
    pub fn suspect(&self, ranks: Vec<Rank>) -> Result<(), RuntimeError> {
        self.command(Command::Suspect(ranks))
    }

    /// Asks the stack to admit `members` (partition healing): gmp runs
    /// a flush and announces the grown view to the current members.
    pub fn merge(&self, members: Vec<Endpoint>) -> Result<(), RuntimeError> {
        self.command(Command::Merge(members))
    }

    /// Installs a strictly newer view handed in from outside the stack
    /// (a control-plane merge grant). Older or equal views are ignored.
    pub fn install_view(&self, vs: ensemble_event::ViewState) -> Result<(), RuntimeError> {
        self.command(Command::InstallView(vs))
    }

    /// Stalls (`true`) or resumes (`false`) the group: while stalled,
    /// application traffic parks and ingress is quarantined — the
    /// minority-partition safety mode.
    pub fn stall(&self, on: bool) -> Result<(), RuntimeError> {
        self.command(Command::Stall(on))
    }

    /// Gracefully leaves the group.
    pub fn leave(&self) -> Result<(), RuntimeError> {
        self.command(Command::Leave)
    }

    /// Registers a waker the shard nudges after every queued delivery.
    ///
    /// A consumer multiplexing deliveries with other work (a cluster
    /// driver, a service loop) can park on the waker instead of sleeping
    /// a fixed interval between `try_recv` polls, cutting delivery
    /// forwarding latency from the poll period to microseconds.
    pub fn set_delivery_waker(&self, waker: Arc<Waker>) -> Result<(), RuntimeError> {
        self.command(Command::SetDeliveryWaker(waker))
    }

    /// Synthesizes and installs the MACH bypass for the current view,
    /// waiting for the worker to compile it.
    pub fn install_bypass(&self) -> Result<(), RuntimeError> {
        let (tx, rx) = mpsc::channel();
        self.command(Command::InstallBypass(tx))?;
        match rx.recv() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(_)) => Err(RuntimeError::Rejected),
            Err(_) => Err(RuntimeError::Closed),
        }
    }

    /// Removes the bypass.
    pub fn drop_bypass(&self) -> Result<(), RuntimeError> {
        self.command(Command::DropBypass)
    }

    /// Blocks up to `timeout` for the next delivery.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<Delivery> {
        match self.delivery_rx.recv_timeout(timeout) {
            Ok(d) => {
                self.metrics.delivery_depth.fetch_sub(1, Ordering::Relaxed);
                Some(d)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Non-blocking poll for the next delivery.
    pub fn try_recv(&self) -> Option<Delivery> {
        match self.delivery_rx.try_recv() {
            Ok(d) => {
                self.metrics.delivery_depth.fetch_sub(1, Ordering::Relaxed);
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

    /// Asks the stack to suspect `ranks`.
    pub fn suspect(&self, ranks: Vec<Rank>) -> Result<(), RuntimeError> {
        self.command(Command::Suspect(ranks))
    }

    /// Gracefully leaves the group.
    pub fn leave(&self) -> Result<(), RuntimeError> {
        self.command(Command::Leave)
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
    health: Option<Arc<dyn Fn() -> TransportHealth + Send + Sync>>,
}

impl Node {
    /// Starts the worker pool.
    pub fn new(cfg: RuntimeConfig) -> Node {
        let stop = Arc::new(AtomicBool::new(false));
        let workers = cfg.workers.max(1);
        // One ring per shard worker plus one auxiliary ring for a single
        // non-worker writer (the cluster driver) — the recorder's
        // single-writer-per-ring discipline holds for all of them.
        let obs = Arc::new(NodeObs::new(cfg.obs, workers + 1, cfg.obs_ring_capacity));
        let mut shards = Vec::with_capacity(workers);
        for shard_id in 0..workers {
            let (join_tx, join_rx) = mpsc::channel::<JoinSpec>();
            let metrics = Arc::new(ShardMetrics::default());
            let waker = Arc::new(Waker::new());
            let m = Arc::clone(&metrics);
            let s = Arc::clone(&stop);
            let c = cfg.clone();
            let o = Arc::clone(&obs);
            let w = Arc::clone(&waker);
            let worker = std::thread::Builder::new()
                .name(format!("ensemble-shard-{shard_id}"))
                .spawn(move || worker_loop(shard_id, join_rx, m, s, c, o, w))
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
            health: None,
        }
    }

    /// A node with default tuning.
    pub fn with_defaults() -> Node {
        Node::new(RuntimeConfig::default())
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

    /// The ring index reserved for a single auxiliary (non-worker)
    /// recorder writer, e.g. a cluster driver thread. At most one thread
    /// may record into it.
    pub fn aux_obs_shard(&self) -> usize {
        self.shards.len()
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
        let (cmd_tx, cmd_rx) = sync_channel(self.cfg.cmd_capacity);
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
                ep,
                rank,
                cmd_tx,
                delivery_rx,
                metrics: Arc::clone(&self.shards[shard].metrics),
                waker: Arc::clone(&self.shards[shard].waker),
            }),
            Ok(Err(_)) | Err(_) => Err(RuntimeError::Rejected),
        }
    }

    /// Registers the source [`Node::stats`] polls for transport health
    /// (fault totals + partition layout). Typically
    /// `node.set_transport_health_source(move || hub.health())` when the
    /// node runs over a [`crate::transport::LoopbackHub`].
    pub fn set_transport_health_source<F>(&mut self, source: F)
    where
        F: Fn() -> TransportHealth + Send + Sync + 'static,
    {
        self.health = Some(Arc::new(source));
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
            transport: self.health.as_ref().map(|h| h()),
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
    cfg: RuntimeConfig,
    obs: Arc<NodeObs>,
    waker: Arc<Waker>,
) {
    let mut groups: Vec<GroupSlot> = Vec::new();
    let mut wheel: TimerWheel<(usize, usize, u64)> = TimerWheel::new(Time(now_ns()));
    let mut fired: Vec<(Time, (usize, usize, u64))> = Vec::new();
    let mut actions: Vec<Action> = Vec::new();
    let mut events: Vec<CoreEvent> = Vec::new();
    let obs_on = obs.enabled();
    // True when the previous park was ended by a wake: if this iteration
    // then finds no work, that wake was spurious (raced with a drain).
    let mut woke = false;

    while !stop.load(Ordering::Relaxed) {
        let mut busy = false;
        let now = Time(now_ns());

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
                        delivery_waker: None,
                        tags,
                    });
                    metrics.groups.fetch_add(1, Ordering::Relaxed);
                    let _ = spec.built.send(Ok(()));
                    let mut ctx = RouteCtx {
                        wheel: &mut wheel,
                        metrics: &metrics,
                        obs: &obs,
                        shard,
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
            for _ in 0..cfg.batch {
                let cmd = match groups[gidx].cmd_rx.try_recv() {
                    Ok(c) => c,
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                };
                metrics.cmd_depth.fetch_sub(1, Ordering::Relaxed);
                busy = true;
                let now = Time(now_ns());
                actions.clear();
                match cmd {
                    Command::Cast(p) => {
                        actions = groups[gidx].core.cast_payload(now, Payload::from_vec(p))
                    }
                    Command::Send(dst, p) => {
                        actions = groups[gidx]
                            .core
                            .send_payload(now, dst, Payload::from_vec(p))
                    }
                    Command::Suspect(ranks) => actions = groups[gidx].core.suspect(now, ranks),
                    Command::Merge(members) => actions = groups[gidx].core.merge(now, members),
                    Command::InstallView(vs) => {
                        actions = groups[gidx].core.install_external_view(now, vs)
                    }
                    Command::Stall(on) => actions = groups[gidx].core.set_stalled(now, on),
                    Command::Leave => actions = groups[gidx].core.leave(now),
                    Command::InstallBypass(reply) => {
                        let r = groups[gidx]
                            .core
                            .install_bypass()
                            .map_err(|e| e.to_string());
                        let _ = reply.send(r);
                    }
                    Command::DropBypass => groups[gidx].core.drop_bypass(),
                    Command::SetDeliveryWaker(w) => groups[gidx].delivery_waker = Some(w),
                }
                let acts = std::mem::take(&mut actions);
                let mut ctx = RouteCtx {
                    wheel: &mut wheel,
                    metrics: &metrics,
                    obs: &obs,
                    shard,
                    from_timer: false,
                    // Outbound packets inherit the command-drain stamp, so
                    // a receiver's cast→deliver latency covers the full
                    // path: sender stack, wire, receiver stack.
                    origin_ns: now.0,
                };
                route_actions(&mut groups, gidx, acts, &mut ctx);
                if obs_on {
                    obs.handler_ns.record(now_ns().saturating_sub(now.0));
                    fold_events(&mut groups[gidx], shard, &obs, &mut events);
                }
            }

            // 3. Transport ingress.
            for _ in 0..cfg.batch {
                let (pkt, stamp) = match groups[gidx].transport.try_recv_stamped() {
                    Ok(Some(p)) => p,
                    Ok(None) => break,
                    Err(_) => break,
                };
                busy = true;
                metrics.msgs_in.fetch_add(1, Ordering::Relaxed);
                let now = Time(now_ns());
                if obs_on {
                    let t = &groups[gidx].tags;
                    obs.recorder.record(
                        shard,
                        &Event {
                            t_ns: now.0,
                            layer: t.wire,
                            kind: EventKind::PacketIn,
                            dir: ensemble_obs::Direction::Up,
                            group: t.group,
                            seqno: 0,
                            ccp: ensemble_obs::CcpFailure::None,
                            aux: pkt.bytes.len() as u64,
                        },
                    );
                }
                let acts = groups[gidx].core.deliver_packet(now, pkt);
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
                        for _ in 0..delivered {
                            obs.cast_to_deliver_ns.record(now.0.saturating_sub(origin));
                        }
                    }
                }
                let mut ctx = RouteCtx {
                    wheel: &mut wheel,
                    metrics: &metrics,
                    obs: &obs,
                    shard,
                    from_timer: false,
                    origin_ns: now.0,
                };
                route_actions(&mut groups, gidx, acts, &mut ctx);
                if obs_on {
                    obs.handler_ns.record(now_ns().saturating_sub(now.0));
                    fold_events(&mut groups[gidx], shard, &obs, &mut events);
                }
            }
        }

        // 4. Timers.
        let now = Time(now_ns());
        fired.clear();
        wheel.advance(now, &mut fired);
        for (deadline, (gidx, layer, generation)) in fired.drain(..) {
            busy = true;
            metrics.timers_fired.fetch_add(1, Ordering::Relaxed);
            if obs_on {
                obs.timer_lateness_ns
                    .record(now.0.saturating_sub(deadline.0));
            }
            let t0 = now_ns();
            let acts = groups[gidx].core.fire_timer(now, layer, generation);
            let mut ctx = RouteCtx {
                wheel: &mut wheel,
                metrics: &metrics,
                obs: &obs,
                shard,
                from_timer: true,
                origin_ns: now.0,
            };
            route_actions(&mut groups, gidx, acts, &mut ctx);
            if obs_on {
                let dt = now_ns().saturating_sub(t0);
                obs.handler_ns.record(dt);
                if let Some(h) = groups[gidx].tags.layer_hists.get(layer) {
                    h.record(dt);
                }
                fold_events(&mut groups[gidx], shard, &obs, &mut events);
            }
        }

        // Fold the groups' counter deltas into the shard metrics.
        for g in &mut groups {
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
            woke = waker.park(cfg.idle_sleep);
        } else {
            woke = false;
        }
    }
}

/// Drains a group's buffered trace events into the shard's ring.
fn fold_events(slot: &mut GroupSlot, shard: usize, obs: &NodeObs, buf: &mut Vec<CoreEvent>) {
    let recorder = &obs.recorder;
    slot.tags.core.fold(&mut slot.core, recorder, shard, buf);
}

/// Everything [`route_actions`] needs besides the groups themselves.
struct RouteCtx<'a> {
    wheel: &'a mut TimerWheel<(usize, usize, u64)>,
    metrics: &'a ShardMetrics,
    obs: &'a NodeObs,
    shard: usize,
    from_timer: bool,
    /// Origin stamp handed to the transport with each transmission.
    origin_ns: u64,
}

/// Applies one batch of actions for group `gidx`.
fn route_actions(groups: &mut [GroupSlot], gidx: usize, actions: Vec<Action>, ctx: &mut RouteCtx) {
    let g = &mut groups[gidx];
    for a in actions {
        match a {
            Action::Transmit(pkt) => {
                ctx.metrics.msgs_out.fetch_add(1, Ordering::Relaxed);
                if ctx.from_timer {
                    ctx.metrics.retransmits.fetch_add(1, Ordering::Relaxed);
                }
                if ctx.obs.enabled() {
                    ctx.obs.recorder.record(
                        ctx.shard,
                        &Event {
                            t_ns: now_ns(),
                            layer: g.tags.wire,
                            kind: EventKind::PacketOut,
                            dir: ensemble_obs::Direction::Dn,
                            group: g.tags.group,
                            seqno: 0,
                            ccp: ensemble_obs::CcpFailure::None,
                            aux: pkt.bytes.len() as u64,
                        },
                    );
                }
                let _ = g.transport.send_at(&pkt, ctx.origin_ns);
            }
            Action::Timer {
                layer,
                deadline,
                generation,
            } => {
                ctx.wheel.schedule(deadline, (gidx, layer, generation));
            }
            Action::Deliver(d) => {
                ctx.metrics.delivery_depth.fetch_add(1, Ordering::Relaxed);
                // Blocking: lossless backpressure onto this shard (see
                // GroupHandle docs). A dropped handle discards instead.
                if g.delivery_tx.send(d).is_err() {
                    ctx.metrics.delivery_depth.fetch_sub(1, Ordering::Relaxed);
                } else if let Some(w) = &g.delivery_waker {
                    w.wake();
                }
            }
        }
    }
}
