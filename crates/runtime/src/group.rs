//! Per-group protocol state, independent of threads and sockets.
//!
//! A [`GroupCore`] owns one stack engine (and optionally one compiled
//! MACH bypass) and turns application commands, arriving packets, and
//! timer fires into [`Action`]s — transmissions, timer requests, and
//! application deliveries. It performs no I/O and reads no clock, so the
//! same code is driven by the shard workers here (wall clock), by the
//! simulator in `ensemble::sim` (virtual clock), and by unit tests feeding
//! it events directly. A caller done with an action list may hand it back
//! ([`GroupCore::recycle_actions`]); the shard does, so a stream of calls
//! refills one list, as the IMP engine refills one boundary.
//!
//! ## Bypass routing
//!
//! The compiled bypass keeps its *own* flattened state, separate from the
//! engine's (exactly as in the paper, where the synthesized code has its
//! own compiled state record). The two states are never reconciled, so
//! the runtime routes *all* application data through the bypass while one
//! is installed; the engine continues to run protocol timers only. The
//! consequences are honest:
//!
//! * a sender-side CCP failure re-routes that message through the engine
//!   (both engines are still in step with each other, so engine-path
//!   messages deliver FIFO among themselves — but ordering *between* the
//!   bypass stream and the engine stream is not guaranteed);
//! * a receiver-side CCP failure on a well-formed compressed header is an
//!   out-of-order arrival: it parks in a bounded stash retried after each
//!   subsequent fast-path delivery;
//! * loss on the bypass stream has no retransmission (the bypass compiles
//!   the common case; recovery lives in the skipped layers), so the fast
//!   path should only be installed on links whose loss the application
//!   tolerates — or dropped back off at the first stash overflow.
//!
//! On a view change the bypass is discarded: it was synthesized for one
//! membership, and Ensemble likewise rebuilds per view.
//!
//! ## Analysis-gated deferred-work batching
//!
//! Each bypass hit may defer non-critical work (`Defer` items:
//! buffering, acknowledgments, stability bookkeeping). The bypass counts
//! those items and a drain discards them: nothing is replayed (see
//! `ensemble_synth::bypass`). When the
//! installed stack's [`DeferCertificate`] proves every pair of deferred
//! items commutes and none observes delivery order (the DF rules in
//! `ensemble-analyze`), the core *batches* that work and drains it in
//! one pass at quiescent points — a full batch, an engine fallback, a
//! view change, or an explicit bypass drop. Stacks without a valid
//! certificate keep the immediate-drain behavior: every bypass hit pays
//! the drain on the spot. The split is observable through the
//! `defer_batched` / `defer_flushes` counters
//! ([`GroupCore::take_defer_delta`]) and `DeferFlush` trace events.
//!
//! The cross-stream ordering hole the fallback opens (bypass stream vs.
//! engine stream, first bullet above) is pinned down by the
//! `sender_ccp_fallback_keeps_streams_fifo` regression test below; a
//! shared sequencing cursor between the two paths (future work) is what
//! would close it.

use ensemble_event::{DnEvent, Msg, Payload, UpEvent, ViewState};
use ensemble_ir::models::{Case, ModelCtx};
use ensemble_layers::{make_stack, LayerConfig, StackError};
use ensemble_obs::{CcpFailure, Direction, Event, EventKind, RingWriter, Tag};
use ensemble_stack::{check_stack, Boundary, CompatError, Engine, EngineKind};
use ensemble_synth::{synthesize, BypassOutput, DeferCertificate, StackBypass};
use ensemble_transport::{marshal, unmarshal_owned, Dest, Packet};
use ensemble_util::{Counters, Endpoint, Rank, Time};
use std::collections::VecDeque;

/// Most out-of-order compressed packets parked awaiting their gap fill.
/// Beyond this the oldest is dropped (and traced as `StashOverflow`).
const STASH_LIMIT: usize = 128;

/// Most deferred work items accumulated before a licensed batch drains
/// anyway (bounds memory; commutativity makes the cut point free).
const DEFER_BATCH_LIMIT: usize = 64;

/// Most application sends parked during a flush window. Beyond this the
/// oldest parked message is dropped (the application outran the view
/// change; backpressure should have throttled it long before).
const PARK_LIMIT: usize = 4096;

/// An application message parked while the stack is blocked (flush
/// window). Sends remember the destination *endpoint*, not its rank: the
/// new view reranks survivors, so the rank is remapped at replay.
#[derive(Clone, Debug)]
enum Parked {
    Cast(Payload),
    Send(Endpoint, Payload),
}

/// Where in the group a trace event originated. The core knows layers by
/// index only; [`LayerTags`] resolves indices to names (and pseudo-layers
/// to the `app` / `bypass` / `engine` tags) when a shell folds events into
/// its recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreLayer {
    /// The application boundary (casts in, deliveries out).
    App,
    /// The synthesized fast path.
    Bypass,
    /// The full layer-stack engine.
    Engine,
    /// A specific stack layer, by index from the top.
    Layer(usize),
}

/// One structured trace event buffered by a [`GroupCore`].
///
/// The core performs no I/O and reads no clock, so it stamps events with
/// the [`Time`] its caller passed in and parks them in a buffer; the
/// shard worker drains the buffer ([`GroupCore::take_events`]) into the
/// node-wide flight recorder after every call. When tracing is off
/// ([`GroupCore::set_tracing`]) nothing is buffered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreEvent {
    /// The caller's clock at the event.
    pub t: Time,
    /// Originating (pseudo-)layer.
    pub layer: CoreLayer,
    /// What happened.
    pub kind: EventKind,
    /// Which way the event was travelling.
    pub dir: Direction,
    /// Per-group event ordinal (monotonic across the group's lifetime).
    pub seqno: u64,
    /// CCP-failure reason for bypass outcomes.
    pub ccp: CcpFailure,
    /// Event-specific extra (payload length, stash depth, …).
    pub aux: u64,
}

/// Recorder tags for one group's [`CoreLayer`]s, resolved once per stack
/// so folding events never touches a string or a lock. Both shells (the
/// shard worker and the simulator) fold through this one resolver.
pub struct LayerTags {
    app: Tag,
    bypass: Tag,
    engine: Tag,
    layers: Vec<Tag>,
}

impl LayerTags {
    /// Registers the pseudo-layers and `names` (top first) through
    /// `register` (a recorder's, or one of its writers').
    pub fn new(names: &[&'static str], register: impl Fn(&'static str) -> Tag) -> LayerTags {
        LayerTags {
            app: register("app"),
            bypass: register("bypass"),
            engine: register("engine"),
            layers: names.iter().map(|n| register(n)).collect(),
        }
    }

    /// The tag `layer` is recorded under.
    pub fn resolve(&self, layer: CoreLayer) -> Tag {
        match layer {
            CoreLayer::App => self.app,
            CoreLayer::Bypass => self.bypass,
            CoreLayer::Engine => self.engine,
            CoreLayer::Layer(i) => self.layers.get(i).copied().unwrap_or(self.engine),
        }
    }

    /// Drains `core`'s buffered events (via the scratch `buf`) into the
    /// ring `w` writes, stamped as the core's caller stamped them. A view
    /// install may have switched stacks, so layer tags are re-resolved
    /// from that event on.
    pub fn fold(&mut self, core: &mut GroupCore, w: &mut RingWriter, buf: &mut Vec<CoreEvent>) {
        core.take_events(buf);
        let group = core.endpoint().id();
        for e in buf.drain(..) {
            w.record(&Event {
                t_ns: e.t.0,
                layer: self.resolve(e.layer),
                kind: e.kind,
                dir: e.dir,
                group,
                seqno: e.seqno,
                ccp: e.ccp,
                aux: e.aux,
            });
            if e.kind == EventKind::ViewInstall {
                *self = LayerTags::new(core.layer_names(), |n| w.register(n));
            }
        }
    }
}

/// An application-visible event from the group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// A multicast from `origin` (endpoint id).
    Cast {
        /// Sender's endpoint id.
        origin: u32,
        /// Payload bytes.
        bytes: Vec<u8>,
    },
    /// A point-to-point message from `origin` (endpoint id).
    Send {
        /// Sender's endpoint id.
        origin: u32,
        /// Payload bytes.
        bytes: Vec<u8>,
    },
    /// A new view was installed.
    View(ViewState),
    /// The stack asks the application to stop sending (flush protocol).
    Block,
    /// The stack has left the group.
    Exit,
    /// An updated stability vector.
    Stable(Vec<u64>),
}

/// One effect of processing an event.
#[derive(Debug)]
pub enum Action {
    /// Hand this packet to the transport.
    Transmit(Packet),
    /// Ask the shell's deadline queue for a callback.
    Timer {
        /// Stack layer to wake.
        layer: usize,
        /// Absolute deadline.
        deadline: Time,
        /// Stack generation the request belongs to.
        generation: u64,
    },
    /// Hand this event to the application.
    Deliver(Delivery),
}

/// Why [`GroupCore::install_bypass`] refused.
#[derive(Debug)]
pub enum BypassError {
    /// The synthesis pipeline rejected the stack.
    Synthesis(String),
    /// Code generation failed.
    Codegen(String),
}

impl std::fmt::Display for BypassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BypassError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            BypassError::Codegen(e) => write!(f, "codegen failed: {e}"),
        }
    }
}

/// The runtime's per-group state machine.
pub struct GroupCore {
    names: Vec<&'static str>,
    /// The stack to build at the next view installation (the paper's
    /// ref. \[25\]: Ensemble switches protocol stacks on the fly; the
    /// agreement to switch is made at the application level, the view
    /// change makes it safe).
    next_names: Option<Vec<&'static str>>,
    kind: EngineKind,
    cfg: LayerConfig,
    vs: ViewState,
    ep: Endpoint,
    engine: Box<dyn Engine>,
    generation: u64,
    alive: bool,
    bypass: Option<StackBypass>,
    /// Out-of-order compressed packets: `(origin rank, bytes, is_cast)`.
    stash: VecDeque<(u16, Vec<u8>, bool)>,
    /// The stack asked the application to stop sending (flush window).
    /// While set, application casts/sends are parked, not injected: a
    /// message entering the stack after its `FlushOk` row was reported
    /// would be missing from the agreed cut and could be lost or
    /// delivered inconsistently across the view change.
    blocked: bool,
    /// The cluster driver stalled this group: its partition component
    /// lacks quorum. Casts/sends park (like a flush window), ingress is
    /// *dropped* and timers wait — while stalled the stack must neither
    /// originate nor consume traffic, or the minority could deliver
    /// messages the primary partition never agrees on, nor suspect its
    /// way into a view of its own, which would serve. Cleared by an
    /// external view (the merge grant) or an explicit unstall.
    stalled: bool,
    /// Layers whose timer came due while stalled, re-armed on unstall.
    frozen_timers: Vec<usize>,
    /// Ingress packets dropped while stalled (delta; see
    /// [`GroupCore::take_stall_drops`]).
    stall_drops: u64,
    /// Messages parked during the flush window, replayed through the
    /// fresh stack right after the new view installs.
    parked: VecDeque<Parked>,
    bypass_hits: u64,
    bypass_misses: u64,
    /// The installed bypass's Defer-commutativity certificate held
    /// (DF001–DF003): deferred work may drain in batches.
    defer_licensed: bool,
    /// Deferred items already counted into the current batch.
    defer_seen: usize,
    /// Work items accumulated into batches (licensed stacks only).
    defer_batched: u64,
    /// Drain passes (batch flushes when licensed, per-hit drains when
    /// not).
    defer_flushes: u64,
    cost: Counters,
    tracing: bool,
    events: Vec<CoreEvent>,
    event_ord: u64,
    /// An emptied action list handed back by the caller
    /// ([`GroupCore::recycle_actions`]): the next call fills it instead
    /// of growing a fresh one.
    spare: Vec<Action>,
}

impl GroupCore {
    /// Builds the stack for `vs`; the returned actions are the init
    /// boundary (initial timers, mostly).
    pub fn new(
        names: &[&'static str],
        vs: ViewState,
        kind: EngineKind,
        cfg: LayerConfig,
        now: Time,
    ) -> Result<(GroupCore, Vec<Action>), StackError> {
        let mut engine = kind.build(make_stack(names, &vs, &cfg)?);
        let boundary = engine.init(now);
        let mut core = GroupCore {
            names: names.to_vec(),
            next_names: None,
            kind,
            cfg,
            ep: vs.my_endpoint(),
            vs,
            engine,
            generation: 0,
            alive: true,
            bypass: None,
            stash: VecDeque::new(),
            blocked: false,
            stalled: false,
            frozen_timers: Vec::new(),
            stall_drops: 0,
            parked: VecDeque::new(),
            bypass_hits: 0,
            bypass_misses: 0,
            defer_licensed: false,
            defer_seen: 0,
            defer_batched: 0,
            defer_flushes: 0,
            cost: Counters::zero(),
            tracing: false,
            events: Vec::new(),
            event_ord: 0,
            spare: Vec::new(),
        };
        let mut out = Vec::new();
        core.route(now, boundary, &mut out);
        Ok((core, out))
    }

    /// This process's endpoint.
    pub fn endpoint(&self) -> Endpoint {
        self.ep
    }

    /// This process's rank in the current view.
    pub fn rank(&self) -> Rank {
        self.vs.rank
    }

    /// The current view.
    pub fn view(&self) -> &ViewState {
        &self.vs
    }

    /// Whether the stack is still running (no Exit yet).
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// Whether the stack is in a flush window (sends are being parked).
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// Stalls or unstalls the group (see the `stalled` field docs).
    /// Unstalling without a view change re-arms the timers that came due
    /// meanwhile and replays parked messages into the current view.
    pub fn set_stalled(&mut self, now: Time, on: bool) -> Vec<Action> {
        let mut out = std::mem::take(&mut self.spare);
        if !self.alive || self.stalled == on {
            return out;
        }
        self.stalled = on;
        self.trace(
            now,
            CoreLayer::App,
            EventKind::MinorityStall,
            if on { Direction::Dn } else { Direction::Up },
            CcpFailure::None,
            on as u64,
        );
        if !on {
            for layer in self.frozen_timers.drain(..) {
                out.push(Action::Timer {
                    layer,
                    deadline: now,
                    generation: self.generation,
                });
            }
            if !self.blocked {
                self.replay_parked(now, &mut out);
            }
        }
        out
    }

    /// Hands back an action list this core returned, once the caller has
    /// carried it out: the next call that returns actions reuses its
    /// buffer (the larger, if a spare is already held). Optional — a
    /// caller that keeps its lists costs only the allocation.
    pub fn recycle_actions(&mut self, mut actions: Vec<Action>) {
        if actions.capacity() > self.spare.capacity() {
            actions.clear();
            self.spare = actions;
        }
    }

    /// Takes and resets the stalled-ingress drop count.
    pub fn take_stall_drops(&mut self) -> u64 {
        std::mem::take(&mut self.stall_drops)
    }

    /// Installs a view handed in from *outside* the stack — a merge
    /// grant from the primary partition's coordinator, arriving on the
    /// control plane because this member never saw the flush that
    /// produced it. Guarded: only a strictly newer view (by `ltime`) is
    /// accepted, so a delayed or duplicated grant cannot roll the group
    /// back. Clears any quorum stall and replays parked messages into
    /// the merged view.
    pub fn install_external_view(&mut self, now: Time, vs: ViewState) -> Vec<Action> {
        let mut out = std::mem::take(&mut self.spare);
        if !self.alive || vs.view_id.ltime <= self.vs.view_id.ltime {
            return out;
        }
        self.stalled = false;
        self.install_view(now, vs, &mut out);
        out
    }

    /// Asks the stack to admit `members` (partition healing): `gmp`
    /// flushes the current view and announces the grown view.
    pub fn merge(&mut self, now: Time, members: Vec<Endpoint>) -> Vec<Action> {
        let mut out = std::mem::take(&mut self.spare);
        if self.alive {
            self.trace(
                now,
                CoreLayer::App,
                EventKind::MergeGrant,
                Direction::Dn,
                CcpFailure::None,
                members.len() as u64,
            );
            let b = self.inject_dn(now, DnEvent::Merge { members });
            self.route(now, b, &mut out);
        }
        out
    }

    /// Messages currently parked awaiting the next view.
    pub fn parked_depth(&self) -> usize {
        self.parked.len()
    }

    /// Parks one application message for replay after the view change.
    fn park(&mut self, now: Time, p: Parked) {
        if self.parked.len() >= PARK_LIMIT {
            self.parked.pop_front();
        }
        self.parked.push_back(p);
        self.trace(
            now,
            CoreLayer::App,
            EventKind::StashPark,
            Direction::Dn,
            CcpFailure::None,
            self.parked.len() as u64,
        );
    }

    /// Takes and resets the bypass hit/miss deltas.
    pub fn take_bypass_delta(&mut self) -> (u64, u64) {
        let d = (self.bypass_hits, self.bypass_misses);
        self.bypass_hits = 0;
        self.bypass_misses = 0;
        d
    }

    /// Takes and resets the `(defer_batched, defer_flushes)` deltas.
    pub fn take_defer_delta(&mut self) -> (u64, u64) {
        let d = (self.defer_batched, self.defer_flushes);
        self.defer_batched = 0;
        self.defer_flushes = 0;
        d
    }

    /// Whether deferred work is currently drained in batches: a bypass
    /// is installed *and* its Defer-commutativity certificate held.
    pub fn defer_batching_active(&self) -> bool {
        self.bypass.is_some() && self.defer_licensed
    }

    /// Takes and resets the model-cost delta.
    pub fn take_cost_delta(&mut self) -> Counters {
        std::mem::take(&mut self.cost)
    }

    /// Turns structured event buffering on or off (off by default; the
    /// shard worker enables it when the node's observability is on).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.events.clear();
        }
    }

    /// The stack's layer names, top first (resolves [`CoreLayer::Layer`]).
    pub fn layer_names(&self) -> &[&'static str] {
        &self.names
    }

    /// Schedules a protocol-stack switch: the next view this member
    /// installs is built from `names`. Every member installs the same
    /// view, so a group whose members all schedule the same switch
    /// changes stacks together — no mixed-stack window. Refuses a stack
    /// that fails the configuration check.
    pub fn switch_stack_on_next_view(&mut self, names: &[&'static str]) -> Result<(), CompatError> {
        check_stack(names)?;
        self.next_names = Some(names.to_vec());
        Ok(())
    }

    /// Takes the buffered trace events (empty when tracing is off).
    pub fn take_events(&mut self, out: &mut Vec<CoreEvent>) {
        out.append(&mut self.events);
    }

    fn trace(
        &mut self,
        t: Time,
        layer: CoreLayer,
        kind: EventKind,
        dir: Direction,
        ccp: CcpFailure,
        aux: u64,
    ) {
        if !self.tracing {
            return;
        }
        self.event_ord += 1;
        self.events.push(CoreEvent {
            t,
            layer,
            kind,
            dir,
            seqno: self.event_ord,
            ccp,
            aux,
        });
    }

    /// Synthesizes and installs the MACH bypass for the current view and
    /// layer configuration. Idempotent per view (reinstall recompiles).
    pub fn install_bypass(&mut self) -> Result<(), BypassError> {
        let mut ctx = ModelCtx::new(self.vs.nmembers() as i64, self.vs.rank.0 as i64);
        ctx.pt2pt_window = self.cfg.pt2pt_window as i64;
        ctx.mflow_window = self.cfg.mflow_window as i64;
        ctx.frag_max = self.cfg.frag_max as i64;
        ctx.collect_every = self.cfg.collect_every as i64;
        let synth =
            synthesize(&self.names, &ctx).map_err(|e| BypassError::Synthesis(format!("{e:?}")))?;
        let bypass = StackBypass::compile(&synth, self.vs.rank.0)
            .map_err(|e| BypassError::Codegen(format!("{e:?}")))?;
        // The Defer-commutativity certificate decides the drain policy:
        // licensed stacks batch deferred work to quiescent points,
        // anything else drains after every bypass hit.
        self.defer_licensed = DeferCertificate::of(&synth, self.vs.rank.0 as i64).licensed();
        self.defer_seen = 0;
        self.bypass = Some(bypass);
        self.stash.clear();
        Ok(())
    }

    /// Removes the bypass; subsequent traffic takes the engine. Any
    /// batched deferred work drains first (a quiescent point).
    pub fn drop_bypass(&mut self) {
        if let Some(b) = self.bypass.as_mut() {
            if b.drain_deferred() > 0 {
                self.defer_flushes += 1;
            }
        }
        self.defer_seen = 0;
        self.defer_licensed = false;
        self.bypass = None;
        self.stash.clear();
    }

    /// An application multicast of `payload`, copied once on the way in.
    pub fn cast(&mut self, now: Time, payload: &[u8]) -> Vec<Action> {
        self.cast_payload(now, Payload::from_slice(payload))
    }

    /// An application multicast of a payload the caller already holds (the
    /// shard wraps the buffer its handle copied): no copy here.
    pub fn cast_payload(&mut self, now: Time, payload: Payload) -> Vec<Action> {
        let mut out = std::mem::take(&mut self.spare);
        if !self.alive {
            return out;
        }
        self.trace(
            now,
            CoreLayer::App,
            EventKind::Cast,
            Direction::Dn,
            CcpFailure::None,
            payload.len() as u64,
        );
        if self.blocked || self.stalled {
            self.park(now, Parked::Cast(payload));
            return out;
        }
        if let Some(bypass) = self.bypass.as_mut() {
            let result = bypass.dn_cast(&payload);
            if self.apply_bypass(now, Case::DnCast, result, &mut out) {
                self.settle_deferred(now);
                return out;
            }
            // CCP failed: this message takes the engine (see module docs
            // for the ordering caveat between the two streams). The
            // EngineFallback event is the observable edge of that
            // cross-stream reordering window. Falling back is a
            // quiescent point: the batch drains before engine traffic
            // interleaves.
            self.flush_deferred(now);
            self.trace(
                now,
                CoreLayer::Engine,
                EventKind::EngineFallback,
                Direction::Dn,
                CcpFailure::SenderCcp,
                0,
            );
        }
        let ev = DnEvent::Cast(self.message(payload));
        let b = self.inject_dn(now, ev);
        self.route(now, b, &mut out);
        out
    }

    /// An application point-to-point send to `dst` (rank), copied once on
    /// the way in.
    pub fn send(&mut self, now: Time, dst: Rank, payload: &[u8]) -> Vec<Action> {
        self.send_payload(now, dst, Payload::from_slice(payload))
    }

    /// [`GroupCore::send`] for a payload the caller already built.
    pub fn send_payload(&mut self, now: Time, dst: Rank, payload: Payload) -> Vec<Action> {
        let mut out = std::mem::take(&mut self.spare);
        if !self.alive || dst.index() >= self.vs.nmembers() {
            return out;
        }
        self.trace(
            now,
            CoreLayer::App,
            EventKind::Send,
            Direction::Dn,
            CcpFailure::None,
            payload.len() as u64,
        );
        if self.blocked || self.stalled {
            let dst_ep = self.vs.endpoint_of(dst);
            self.park(now, Parked::Send(dst_ep, payload));
            return out;
        }
        if let Some(bypass) = self.bypass.as_mut() {
            let result = bypass.dn_send(dst.0, &payload);
            if self.apply_bypass(now, Case::DnSend, result, &mut out) {
                self.settle_deferred(now);
                return out;
            }
            self.flush_deferred(now);
            self.trace(
                now,
                CoreLayer::Engine,
                EventKind::EngineFallback,
                Direction::Dn,
                CcpFailure::SenderCcp,
                0,
            );
        }
        let ev = DnEvent::Send {
            dst,
            msg: self.message(payload),
        };
        let b = self.inject_dn(now, ev);
        self.route(now, b, &mut out);
        out
    }

    /// Asks the stack to declare `members` suspected. The endpoints are
    /// resolved against the view installed when this runs, which is the
    /// only view a rank means anything in; an endpoint that view lacks
    /// is dropped, and if none is left nothing is injected.
    pub fn suspect(&mut self, now: Time, members: Vec<Endpoint>) -> Vec<Action> {
        let mut out = std::mem::take(&mut self.spare);
        let ranks: Vec<Rank> = members.iter().filter_map(|&m| self.vs.rank_of(m)).collect();
        if self.alive && !ranks.is_empty() {
            self.trace(
                now,
                CoreLayer::App,
                EventKind::Suspect,
                Direction::Dn,
                CcpFailure::None,
                ranks.len() as u64,
            );
            let b = self.inject_dn(now, DnEvent::Suspect { ranks });
            self.route(now, b, &mut out);
        }
        out
    }

    /// Gracefully leaves the group.
    pub fn leave(&mut self, now: Time) -> Vec<Action> {
        let mut out = std::mem::take(&mut self.spare);
        if self.alive {
            self.trace(
                now,
                CoreLayer::App,
                EventKind::Leave,
                Direction::Dn,
                CcpFailure::None,
                0,
            );
            let b = self.inject_dn(now, DnEvent::Leave);
            self.route(now, b, &mut out);
        }
        out
    }

    /// A packet arrived from the transport.
    pub fn deliver_packet(&mut self, now: Time, pkt: Packet) -> Vec<Action> {
        let mut out = std::mem::take(&mut self.spare);
        if !self.alive {
            return out;
        }
        if self.stalled {
            // Quarantine: a stalled minority must not consume traffic
            // from a primary view it never installed (stale seqno state
            // would NAK and mis-deliver across the epoch boundary).
            self.stall_drops += 1;
            return out;
        }
        let Some(origin) = self.vs.rank_of(pkt.src) else {
            return out; // Sender not in our view.
        };
        let is_cast = matches!(pkt.dst, Dest::Cast);
        if let Some(bypass) = self.bypass.as_mut() {
            let result = if is_cast {
                bypass.up_cast(origin.0, &pkt.bytes)
            } else {
                bypass.up_send(origin.0, &pkt.bytes)
            };
            let case = if is_cast { Case::UpCast } else { Case::UpSend };
            match result {
                BypassOutput::Done { .. } => {
                    self.apply_bypass(now, case, result, &mut out);
                    self.retry_stash(now, &mut out);
                    self.settle_deferred(now);
                    return out;
                }
                BypassOutput::Fallback => {
                    // This stack's compressed format, or generic engine
                    // bytes? (`CompressedHdr::decode` alone is not a
                    // discriminator — it has no magic; the id/case check
                    // is what decides.)
                    if bypass.recognizes(&pkt.bytes, is_cast) {
                        // Compressed but CCP-rejected: an out-of-order
                        // fast-path packet. Park it for the gap fill.
                        self.bypass_misses += 1;
                        if self.stash.len() >= STASH_LIMIT {
                            self.stash.pop_front();
                            self.trace(
                                now,
                                CoreLayer::Bypass,
                                EventKind::StashPark,
                                Direction::Up,
                                CcpFailure::StashOverflow,
                                STASH_LIMIT as u64,
                            );
                        }
                        self.stash.push_back((origin.0, pkt.bytes, is_cast));
                        self.trace(
                            now,
                            CoreLayer::Bypass,
                            EventKind::StashPark,
                            Direction::Up,
                            CcpFailure::OutOfOrder,
                            self.stash.len() as u64,
                        );
                        return out;
                    }
                    // Not compressed at all: a generic-path packet.
                    self.trace(
                        now,
                        CoreLayer::Bypass,
                        EventKind::BypassMiss,
                        Direction::Up,
                        CcpFailure::ForeignFormat,
                        0,
                    );
                }
            }
        }
        let Ok(msg) = unmarshal_owned(pkt.bytes) else {
            return out; // Corrupt or foreign: drop.
        };
        self.cost.allocations += 1;
        self.cost.data_refs += 1;
        let ev = if is_cast {
            UpEvent::Cast { origin, msg }
        } else {
            UpEvent::Send { origin, msg }
        };
        let b = self.inject_up(now, ev);
        self.route(now, b, &mut out);
        out
    }

    /// Fires a layer timer requested by generation `generation`.
    pub fn fire_timer(&mut self, now: Time, layer: usize, generation: u64) -> Vec<Action> {
        let mut out = std::mem::take(&mut self.spare);
        if !self.alive || generation != self.generation {
            return out; // Stale timer from a replaced stack.
        }
        if self.stalled {
            if !self.frozen_timers.contains(&layer) {
                self.frozen_timers.push(layer);
            }
            return out;
        }
        self.trace(
            now,
            CoreLayer::Layer(layer),
            EventKind::TimerFire,
            Direction::None,
            CcpFailure::None,
            0,
        );
        let b = self.engine.fire_timer(now, layer);
        self.cost.dispatches += 1;
        self.route(now, b, &mut out);
        out
    }

    /// An application message whose frame vector has room for a header
    /// from every layer of the stack it enters, so it never regrows.
    fn message(&self, payload: Payload) -> Msg {
        Msg::with_depth(payload, self.engine.layer_count())
    }

    fn inject_dn(&mut self, now: Time, ev: DnEvent) -> Boundary {
        self.cost.dispatches += self.engine.layer_count() as u64;
        self.engine.inject_dn(now, ev)
    }

    fn inject_up(&mut self, now: Time, ev: UpEvent) -> Boundary {
        self.cost.dispatches += self.engine.layer_count() as u64;
        self.engine.inject_up(now, ev)
    }

    /// Applies a bypass result; `true` when the fast path handled it.
    fn apply_bypass(
        &mut self,
        now: Time,
        case: Case,
        result: BypassOutput,
        out: &mut Vec<Action>,
    ) -> bool {
        let dir = match case {
            Case::DnCast | Case::DnSend => Direction::Dn,
            Case::UpCast | Case::UpSend => Direction::Up,
        };
        match result {
            BypassOutput::Fallback => {
                self.bypass_misses += 1;
                // Fallback only reaches here on the sender side; the
                // receiver side triages fallbacks in `deliver_packet`.
                self.trace(
                    now,
                    CoreLayer::Bypass,
                    EventKind::BypassMiss,
                    dir,
                    CcpFailure::SenderCcp,
                    0,
                );
                false
            }
            BypassOutput::Done { wire, deliver } => {
                self.bypass_hits += 1;
                let b = self.bypass.as_ref().expect("bypass ran");
                let (ccp, wire_ops, update) = b.program_sizes(case);
                self.cost.instructions += (ccp + wire_ops + update) as u64;
                // The CCP is all conditionals; the wire and update
                // programs move header fields and state words.
                self.cost.branches += ccp as u64;
                self.cost.data_refs += (wire_ops + update) as u64;
                self.trace(
                    now,
                    CoreLayer::Bypass,
                    EventKind::BypassHit,
                    dir,
                    CcpFailure::None,
                    (ccp + wire_ops + update) as u64,
                );
                if let Some((dst, bytes)) = wire {
                    let pkt = match dst {
                        None => Packet::cast(self.ep, bytes),
                        Some(rank) => {
                            Packet::point(self.ep, self.vs.endpoint_of(Rank(rank)), bytes)
                        }
                    };
                    out.push(Action::Transmit(pkt));
                }
                if let Some((origin, bytes)) = deliver {
                    let oid = self.vs.endpoint_of(Rank(origin)).id();
                    self.trace(
                        now,
                        CoreLayer::Bypass,
                        EventKind::Deliver,
                        Direction::Up,
                        CcpFailure::None,
                        bytes.len() as u64,
                    );
                    let d = match case {
                        Case::DnCast | Case::UpCast => Delivery::Cast { origin: oid, bytes },
                        Case::DnSend | Case::UpSend => Delivery::Send { origin: oid, bytes },
                    };
                    out.push(Action::Deliver(d));
                }
                true
            }
        }
    }

    /// Settles deferred work after a bypass hit: licensed stacks
    /// accumulate it into the batch (draining only when the batch
    /// fills), uncertified stacks drain on the spot.
    fn settle_deferred(&mut self, now: Time) {
        let Some(b) = self.bypass.as_mut() else {
            return;
        };
        let pending = b.deferred_len();
        if !self.defer_licensed {
            let n = b.drain_deferred();
            if n > 0 {
                self.defer_flushes += 1;
                self.trace(
                    now,
                    CoreLayer::Bypass,
                    EventKind::DeferFlush,
                    Direction::None,
                    CcpFailure::None,
                    n as u64,
                );
            }
            self.defer_seen = 0;
            return;
        }
        if pending > self.defer_seen {
            self.defer_batched += (pending - self.defer_seen) as u64;
            self.defer_seen = pending;
        }
        if pending >= DEFER_BATCH_LIMIT {
            self.flush_deferred(now);
        }
    }

    /// Drains the deferred-work batch at a quiescent point (full batch,
    /// engine fallback, view change, bypass drop).
    fn flush_deferred(&mut self, now: Time) {
        if let Some(b) = self.bypass.as_mut() {
            let n = b.drain_deferred();
            if n > 0 {
                self.defer_flushes += 1;
                self.trace(
                    now,
                    CoreLayer::Bypass,
                    EventKind::DeferFlush,
                    Direction::None,
                    CcpFailure::None,
                    n as u64,
                );
            }
        }
        self.defer_seen = 0;
    }

    /// Retries parked out-of-order packets until no further progress.
    fn retry_stash(&mut self, now: Time, out: &mut Vec<Action>) {
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.stash.len() {
                let (origin, ref bytes, is_cast) = self.stash[i];
                let result = {
                    let b = self.bypass.as_mut().expect("stash implies bypass");
                    if is_cast {
                        b.up_cast(origin, bytes)
                    } else {
                        b.up_send(origin, bytes)
                    }
                };
                match result {
                    BypassOutput::Done { .. } => {
                        let case = if is_cast { Case::UpCast } else { Case::UpSend };
                        self.stash.remove(i);
                        self.trace(
                            now,
                            CoreLayer::Bypass,
                            EventKind::StashReplay,
                            Direction::Up,
                            CcpFailure::None,
                            self.stash.len() as u64,
                        );
                        self.apply_bypass(now, case, result, out);
                        progressed = true;
                    }
                    BypassOutput::Fallback => i += 1,
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Routes an engine boundary into actions (recursing through view
    /// installs, which rebuild the stack).
    fn route(&mut self, now: Time, mut b: Boundary, out: &mut Vec<Action>) {
        for (layer, deadline) in b.timers.drain(..) {
            out.push(Action::Timer {
                layer,
                deadline: deadline.max(now),
                generation: self.generation,
            });
        }
        for ev in b.wire.drain(..) {
            match ev {
                DnEvent::Cast(msg) => {
                    self.cost.allocations += 1;
                    self.cost.data_refs += 1;
                    out.push(Action::Transmit(Packet::cast(self.ep, marshal(&msg))));
                }
                DnEvent::Send { dst, msg } => {
                    self.cost.allocations += 1;
                    self.cost.data_refs += 1;
                    let dst_ep = self.vs.endpoint_of(dst);
                    out.push(Action::Transmit(Packet::point(
                        self.ep,
                        dst_ep,
                        marshal(&msg),
                    )));
                }
                // Other control events are absorbed at the boundary,
                // matching the simulator.
                _ => {}
            }
        }
        for ev in b.app.drain(..) {
            match ev {
                UpEvent::Cast { origin, msg } => {
                    let oid = self.vs.endpoint_of(origin).id();
                    let bytes = msg.payload().gather();
                    self.trace(
                        now,
                        CoreLayer::Engine,
                        EventKind::Deliver,
                        Direction::Up,
                        CcpFailure::None,
                        bytes.len() as u64,
                    );
                    out.push(Action::Deliver(Delivery::Cast { origin: oid, bytes }));
                }
                UpEvent::Send { origin, msg } => {
                    let oid = self.vs.endpoint_of(origin).id();
                    let bytes = msg.payload().gather();
                    self.trace(
                        now,
                        CoreLayer::Engine,
                        EventKind::Deliver,
                        Direction::Up,
                        CcpFailure::None,
                        bytes.len() as u64,
                    );
                    out.push(Action::Deliver(Delivery::Send { origin: oid, bytes }));
                }
                UpEvent::View(vs) => {
                    // What the closing stack's flow control still holds
                    // goes out before the stack is dropped. Else the
                    // coordinator's `NewView`, queued behind its casts,
                    // dies here, and the members that wait for those
                    // casts wait in the old view for good.
                    let last = self.inject_dn(now, DnEvent::Drain);
                    self.route(now, last, out);
                    self.install_view(now, vs, out)
                }
                UpEvent::Block => {
                    self.blocked = true;
                    self.trace(
                        now,
                        CoreLayer::Engine,
                        EventKind::Block,
                        Direction::Up,
                        CcpFailure::None,
                        0,
                    );
                    out.push(Action::Deliver(Delivery::Block));
                }
                UpEvent::Exit => {
                    self.alive = false;
                    self.blocked = false;
                    self.parked.clear();
                    self.trace(
                        now,
                        CoreLayer::Engine,
                        EventKind::Exit,
                        Direction::Up,
                        CcpFailure::None,
                        0,
                    );
                    out.push(Action::Deliver(Delivery::Exit));
                }
                UpEvent::Stable(v) => {
                    out.push(Action::Deliver(Delivery::Stable(
                        v.iter().map(|s| s.0).collect(),
                    )));
                }
                _ => {}
            }
        }
        // Emptied, the boundary's vectors serve the engine's next call
        // (after a view change, the new engine's).
        self.engine.recycle_boundary(b);
    }

    /// Installs a new view: fresh stack, new generation, bypass dropped.
    fn install_view(&mut self, now: Time, vs: ViewState, out: &mut Vec<Action>) {
        self.trace(
            now,
            CoreLayer::Engine,
            EventKind::ViewInstall,
            Direction::Up,
            CcpFailure::None,
            vs.nmembers() as u64,
        );
        self.generation += 1;
        self.flush_deferred(now);
        self.defer_licensed = false;
        self.bypass = None;
        self.stash.clear();
        self.blocked = false;
        self.stalled = false;
        self.frozen_timers.clear();
        if let Some(next) = self.next_names.take() {
            self.names = next;
        }
        let mut engine = self
            .kind
            .build(make_stack(&self.names, &vs, &self.cfg).expect("stack checked when chosen"));
        let boundary = engine.init(now);
        self.engine = engine;
        self.vs = vs.clone();
        out.push(Action::Deliver(Delivery::View(vs)));
        self.route(now, boundary, out);
        self.replay_parked(now, out);
    }

    /// Replays messages parked during the flush window through the fresh
    /// stack: they are delivered exactly once, in the new view, in the
    /// order the application issued them. Sends whose destination left
    /// the group are dropped (the peer is gone).
    fn replay_parked(&mut self, now: Time, out: &mut Vec<Action>) {
        if self.parked.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.parked);
        for p in parked {
            // A replayed message may hit a new Block (back-to-back view
            // changes): `cast`/`send` re-park it for the next view.
            self.trace(
                now,
                CoreLayer::App,
                EventKind::StashReplay,
                Direction::Dn,
                CcpFailure::None,
                self.parked.len() as u64,
            );
            match p {
                Parked::Cast(payload) => {
                    let mut acts = self.cast_payload(now, payload);
                    out.append(&mut acts);
                    self.recycle_actions(acts);
                }
                Parked::Send(dst_ep, payload) => {
                    let Some(dst) = self.vs.rank_of(dst_ep) else {
                        continue; // Destination excluded from the new view.
                    };
                    let mut acts = self.send_payload(now, dst, payload);
                    out.append(&mut acts);
                    self.recycle_actions(acts);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_layers::STACK_4;

    fn core(rank: u16, n: usize) -> (GroupCore, Vec<Action>) {
        let vs = ViewState::initial(n).for_rank(Rank(rank));
        GroupCore::new(
            STACK_4,
            vs,
            EngineKind::Imp,
            LayerConfig::fast(),
            Time::ZERO,
        )
        .unwrap()
    }

    fn transmits(actions: &[Action]) -> Vec<&Packet> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Transmit(p) => Some(p),
                _ => None,
            })
            .collect()
    }

    fn casts(actions: &[Action]) -> Vec<(u32, Vec<u8>)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Deliver(Delivery::Cast { origin, bytes }) => Some((*origin, bytes.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_handed_back_action_list_is_refilled() {
        let (mut c0, _) = core(0, 2);
        let first = c0.cast(Time(1), b"one");
        assert_eq!(transmits(&first).len(), 1);
        let buf = first.as_ptr();
        c0.recycle_actions(first);
        let second = c0.cast(Time(2), b"two");
        assert_eq!(second.as_ptr(), buf, "the list handed back was reused");
        assert_eq!(transmits(&second).len(), 1);
    }

    #[test]
    fn cast_crosses_two_cores() {
        let (mut a, _) = core(0, 2);
        let (mut b, _) = core(1, 2);
        let out = a.cast(Time::ZERO, b"hello");
        // STACK_4 has no `local` layer: no self-delivery at the sender.
        assert!(casts(&out).is_empty());
        let wire = transmits(&out);
        assert_eq!(wire.len(), 1);
        let got = b.deliver_packet(Time::ZERO, wire[0].clone());
        assert_eq!(casts(&got), vec![(0, b"hello".to_vec())]);
    }

    #[test]
    fn bypass_fast_path_delivers_and_counts() {
        let (mut a, _) = core(0, 2);
        let (mut b, _) = core(1, 2);
        a.install_bypass().unwrap();
        b.install_bypass().unwrap();
        for i in 0..10u8 {
            let out = a.cast(Time::ZERO, &[i]);
            let wire = transmits(&out);
            assert_eq!(wire.len(), 1, "cast {i} must hit the fast path");
            let got = b.deliver_packet(Time::ZERO, wire[0].clone());
            assert_eq!(casts(&got), vec![(0, vec![i])]);
        }
        let (hits_a, misses_a) = a.take_bypass_delta();
        let (hits_b, misses_b) = b.take_bypass_delta();
        assert_eq!(hits_a, 10);
        assert_eq!(misses_a, 0);
        assert_eq!(hits_b, 10);
        assert_eq!(misses_b, 0);
        assert!(a.take_cost_delta().instructions > 0);
    }

    #[test]
    fn bypass_reorder_is_stashed_and_replayed() {
        let (mut a, _) = core(0, 2);
        let (mut b, _) = core(1, 2);
        a.install_bypass().unwrap();
        b.install_bypass().unwrap();
        let w1 = transmits(&a.cast(Time::ZERO, b"first"))[0].clone();
        let w2 = transmits(&a.cast(Time::ZERO, b"second"))[0].clone();
        // Deliver out of order: the second parks, the first releases it.
        let got2 = b.deliver_packet(Time::ZERO, w2);
        assert!(casts(&got2).is_empty(), "gap must stall delivery");
        let got1 = b.deliver_packet(Time::ZERO, w1);
        assert_eq!(
            casts(&got1),
            vec![(0, b"first".to_vec()), (0, b"second".to_vec())],
            "stash replays in order after the gap fills"
        );
    }

    #[test]
    fn a_full_stash_evicts_its_oldest_packet_first() {
        let (mut a, _) = core(0, 2);
        let (mut b, _) = core(1, 2);
        a.install_bypass().unwrap();
        b.install_bypass().unwrap();
        b.set_tracing(true);
        let over = 3;
        let wire: Vec<Packet> = (0..=(STASH_LIMIT + over) as u16)
            .map(|i| transmits(&a.cast(Time::ZERO, &i.to_le_bytes()))[0].clone())
            .collect();
        // Everything but the first arrives: one gap, all of it stashed.
        for pkt in &wire[1..] {
            assert!(casts(&b.deliver_packet(Time::ZERO, pkt.clone())).is_empty());
        }
        let stashed: Vec<&Vec<u8>> = b.stash.iter().map(|(_, bytes, _)| bytes).collect();
        let newest: Vec<&Vec<u8>> = wire[1 + over..].iter().map(|p| &p.bytes).collect();
        assert_eq!(stashed, newest, "the {over} oldest went, in arrival order");
        let mut events = Vec::new();
        b.take_events(&mut events);
        let overflows = events
            .iter()
            .filter(|e| e.kind == EventKind::StashPark && e.ccp == CcpFailure::StashOverflow)
            .count();
        assert_eq!(overflows, over, "one StashOverflow event per eviction");
        // The gap fills, but the packet after it was evicted: the rest wait.
        let got = b.deliver_packet(Time::ZERO, wire[0].clone());
        assert_eq!(casts(&got), vec![(0, 0u16.to_le_bytes().to_vec())]);
        assert_eq!(b.stash.len(), STASH_LIMIT);
    }

    #[test]
    fn a_full_park_list_drops_its_oldest_cast_first() {
        let (mut c, _) = vsync_core(0, 3);
        c.suspect(Time::ZERO, vec![Endpoint::new(2)]);
        assert!(c.is_blocked());
        let over = 3;
        for i in 0..(PARK_LIMIT + over) as u32 {
            assert!(c.cast(Time::ZERO, &i.to_le_bytes()).is_empty());
        }
        assert_eq!(c.parked_depth(), PARK_LIMIT);
        let kept: Vec<Vec<u8>> = c
            .parked
            .iter()
            .map(|p| match p {
                Parked::Cast(payload) => payload.gather(),
                Parked::Send(..) => panic!("only casts were parked"),
            })
            .collect();
        let newest: Vec<Vec<u8>> = (over as u32..(PARK_LIMIT + over) as u32)
            .map(|i| i.to_le_bytes().to_vec())
            .collect();
        assert_eq!(kept, newest, "the {over} oldest went, issue order kept");
    }

    fn vsync_core(rank: u16, n: usize) -> (GroupCore, Vec<Action>) {
        let vs = ViewState::initial(n).for_rank(Rank(rank));
        GroupCore::new(
            ensemble_layers::STACK_VSYNC,
            vs,
            EngineKind::Imp,
            LayerConfig::fast(),
            Time::ZERO,
        )
        .unwrap()
    }

    /// Shuttles packets between cores (skipping `dead` endpoints) until
    /// quiescent, appending each core's deliveries to `sink`.
    fn pump(
        cores: &mut [GroupCore],
        dead: &[u32],
        pending: &mut std::collections::VecDeque<Packet>,
        sink: &mut [Vec<Delivery>],
    ) {
        while let Some(pkt) = pending.pop_front() {
            if dead.contains(&pkt.src.id()) {
                continue;
            }
            let targets: Vec<usize> = match pkt.dst {
                Dest::Cast => (0..cores.len())
                    .filter(|&i| {
                        cores[i].endpoint() != pkt.src && !dead.contains(&cores[i].endpoint().id())
                    })
                    .collect(),
                Dest::Point(dst) => (0..cores.len())
                    .filter(|&i| cores[i].endpoint() == dst && !dead.contains(&dst.id()))
                    .collect(),
            };
            for i in targets {
                let acts = cores[i].deliver_packet(Time::ZERO, pkt.clone());
                for a in acts {
                    match a {
                        Action::Transmit(p) => pending.push_back(p),
                        Action::Deliver(d) => sink[i].push(d),
                        Action::Timer { .. } => {}
                    }
                }
            }
        }
    }

    /// Delivers the currently pending packets only, collecting the
    /// responses into a fresh queue — lets a test observe mid-flush state.
    fn pump_one_level(
        cores: &mut [GroupCore],
        dead: &[u32],
        pending: &mut std::collections::VecDeque<Packet>,
        sink: &mut [Vec<Delivery>],
    ) {
        let mut next = std::collections::VecDeque::new();
        while let Some(pkt) = pending.pop_front() {
            if dead.contains(&pkt.src.id()) {
                continue;
            }
            let targets: Vec<usize> = match pkt.dst {
                Dest::Cast => (0..cores.len())
                    .filter(|&i| {
                        cores[i].endpoint() != pkt.src && !dead.contains(&cores[i].endpoint().id())
                    })
                    .collect(),
                Dest::Point(dst) => (0..cores.len())
                    .filter(|&i| cores[i].endpoint() == dst && !dead.contains(&dst.id()))
                    .collect(),
            };
            for i in targets {
                let acts = cores[i].deliver_packet(Time::ZERO, pkt.clone());
                for a in acts {
                    match a {
                        Action::Transmit(p) => next.push_back(p),
                        Action::Deliver(d) => sink[i].push(d),
                        Action::Timer { .. } => {}
                    }
                }
            }
        }
        *pending = next;
    }

    fn split(
        actions: Vec<Action>,
        pending: &mut std::collections::VecDeque<Packet>,
        sink: &mut Vec<Delivery>,
    ) {
        for a in actions {
            match a {
                Action::Transmit(p) => pending.push_back(p),
                Action::Deliver(d) => sink.push(d),
                Action::Timer { .. } => {}
            }
        }
    }

    fn cast_bodies(deliveries: &[Delivery]) -> Vec<(u32, Vec<u8>)> {
        deliveries
            .iter()
            .filter_map(|d| match d {
                Delivery::Cast { origin, bytes } => Some((*origin, bytes.clone())),
                _ => None,
            })
            .collect()
    }

    fn views(deliveries: &[Delivery]) -> Vec<ViewState> {
        deliveries
            .iter()
            .filter_map(|d| match d {
                Delivery::View(v) => Some(v.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn blocked_casts_park_and_replay_exactly_once_in_new_view() {
        let (mut c0, _) = vsync_core(0, 3);
        let (c1, _) = vsync_core(1, 3);
        let mut pending = std::collections::VecDeque::new();
        let mut sink = vec![Vec::new(), Vec::new()];

        // The coordinator suspects member 2 (dead): flush begins and the
        // coordinator blocks synchronously.
        let acts = c0.suspect(Time::ZERO, vec![Endpoint::new(2)]);
        split(acts, &mut pending, &mut sink[0]);
        assert!(c0.is_blocked(), "coordinator enters the flush window");
        assert!(
            sink[0].contains(&Delivery::Block),
            "Block surfaced to the app"
        );

        // A cast issued inside the window parks instead of entering the
        // old stack (it would miss the agreed cut).
        let acts = c0.cast(Time::ZERO, b"during-0");
        assert!(
            !acts.iter().any(|a| matches!(a, Action::Transmit(_))),
            "blocked cast must not transmit"
        );
        assert_eq!(c0.parked_depth(), 1);

        // Let the Flush reach member 1, which blocks too; its own cast
        // during the window also parks. A single pump level delivers
        // core0's outgoing frames without yet returning the responses.
        let mut cores = [c0, c1];
        pump_one_level(&mut cores, &[2], &mut pending, &mut sink);
        assert!(cores[1].is_blocked(), "member blocks on Flush");
        let acts = cores[1].cast(Time::ZERO, b"during-1");
        assert!(!acts.iter().any(|a| matches!(a, Action::Transmit(_))));
        assert_eq!(cores[1].parked_depth(), 1);

        // Drive the flush to completion: new view on both survivors, and
        // the parked casts replay through the fresh stacks.
        pump(&mut cores, &[2], &mut pending, &mut sink);
        for (i, s) in sink.iter().enumerate() {
            let v = views(s);
            assert_eq!(v.len(), 1, "core {i} installs exactly one new view");
            assert_eq!(v[0].nmembers(), 2, "core {i}");
        }
        assert_eq!(
            views(&sink[0])[0].view_id,
            views(&sink[1])[0].view_id,
            "survivors agree on the new view"
        );
        // Exactly-once: each parked cast delivered once per survivor
        // (vsync includes `local`, so senders deliver their own casts).
        for (i, s) in sink.iter().enumerate() {
            let bodies = cast_bodies(s);
            assert_eq!(
                bodies.iter().filter(|(_, b)| b == b"during-0").count(),
                1,
                "core {i}: {bodies:?}"
            );
            assert_eq!(
                bodies.iter().filter(|(_, b)| b == b"during-1").count(),
                1,
                "core {i}: {bodies:?}"
            );
        }
        assert!(!cores[0].is_blocked(), "window closes at install");
        assert_eq!(cores[0].parked_depth(), 0);
    }

    #[test]
    fn parked_send_remaps_endpoint_to_new_rank() {
        // Members 0,1,2; member 1 dies, so ep2 reranks from 2 to 1.
        let (mut c0, _) = vsync_core(0, 3);
        let (c2, _) = vsync_core(2, 3);
        let mut pending = std::collections::VecDeque::new();
        let mut sink = vec![Vec::new(), Vec::new()];

        let acts = c0.suspect(Time::ZERO, vec![Endpoint::new(1)]);
        split(acts, &mut pending, &mut sink[0]);
        assert!(c0.is_blocked());
        // Parked send to old Rank(2) == ep2 (reranked after the change),
        // and one to the dead member (dropped at replay).
        c0.send(Time::ZERO, Rank(2), b"to-ep2");
        c0.send(Time::ZERO, Rank(1), b"to-dead");
        assert_eq!(c0.parked_depth(), 2);

        let mut cores = [c0, c2];
        pump(&mut cores, &[1], &mut pending, &mut sink);
        let v = views(&sink[1]);
        assert_eq!(v.len(), 1);
        let sends: Vec<&Delivery> = sink[1]
            .iter()
            .filter(|d| matches!(d, Delivery::Send { .. }))
            .collect();
        assert_eq!(
            sends,
            vec![&Delivery::Send {
                origin: 0,
                bytes: b"to-ep2".to_vec()
            }],
            "send remapped to ep2's new rank; send to the dead member dropped"
        );
        assert_eq!(cores[0].parked_depth(), 0);
    }

    #[test]
    fn suspicion_names_endpoints_resolved_in_the_installed_view() {
        // ep1 of [ep0, ep1, ep2] is handed [ep1, ep2]: ep0 is gone, ep1
        // is rank 0 and ep2 rank 1. A caller still holding the old view
        // would name ep0 as rank 0, which now means ep1 itself.
        let (mut c1, _) = vsync_core(1, 3);
        let (ep1, ep2) = (Endpoint::new(1), Endpoint::new(2));
        let next = ViewState {
            view_id: ensemble_util::ViewId {
                ltime: 1,
                coord: ep1,
            },
            members: vec![ep1, ep2],
            rank: Rank(0),
            ..c1.view().clone()
        };
        c1.install_external_view(Time::ZERO, next);
        assert_eq!(c1.view().members, vec![ep1, ep2]);

        let acts = c1.suspect(Time::ZERO, vec![Endpoint::new(0)]);
        assert!(
            acts.is_empty(),
            "no transmit, no Block: ep0 is not a member"
        );
        assert!(!c1.is_blocked());

        // ep2 is rank 1 now. With ep2 out, ep1 is the whole flush: it
        // blocks and installs [ep1] within the call.
        let (mut pending, mut sink) = (std::collections::VecDeque::new(), Vec::new());
        split(c1.suspect(Time::ZERO, vec![ep2]), &mut pending, &mut sink);
        assert_eq!(sink.first(), Some(&Delivery::Block));
        assert_eq!(
            views(&sink).last().map(|v| v.members.clone()),
            Some(vec![ep1]),
            "ep2 goes and ep1 stays"
        );
    }

    /// `(batched, flushes)` as returned by [`GroupCore::take_defer_delta`].
    type DeferDelta = (u64, u64);

    /// Runs a fixed cast sequence through a bypass pair, returning the
    /// receiver's delivery trace and both cores' defer deltas.
    fn run_cast_sequence(
        a: &mut GroupCore,
        b: &mut GroupCore,
        n: u8,
    ) -> (Vec<(u32, Vec<u8>)>, DeferDelta, DeferDelta) {
        let mut delivered = Vec::new();
        for i in 0..n {
            let out = a.cast(Time::ZERO, &[i, i.wrapping_mul(7)]);
            for pkt in transmits(&out) {
                let got = b.deliver_packet(Time::ZERO, pkt.clone());
                delivered.extend(casts(&got));
            }
        }
        (delivered, a.take_defer_delta(), b.take_defer_delta())
    }

    #[test]
    fn deferred_work_batches_iff_certificate_licensed() {
        // Licensed (stack4's certificate proves DF001–DF003): deferred
        // work accumulates; nothing drains until a quiescent point.
        let (mut a, _) = core(0, 2);
        let (mut b, _) = core(1, 2);
        a.install_bypass().unwrap();
        b.install_bypass().unwrap();
        assert!(
            a.defer_batching_active(),
            "stack4 certificate licenses batching"
        );
        let (batched_trace, (a_batched, a_flushes), (b_batched, _)) =
            run_cast_sequence(&mut a, &mut b, 10);
        assert!(
            a_batched >= 10,
            "sender batched one item per cast: {a_batched}"
        );
        assert!(
            b_batched >= 10,
            "receiver batched one item per cast: {b_batched}"
        );
        assert_eq!(a_flushes, 0, "no quiescent point reached yet");
        a.drop_bypass();
        let (_, a_flushes) = a.take_defer_delta();
        assert_eq!(a_flushes, 1, "dropping the bypass drains the batch");

        // Unlicensed (certificate withheld): same traffic drains after
        // every hit — and the delivery trace is identical.
        let (mut a2, _) = core(0, 2);
        let (mut b2, _) = core(1, 2);
        a2.install_bypass().unwrap();
        b2.install_bypass().unwrap();
        a2.defer_licensed = false;
        b2.defer_licensed = false;
        assert!(!a2.defer_batching_active());
        let (immediate_trace, (a2_batched, a2_flushes), (b2_batched, b2_flushes)) =
            run_cast_sequence(&mut a2, &mut b2, 10);
        assert_eq!(a2_batched, 0, "uncertified stacks never batch");
        assert_eq!(b2_batched, 0);
        assert_eq!(a2_flushes, 10, "one immediate drain per bypass hit");
        assert_eq!(b2_flushes, 10);
        assert_eq!(
            batched_trace, immediate_trace,
            "batched and immediate draining must be observably identical"
        );
    }

    #[test]
    fn batch_limit_is_a_quiescent_point() {
        let (mut a, _) = core(0, 2);
        let (mut b, _) = core(1, 2);
        a.install_bypass().unwrap();
        b.install_bypass().unwrap();
        let n = (DEFER_BATCH_LIMIT + 5) as u8;
        let (_, (a_batched, a_flushes), _) = run_cast_sequence(&mut a, &mut b, n);
        assert!(a_batched >= n as u64);
        assert!(
            a_flushes >= 1,
            "a full batch drains without waiting for a view event"
        );
    }

    fn stack10_core(rank: u16, n: usize) -> (GroupCore, Vec<Action>) {
        let vs = ViewState::initial(n).for_rank(Rank(rank));
        GroupCore::new(
            ensemble_layers::STACK_10,
            vs,
            EngineKind::Imp,
            LayerConfig::fast(),
            Time::ZERO,
        )
        .unwrap()
    }

    /// The cross-stream ordering hole (module docs): a mid-stream
    /// sender-CCP failure re-routes one message through the engine while
    /// the bypass stream keeps flowing. This pins down what IS
    /// guaranteed today — the observable `EngineFallback` edge, and FIFO
    /// delivery *within* each stream — and documents the hole a shared
    /// sequencing cursor between the two paths would close: nothing
    /// orders the engine message against the bypass messages around it.
    #[test]
    fn sender_ccp_fallback_keeps_streams_fifo() {
        let (mut a, _) = stack10_core(0, 2);
        let (mut b, _) = stack10_core(1, 2);
        a.install_bypass().unwrap();
        b.install_bypass().unwrap();
        a.set_tracing(true);
        b.set_tracing(true);

        // Payloads over frag_max fail the sender CCP deterministically
        // (fragmentation is slow-path work); small ones stay fast.
        let big = vec![0xAB; 2000];
        let sends: Vec<(Vec<u8>, bool)> = vec![
            (vec![1], false),
            (vec![2], false),
            (big.clone(), true), // mid-stream fallback
            (vec![3], false),
            (vec![4], false),
        ];

        let mut fast_sent = Vec::new();
        let mut slow_sent = Vec::new();
        let mut fast_got = Vec::new();
        let mut slow_got = Vec::new();
        let mut events = Vec::new();
        for (payload, expect_fallback) in &sends {
            let out = a.cast(Time::ZERO, payload);
            events.clear();
            a.take_events(&mut events);
            let fell_back = events
                .iter()
                .any(|e| e.kind == EventKind::EngineFallback && e.ccp == CcpFailure::SenderCcp);
            assert_eq!(
                fell_back,
                *expect_fallback,
                "payload of {} bytes: wrong path",
                payload.len()
            );
            if fell_back {
                slow_sent.push(payload.clone());
            } else {
                fast_sent.push(payload.clone());
            }
            for pkt in transmits(&out) {
                let got = b.deliver_packet(Time::ZERO, pkt.clone());
                events.clear();
                b.take_events(&mut events);
                let via_bypass = events
                    .iter()
                    .any(|e| e.kind == EventKind::Deliver && e.layer == CoreLayer::Bypass);
                for (_, bytes) in casts(&got) {
                    if via_bypass {
                        fast_got.push(bytes);
                    } else {
                        slow_got.push(bytes);
                    }
                }
            }
        }
        // Each stream delivers FIFO; ordering BETWEEN the streams is the
        // hole (here the engine message happens to arrive in issue order
        // because the test delivers packets synchronously — the runtime
        // makes no such promise).
        assert_eq!(fast_got, fast_sent, "bypass stream must stay FIFO");
        assert_eq!(slow_got, slow_sent, "engine stream must stay FIFO");
        assert_eq!(slow_sent.len(), 1);
    }

    #[test]
    fn timer_from_stale_generation_is_ignored() {
        let (mut a, init) = core(0, 2);
        let timer = init.iter().find_map(|x| match x {
            Action::Timer { layer, .. } => Some(*layer),
            _ => None,
        });
        // Whatever timers exist, generation 99 never matches.
        if let Some(layer) = timer {
            assert!(a.fire_timer(Time::ZERO, layer, 99).is_empty());
        }
    }

    #[test]
    fn a_stalled_group_holds_its_timers_until_it_unstalls() {
        let (mut c, init) = vsync_core(0, 3);
        let mut layers: Vec<usize> = init
            .iter()
            .filter_map(|a| match a {
                Action::Timer { layer, .. } => Some(*layer),
                _ => None,
            })
            .collect();
        layers.sort();
        layers.dedup();
        assert!(!layers.is_empty());
        c.set_stalled(Time::ZERO, true);
        // Long past every suspicion deadline: a running stack would
        // suspect both peers here and go on to a view of its own.
        let late = Time(10_000_000_000);
        for &layer in &layers {
            assert!(c.fire_timer(late, layer, 0).is_empty(), "layer {layer}");
        }
        let mut rearmed: Vec<usize> = c
            .set_stalled(late, false)
            .iter()
            .filter_map(|a| match a {
                Action::Timer {
                    layer,
                    deadline,
                    generation: 0,
                } if *deadline == late => Some(*layer),
                _ => None,
            })
            .collect();
        rearmed.sort();
        assert_eq!(rearmed, layers, "every held timer, due at the unstall");
        assert!(layers.iter().any(|&l| !c.fire_timer(late, l, 0).is_empty()));
    }

    #[test]
    fn stack_switch_waits_for_the_next_view_and_the_trace_follows_it() {
        let (mut c, _) = vsync_core(0, 3);
        let recorder = ensemble_obs::Recorder::new(1, 64);
        let mut w = recorder.writer(0).unwrap();
        let mut tags = LayerTags::new(c.layer_names(), |n| w.register(n));
        c.set_tracing(true);
        assert!(
            c.switch_stack_on_next_view(&["top", "total", "mnak", "bottom"])
                .is_err(),
            "an unsound stack cannot be scheduled"
        );
        // `sign` goes in at index 8, where `frag` sits today.
        let mut signed = ensemble_layers::STACK_VSYNC.to_vec();
        signed.insert(8, "sign");
        c.switch_stack_on_next_view(&signed).unwrap();
        c.fire_timer(Time::ZERO, 8, 0);
        assert_eq!(c.layer_names(), ensemble_layers::STACK_VSYNC, "not yet");
        let next = c.view().next_view(&[Rank(2)]);
        c.install_external_view(Time::ZERO, next);
        assert_eq!(c.layer_names(), signed, "switched with the view");
        c.fire_timer(Time::ZERO, 8, 1);
        c.install_external_view(Time::ZERO, c.view().next_view(&[]));
        assert_eq!(c.layer_names(), signed, "a switch happens once");

        tags.fold(&mut c, &mut w, &mut Vec::new());
        let fired: Vec<&str> = recorder
            .drain()
            .iter()
            .filter(|e| e.kind == EventKind::TimerFire)
            .map(|e| e.layer)
            .collect();
        assert_eq!(fired, ["frag", "sign"], "index 8, before and after");
    }
}
