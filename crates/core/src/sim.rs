//! Multi-process deterministic simulation: the virtual-time shell.
//!
//! The protocol state machine is [`GroupCore`] — the same pure
//! `(now, input) → Vec<Action>` machine the wall-clock runtime drives.
//! There is one state machine and two shells around it:
//! `ensemble_runtime`'s shard worker (wall clock and `Transport`) and this
//! module (virtual clock and one link latency). Each simulated process is
//! one `GroupCore`; the shell owns only what virtual time needs: one event
//! queue interleaving packet arrivals and timers, the crash flag, the
//! delivery logs, and virtual-time observability. Everything a process
//! *does* — marshaling, the bypass, parking application traffic during a
//! flush window, rebuilding the stack per view, switching stacks at a view
//! boundary — is `GroupCore`'s.
//!
//! What the network does to a packet is not the shell's either: every copy
//! is put to the same [`FaultPlane`] the wall-clock `LoopbackHub` asks.
//! Here a copy takes one link latency to arrive, a *late* copy takes two
//! (so a later send overtakes it), and a copy still in flight when a split
//! lands is dropped on arrival. Runs are reproducible bit-for-bit from the
//! seed.

use ensemble_event::ViewState;
use ensemble_layers::{LayerConfig, StackError};
use ensemble_obs::{CcpFailure, Direction, Event, EventKind, Histogram, Recorder, Summary, Tag};
use ensemble_runtime::{Action, CoreEvent, Delivery, Fate, FaultPlane, GroupCore, LayerTags};
use ensemble_transport::{Dest, Packet};
use ensemble_util::{Duration, Endpoint, Rank, Time};
use std::collections::BTreeMap;

pub use ensemble_obs::TraceEvent;
pub use ensemble_runtime::{BypassError, FaultCounts, FaultPlan, PartitionOp, PartitionScript};
pub use ensemble_stack::EngineKind;

/// One-way latency of the paper's testbed link, 100 Mbit Ethernet: ≈ 80 µs.
pub const ETHERNET_LATENCY: Duration = Duration::from_micros(80);

/// One-way latency of VIA / Giganet: ≈ 10 µs (§4, ref. \[27\] of the paper).
pub const VIA_LATENCY: Duration = Duration::from_micros(10);

/// The virtual-time event queue, keyed by `(time, scheduling order)`:
/// events scheduled for the same instant pop in scheduling order.
/// Determinism here is what makes whole-system runs replayable from a
/// seed.
struct EventQueue<T> {
    events: BTreeMap<(Time, u64), T>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    fn new() -> Self {
        EventQueue {
            events: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `item` at virtual time `at`.
    fn push(&mut self, at: Time, item: T) {
        self.events.insert((at, self.next_seq), item);
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<(Time, T)> {
        self.events.pop_first().map(|((at, _), item)| (at, item))
    }

    /// The time of the earliest pending event.
    fn peek_time(&self) -> Option<Time> {
        self.events.first_key_value().map(|((at, _), _)| *at)
    }
}

/// Virtual-time observability for a simulation run.
///
/// Every trace event is stamped with the simulator's *virtual* clock
/// (`t_ns` is virtual nanoseconds since simulation start), so traces are
/// as reproducible as the run itself. The `group` field carries the
/// endpoint id of the process the event happened at. Protocol events are
/// the cores' own [`CoreEvent`]s; the shell adds only the `wire` packet
/// events.
struct SimObs {
    recorder: Recorder,
    wire: Tag,
    /// Per-process resolvers for the cores' layer indices.
    tags: Vec<LayerTags>,
    buf: Vec<CoreEvent>,
    /// Virtual cast→deliver latency: injection at the origin to delivery
    /// at each receiver, in virtual nanoseconds.
    cast_latency: Histogram,
    /// Injection times per origin process, in cast order.
    cast_times: Vec<Vec<Time>>,
    /// Casts delivered so far, as `delivered[deliverer][origin]`. FIFO
    /// delivery per origin makes this the index into `cast_times`.
    delivered: Vec<Vec<usize>>,
}

impl SimObs {
    /// Records a `wire` event: `PacketOut` going down, `PacketIn` coming up.
    fn wire(&self, t: Time, kind: EventKind, ep: Endpoint, len: usize) {
        let dir = match kind {
            EventKind::PacketOut => Direction::Dn,
            _ => Direction::Up,
        };
        self.recorder.record(
            0,
            &Event {
                t_ns: t.nanos(),
                layer: self.wire,
                kind,
                dir,
                group: ep.id(),
                seqno: 0,
                ccp: CcpFailure::None,
                aux: len as u64,
            },
        );
    }
}

/// One simulated process.
struct Proc {
    core: GroupCore,
    /// Cleared by [`Simulation::kill`]: a crashed process takes no input.
    alive: bool,
    /// Cast deliveries as `(origin endpoint id, payload bytes)`.
    casts: Vec<(u32, Vec<u8>)>,
    /// Point-to-point deliveries as `(origin endpoint id, payload bytes)`.
    sends: Vec<(u32, Vec<u8>)>,
    /// Views installed (in order), including the initial one.
    views: Vec<ViewState>,
    /// `casts.len()` when each of `views` was installed: where in the
    /// delivery log each view begins.
    view_starts: Vec<usize>,
    /// Block notifications observed.
    blocks: u64,
    /// The latest stability vector reported to the application.
    stability: Vec<u64>,
}

impl Proc {
    /// Neither killed nor exited.
    fn live(&self) -> bool {
        self.alive && self.core.alive()
    }
}

enum SimEvent {
    /// One copy of `packet`, sent by endpoint id `src`, reaches process
    /// `idx`.
    Arrival {
        idx: usize,
        src: u32,
        packet: Packet,
    },
    Timer {
        idx: usize,
        layer: usize,
        generation: u64,
    },
}

/// The multi-process simulation harness.
pub struct Simulation {
    procs: Vec<Proc>,
    plane: FaultPlane,
    /// One-way link latency of every copy (a late copy takes two).
    latency: Duration,
    queue: EventQueue<SimEvent>,
    now: Time,
    /// Total events processed (observability).
    pub steps: u64,
    obs: Option<SimObs>,
}

impl Simulation {
    /// Builds `n` processes running `stack` over links of one-way
    /// `latency` ([`ETHERNET_LATENCY`], [`VIA_LATENCY`] or any other). The
    /// network starts clean and healed; `seed` drives the dice of whatever
    /// [`FaultPlan`] is set later.
    pub fn new(
        n: usize,
        stack: &[&'static str],
        kind: EngineKind,
        cfg: LayerConfig,
        latency: Duration,
        seed: u64,
    ) -> Result<Self, StackError> {
        let base = ViewState::initial(n);
        let mut sim = Simulation {
            procs: Vec::new(),
            plane: FaultPlane::new(seed, FaultPlan::clean()),
            latency,
            queue: EventQueue::new(),
            now: Time::ZERO,
            steps: 0,
            obs: None,
        };
        for r in 0..n {
            let vs = base.for_rank(Rank(r as u16));
            let (core, init) = GroupCore::new(stack, vs.clone(), kind, cfg.clone(), Time::ZERO)?;
            sim.procs.push(Proc {
                core,
                alive: true,
                casts: Vec::new(),
                sends: Vec::new(),
                views: vec![vs],
                view_starts: vec![0],
                blocks: 0,
                stability: Vec::new(),
            });
            sim.apply(r, init);
        }
        Ok(sim)
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Turns on the flight recorder with a ring of `capacity` events.
    ///
    /// Subsequent casts, sends, packets, timers, deliveries, bypass
    /// outcomes and view changes are traced with virtual-time stamps and
    /// drained via [`Simulation::drain_trace`]; cast→deliver virtual
    /// latency accumulates into [`Simulation::cast_latency`].
    pub fn enable_obs(&mut self, capacity: usize) {
        let recorder = Recorder::new(1, capacity);
        let n = self.procs.len();
        for p in &mut self.procs {
            p.core.set_tracing(true);
        }
        let names = self.procs.iter().map(|p| p.core.layer_names());
        self.obs = Some(SimObs {
            wire: recorder.register("wire"),
            tags: names.map(|n| LayerTags::new(n, &recorder)).collect(),
            recorder,
            buf: Vec::new(),
            cast_latency: Histogram::new(),
            cast_times: vec![Vec::new(); n],
            delivered: vec![vec![0; n]; n],
        });
    }

    /// Drains all trace events recorded since the last drain (empty when
    /// observability is off).
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        self.obs
            .as_ref()
            .map_or_else(Vec::new, |o| o.recorder.drain())
    }

    /// Virtual cast→deliver latency so far (all zero when off).
    pub fn cast_latency(&self) -> Summary {
        self.obs
            .as_ref()
            .map_or_else(|| Histogram::new().summary(), |o| o.cast_latency.summary())
    }

    /// Replaces the fault plan (clean until first set).
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plane.set_plan(plan);
    }

    /// Faults injected so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.plane.counts()
    }

    /// Immediately partitions the listed endpoint ids into disjoint
    /// components (see [`PartitionOp::Split`]).
    pub fn split(&mut self, groups: Vec<Vec<u32>>) {
        self.plane.apply(&PartitionOp::Split(groups));
    }

    /// Immediately removes the component map.
    pub fn heal(&mut self) {
        self.plane.apply(&PartitionOp::Heal);
    }

    /// Immediately installs a one-way drop from `from` to `to`.
    pub fn drop_link(&mut self, from: u32, to: u32) {
        self.plane.apply(&PartitionOp::DropLink { from, to });
    }

    /// Immediately removes a one-way drop.
    pub fn restore_link(&mut self, from: u32, to: u32) {
        self.plane.apply(&PartitionOp::RestoreLink { from, to });
    }

    /// Arms `script` relative to the current virtual time, replacing any
    /// previously armed schedule. Each step takes effect at exactly its
    /// offset.
    pub fn run_script(&mut self, script: PartitionScript) {
        self.plane.arm(self.now.nanos(), script);
        self.plane.advance(self.now.nanos());
    }

    /// Injects an application cast at the process with endpoint id `id`.
    /// A cast issued while the stack is blocked (flush window) is parked
    /// and replayed once, in order, in the next view.
    pub fn cast(&mut self, id: u32, payload: &[u8]) {
        if let (Some(o), true) = (&mut self.obs, self.procs[id as usize].live()) {
            o.cast_times[id as usize].push(self.now);
        }
        self.drive(id as usize, |core, now| core.cast(now, payload));
    }

    /// Injects a point-to-point send from `id` to endpoint id `dst`
    /// (parked during a flush window, like [`Simulation::cast`]).
    pub fn send(&mut self, id: u32, dst: u32, payload: &[u8]) {
        let Some(dst) = self.current_view(id).rank_of(Endpoint::new(dst)) else {
            return; // Destination not in the sender's view.
        };
        self.drive(id as usize, |core, now| core.send(now, dst, payload));
    }

    /// Asks process `id` to declare `suspects` (by endpoint id) failed.
    pub fn suspect(&mut self, id: u32, suspects: &[u32]) {
        let vs = self.current_view(id);
        let ranks: Vec<Rank> = suspects
            .iter()
            .filter_map(|s| vs.rank_of(Endpoint::new(*s)))
            .collect();
        self.drive(id as usize, |core, now| core.suspect(now, ranks));
    }

    /// Asks process `id`'s stack to admit `members` (partition healing):
    /// `gmp` flushes the current view and announces the grown view.
    pub fn merge(&mut self, id: u32, members: &[Endpoint]) {
        self.drive(id as usize, |core, now| core.merge(now, members.to_vec()));
    }

    /// Stalls or unstalls process `id` (the quorum stall a minority
    /// partition enters; see `GroupCore::set_stalled`).
    pub fn set_stalled(&mut self, id: u32, on: bool) {
        self.drive(id as usize, |core, now| core.set_stalled(now, on));
    }

    /// Hands process `id` a view from outside its stack (a merge grant);
    /// only a strictly newer view is accepted.
    pub fn install_external_view(&mut self, id: u32, vs: ViewState) {
        self.drive(id as usize, |core, now| core.install_external_view(now, vs));
    }

    /// Crashes the process with endpoint id `id` (it stops processing).
    pub fn kill(&mut self, id: u32) {
        self.procs[id as usize].alive = false;
    }

    /// Gracefully leaves the group: the stack tears down (emitting
    /// `Exit`), and the remaining members detect the silence and exclude
    /// the leaver exactly as for a crash (Ensemble's Leave is likewise a
    /// self-initiated departure that the view change makes official).
    pub fn leave(&mut self, id: u32) {
        self.drive(id as usize, |core, now| core.leave(now));
    }

    /// Whether the process's stack has exited (left or was excluded).
    pub fn has_exited(&self, id: u32) -> bool {
        !self.procs[id as usize].core.alive()
    }

    /// Synthesizes and installs the MACH bypass at process `id` for its
    /// current view (dropped again when the next view installs).
    pub fn install_bypass(&mut self, id: u32) -> Result<(), BypassError> {
        self.procs[id as usize].core.install_bypass()
    }

    /// Removes process `id`'s bypass; its traffic takes the engine.
    pub fn drop_bypass(&mut self, id: u32) {
        self.procs[id as usize].core.drop_bypass();
    }

    /// Takes and resets process `id`'s bypass `(hits, misses)` counts.
    pub fn take_bypass_delta(&mut self, id: u32) -> (u64, u64) {
        self.procs[id as usize].core.take_bypass_delta()
    }

    /// Feeds one input to process `idx`'s core at the current virtual
    /// time and applies the actions it answers with.
    fn drive(&mut self, idx: usize, input: impl FnOnce(&mut GroupCore, Time) -> Vec<Action>) {
        let p = &mut self.procs[idx];
        if !p.alive {
            return;
        }
        let actions = input(&mut p.core, self.now);
        if let Some(o) = &mut self.obs {
            o.tags[idx].fold(&mut p.core, &o.recorder, 0, &mut o.buf);
        }
        self.apply(idx, actions);
    }

    /// Turns process `idx`'s actions into network transmissions, queued
    /// timers and recorded deliveries.
    fn apply(&mut self, idx: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Transmit(pkt) => {
                    if let Some(o) = &self.obs {
                        o.wire(self.now, EventKind::PacketOut, pkt.src, pkt.size());
                    }
                    self.transmit(pkt);
                }
                Action::Timer {
                    layer,
                    deadline,
                    generation,
                } => self.queue.push(
                    deadline,
                    SimEvent::Timer {
                        idx,
                        layer,
                        generation,
                    },
                ),
                Action::Deliver(d) => self.record(idx, d),
            }
        }
    }

    /// Puts one copy per addressed process to the fault plane (processes
    /// in id order, so the dice fall the same way on every run) and
    /// schedules the survivors' arrivals.
    fn transmit(&mut self, packet: Packet) {
        let src = packet.src.id();
        for idx in 0..self.procs.len() {
            let ep = self.procs[idx].core.endpoint();
            let addressed = match packet.dst {
                Dest::Cast => ep != packet.src,
                Dest::Point(dst) => ep == dst,
            };
            if !addressed {
                continue;
            }
            let (copies, delay) = match self.plane.fate(src, ep.id()) {
                Fate::Drop => continue,
                Fate::Once => (1, self.latency),
                Fate::Twice => (2, self.latency),
                Fate::Late => (1, self.latency.scaled(2)),
            };
            for _ in 0..copies {
                let packet = packet.clone();
                let arrival = SimEvent::Arrival { idx, src, packet };
                self.queue.push(self.now + delay, arrival);
            }
        }
    }

    /// Logs one application-visible event at process `idx`.
    fn record(&mut self, idx: usize, d: Delivery) {
        let p = &mut self.procs[idx];
        match d {
            Delivery::Cast { origin, bytes } => {
                if let Some(o) = &mut self.obs {
                    // The k-th cast delivered here from `origin` is the
                    // k-th cast `origin` injected (FIFO per origin).
                    let k = &mut o.delivered[idx][origin as usize];
                    if let Some(at) = o.cast_times[origin as usize].get(*k) {
                        o.cast_latency.record(self.now.since(*at).nanos());
                    }
                    *k += 1;
                }
                p.casts.push((origin, bytes));
            }
            Delivery::Send { origin, bytes } => p.sends.push((origin, bytes)),
            Delivery::View(vs) => {
                p.view_starts.push(p.casts.len());
                p.views.push(vs);
            }
            Delivery::Block => p.blocks += 1,
            Delivery::Stable(v) => p.stability = v,
            Delivery::Exit => {}
        }
    }

    /// Schedules a protocol-stack switch: every process adopts `names`
    /// when it installs its next view (all members install the same
    /// view, so they switch together — no mixed-stack window).
    ///
    /// # Panics
    ///
    /// Panics if the stack fails the configuration check, so an unsound
    /// switch cannot be scheduled.
    pub fn switch_stack_on_next_view(&mut self, names: &[&'static str]) {
        for p in &mut self.procs {
            p.core
                .switch_stack_on_next_view(names)
                .expect("switch target must be sound");
        }
    }

    /// The stack the group is running (top first): that of the first
    /// live process, since each process switches as it installs the view.
    pub fn stack_names(&self) -> &[&'static str] {
        let live = self.procs.iter().find(|p| p.live());
        live.unwrap_or(&self.procs[0]).core.layer_names()
    }

    /// Moves the virtual clock (never backwards) and lets the armed
    /// partition script catch up with it.
    fn advance_to(&mut self, t: Time) {
        self.now = self.now.max(t);
        self.plane.advance(self.now.nanos());
    }

    /// Processes a single queued event; returns `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        self.advance_to(at);
        self.steps += 1;
        match ev {
            SimEvent::Arrival { idx, src, packet } => {
                let dst = self.procs[idx].core.endpoint();
                // A split that landed while the copy was in flight.
                if self.plane.link_blocked(src, dst.id()) {
                    return true;
                }
                if let (Some(o), true) = (&self.obs, self.procs[idx].live()) {
                    o.wire(self.now, EventKind::PacketIn, dst, packet.size());
                }
                self.drive(idx, |core, now| core.deliver_packet(now, packet));
            }
            SimEvent::Timer {
                idx,
                layer,
                generation,
            } => self.drive(idx, |core, now| core.fire_timer(now, layer, generation)),
        }
        true
    }

    /// Runs until the event queue is empty (bounded by `max_steps`).
    ///
    /// Note: stacks with periodic timers (suspect, stable) never quiesce;
    /// use [`Simulation::run_for`] for those.
    pub fn run_to_quiescence(&mut self) -> u64 {
        let mut n = 0;
        while n < 1_000_000 && self.step() {
            n += 1;
        }
        n
    }

    /// Runs until virtual time `deadline` (events after it stay queued).
    pub fn run_until(&mut self, deadline: Time) {
        let mut guard = 0u64;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
            guard += 1;
            assert!(guard < 10_000_000, "simulation runaway");
        }
        self.advance_to(deadline);
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Cast deliveries at process `id`, as `(origin endpoint id, bytes)`.
    pub fn cast_deliveries(&self, id: u32) -> Vec<(u32, Vec<u8>)> {
        self.procs[id as usize].casts.clone()
    }

    /// The cast deliveries at process `id` made while `views(id)[k]` was
    /// its current view — what virtual synchrony requires the survivors
    /// of a view to agree on.
    pub fn casts_in_view(&self, id: u32, k: usize) -> &[(u32, Vec<u8>)] {
        let p = &self.procs[id as usize];
        let end = p.view_starts.get(k + 1).copied().unwrap_or(p.casts.len());
        &p.casts[p.view_starts[k]..end]
    }

    /// Point-to-point deliveries at process `id`.
    pub fn send_deliveries(&self, id: u32) -> Vec<(u32, Vec<u8>)> {
        self.procs[id as usize].sends.clone()
    }

    /// Views installed at process `id` (including the initial view).
    pub fn views(&self, id: u32) -> &[ViewState] {
        &self.procs[id as usize].views
    }

    /// The current view at process `id`.
    pub fn current_view(&self, id: u32) -> &ViewState {
        self.procs[id as usize].core.view()
    }

    /// Whether the process is alive (not killed, not exited).
    pub fn is_alive(&self, id: u32) -> bool {
        self.procs[id as usize].live()
    }

    /// Block notifications seen at process `id`.
    pub fn blocks(&self, id: u32) -> u64 {
        self.procs[id as usize].blocks
    }

    /// The last stability vector the application saw at `id`.
    pub fn stability(&self, id: u32) -> &[u64] {
        &self.procs[id as usize].stability
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_layers::{STACK_10, STACK_4};

    fn sim(n: usize, stack: &[&'static str], kind: EngineKind) -> Simulation {
        Simulation::new(n, stack, kind, LayerConfig::fast(), VIA_LATENCY, 7).unwrap()
    }

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time(10), 1);
        q.push(Time(2), 2);
        q.push(Time(7), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn queue_is_fifo_at_the_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time(1), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn queue_peek_time_is_the_earliest_pending() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time(4), ());
        q.push(Time(3), ());
        assert_eq!(q.peek_time(), Some(Time(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Time(4)));
    }

    #[test]
    fn queue_interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time(5), 'a');
        q.push(Time(1), 'b');
        assert_eq!(q.pop(), Some((Time(1), 'b')));
        q.push(Time(3), 'c');
        q.push(Time(5), 'd');
        assert_eq!(q.pop(), Some((Time(3), 'c')));
        assert_eq!(q.pop(), Some((Time(5), 'a')));
        assert_eq!(q.pop(), Some((Time(5), 'd')));
    }

    /// Pops everything queued and returns the packet arrivals as
    /// `(time, process index, first byte)`, in pop order.
    fn drain_arrivals(s: &mut Simulation) -> Vec<(Time, usize, u8)> {
        let mut out = Vec::new();
        while let Some((at, ev)) = s.queue.pop() {
            if let SimEvent::Arrival { idx, packet, .. } = ev {
                out.push((at, idx, packet.bytes[0]));
            }
        }
        out
    }

    #[test]
    fn cast_fans_out_to_everyone_else_and_point_to_its_target_only() {
        let mut s = sim(4, STACK_4, EngineKind::Imp);
        s.transmit(Packet::cast(Endpoint::new(1), vec![9]));
        s.transmit(Packet::point(Endpoint::new(0), Endpoint::new(2), vec![8]));
        let at = Time::ZERO + VIA_LATENCY;
        assert_eq!(
            drain_arrivals(&mut s),
            vec![(at, 0, 9), (at, 2, 9), (at, 3, 9), (at, 2, 8)]
        );
    }

    #[test]
    fn clean_link_is_fifo_and_a_late_copy_is_overtaken_by_the_next_send() {
        let mut s = sim(2, STACK_4, EngineKind::Imp);
        let point = |b: u8| Packet::point(Endpoint::new(0), Endpoint::new(1), vec![b]);
        // Clean plan, constant latency: arrival order is send order.
        s.transmit(point(1));
        s.advance_to(Time(5));
        s.transmit(point(2));
        // A late copy takes two latencies; a send less than one latency
        // after it gets there first.
        s.set_plan(FaultPlan::lossy(0.0, 0.0, 1.0));
        s.transmit(point(3));
        s.set_plan(FaultPlan::clean());
        s.advance_to(Time(3_000));
        s.transmit(point(4));
        assert_eq!(
            drain_arrivals(&mut s),
            vec![
                (Time(10_000), 1, 1),
                (Time(10_005), 1, 2),
                (Time(13_000), 1, 4),
                (Time(20_005), 1, 3)
            ]
        );
        assert_eq!(s.fault_counts().reordered, 1);
    }

    #[test]
    fn a_copy_in_flight_when_a_split_lands_is_dropped_on_arrival() {
        // The virtual-time twin of the hub's
        // `holdback_does_not_leak_across_a_later_split`.
        let mut s = sim(2, STACK_4, EngineKind::Imp);
        s.send(0, 1, b"in flight");
        s.split(vec![vec![0], vec![1]]);
        s.run_for(VIA_LATENCY);
        assert!(
            s.send_deliveries(1).is_empty(),
            "arrival re-checks the matrix"
        );
        assert_eq!(s.fault_counts().partition_drops, 1);
        // It was the network, not the stack: once healed, `pt2pt`'s
        // retransmission gets the message through.
        s.heal();
        s.run_for(Duration::from_millis(100));
        assert_eq!(s.send_deliveries(1), vec![(0, b"in flight".to_vec())]);
    }

    #[test]
    fn script_steps_take_effect_at_their_virtual_offsets() {
        let mut s = sim(2, STACK_4, EngineKind::Imp);
        s.run_for(Duration::from_millis(1));
        s.run_script(
            PartitionScript::new()
                .at(0, PartitionOp::DropLink { from: 0, to: 1 })
                .at(2_000_000, PartitionOp::RestoreLink { from: 0, to: 1 }),
        );
        s.transmit(Packet::point(Endpoint::new(0), Endpoint::new(1), vec![1]));
        assert_eq!(s.fault_counts().link_drops, 1, "offset 0 applies at once");
        s.run_for(Duration::from_micros(1_999));
        s.transmit(Packet::point(Endpoint::new(0), Endpoint::new(1), vec![2]));
        assert_eq!(s.fault_counts().link_drops, 2, "still dead just before");
        s.run_for(Duration::from_micros(1));
        s.transmit(Packet::point(Endpoint::new(0), Endpoint::new(1), vec![3]));
        assert_eq!(s.fault_counts().link_drops, 2, "restored on the dot");
    }

    #[test]
    fn four_layer_cast_reaches_group() {
        let mut s = sim(3, STACK_4, EngineKind::Imp);
        s.cast(1, b"m");
        s.run_to_quiescence();
        // STACK_4 has no `local`, so only the others deliver.
        assert_eq!(s.cast_deliveries(0), vec![(1, b"m".to_vec())]);
        assert_eq!(s.cast_deliveries(2), vec![(1, b"m".to_vec())]);
    }

    #[test]
    fn ten_layer_cast_includes_self_delivery() {
        let mut s = sim(3, STACK_10, EngineKind::Imp);
        s.cast(0, b"hello");
        s.run_to_quiescence();
        for r in 0..3 {
            assert_eq!(
                s.cast_deliveries(r),
                vec![(0, b"hello".to_vec())],
                "rank {r}"
            );
        }
    }

    #[test]
    fn sends_are_delivered_point_to_point() {
        let mut s = sim(3, STACK_4, EngineKind::Func);
        s.send(0, 2, b"direct");
        s.run_to_quiescence();
        assert_eq!(s.send_deliveries(2), vec![(0, b"direct".to_vec())]);
        assert!(s.send_deliveries(1).is_empty());
    }

    #[test]
    fn imp_and_func_agree_end_to_end() {
        let mut a = sim(3, STACK_10, EngineKind::Imp);
        let mut b = sim(3, STACK_10, EngineKind::Func);
        for s in [&mut a, &mut b] {
            s.cast(0, b"x");
            s.cast(1, b"y");
            s.cast(2, b"z");
            s.run_to_quiescence();
        }
        for r in 0..3 {
            assert_eq!(a.cast_deliveries(r), b.cast_deliveries(r), "rank {r}");
        }
    }

    #[test]
    fn total_order_holds_across_members() {
        let mut s = sim(3, STACK_10, EngineKind::Imp);
        for i in 0..5u8 {
            s.cast(1, &[10 + i]);
            s.cast(2, &[20 + i]);
        }
        s.run_to_quiescence();
        let d0 = s.cast_deliveries(0);
        assert_eq!(d0.len(), 10);
        for r in 1..3 {
            assert_eq!(s.cast_deliveries(r), d0, "agreement at rank {r}");
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let run = || {
            let mut s = sim(3, STACK_10, EngineKind::Imp);
            s.cast(0, b"a");
            s.cast(1, b"b");
            s.run_to_quiescence();
            (s.cast_deliveries(2), s.steps)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn same_seed_replays_the_trace_exactly() {
        // The trace is the cores' own events now; the promise is still
        // bit-for-bit replay from the seed, faults included.
        let run = |seed: u64| {
            let (kind, cfg) = (EngineKind::Imp, LayerConfig::fast());
            let mut s = Simulation::new(3, STACK_10, kind, cfg, ETHERNET_LATENCY, seed).unwrap();
            s.set_plan(FaultPlan::lossy(0.05, 0.02, 0.1));
            s.enable_obs(1 << 16);
            for i in 0..20u8 {
                s.cast(u32::from(i % 3), &[i]);
                s.run_for(Duration::from_micros(200));
            }
            s.run_for(Duration::from_millis(50));
            assert_eq!(s.cast_deliveries(0).len(), 20, "loss is recovered");
            (s.drain_trace(), s.steps)
        };
        let (trace, steps) = run(11);
        assert!(trace.len() > 200, "a real trace: {} events", trace.len());
        assert_eq!((trace.clone(), steps), run(11), "same seed, same run");
        let (other, _) = run(12);
        assert_ne!(trace, other, "the fault schedule follows the seed");
    }

    #[test]
    fn obs_traces_virtual_time_and_cast_latency() {
        let mut s = sim(3, STACK_4, EngineKind::Imp);
        s.enable_obs(4096);
        s.cast(1, b"m");
        s.cast(2, b"nn");
        s.run_to_quiescence();

        let events = s.drain_trace();
        assert!(!events.is_empty());
        // Stamps are virtual: monotone within the drain and bounded by
        // the simulation clock.
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert!(events.iter().all(|e| e.t_ns <= s.now().nanos()));
        let count = |k| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(ensemble_obs::EventKind::Cast), 2);
        // Each cast reaches the other two members (STACK_4: no local).
        assert_eq!(count(ensemble_obs::EventKind::Deliver), 4);
        assert!(count(ensemble_obs::EventKind::PacketOut) >= 2);
        assert!(count(ensemble_obs::EventKind::PacketIn) >= 4);
        // Layer names resolve (wire/app pseudo-layers at least).
        assert!(events.iter().any(|e| e.layer == "app"));
        assert!(events.iter().any(|e| e.layer == "wire"));

        // Four deliveries → four virtual latency samples, all nonzero
        // (the link model imposes real virtual delay).
        let lat = s.cast_latency();
        assert_eq!(lat.count, 4);
        assert!(lat.p99 > 0, "virtual latency must be nonzero: {lat:?}");

        // The drain is destructive; a quiet sim drains nothing new.
        assert!(s.drain_trace().is_empty());
    }

    #[test]
    fn obs_attributes_timer_fires_to_stack_layers() {
        let mut s = sim(2, STACK_10, EngineKind::Imp);
        s.enable_obs(8192);
        s.cast(0, b"x");
        s.run_for(ensemble_util::Duration::from_millis(50));
        let events = s.drain_trace();
        let fired: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == ensemble_obs::EventKind::TimerFire)
            .map(|e| e.layer)
            .collect();
        assert!(!fired.is_empty(), "periodic layers must fire timers");
        assert!(
            fired.iter().all(|l| STACK_10.contains(l)),
            "timer fires carry stack layer names, got {fired:?}"
        );
    }

    #[test]
    fn disabled_obs_traces_nothing() {
        let mut s = sim(3, STACK_4, EngineKind::Imp);
        s.cast(0, b"m");
        s.run_to_quiescence();
        assert!(s.drain_trace().is_empty());
        assert_eq!(s.cast_latency().count, 0);
    }

    #[test]
    fn killed_process_stops_delivering() {
        let mut s = sim(3, STACK_4, EngineKind::Imp);
        s.kill(2);
        s.cast(0, b"m");
        s.run_to_quiescence();
        assert!(s.cast_deliveries(2).is_empty());
        assert!(!s.is_alive(2));
        assert_eq!(s.cast_deliveries(1).len(), 1);
    }
}
