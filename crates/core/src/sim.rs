//! Multi-process deterministic simulation: the virtual-time shell.
//!
//! The protocol state machine is [`GroupCore`] — the same pure
//! `(now, input) → Vec<Action>` machine the wall-clock runtime drives.
//! There is one state machine and two shells around it:
//! `ensemble_runtime`'s shard worker (wall clock and `Transport`) and this
//! module (virtual clock and [`LinkModel`]). Each simulated process is one
//! `GroupCore`; the shell owns only what virtual time needs: the simulated
//! network ([`ensemble_net`]), one event queue interleaving packet
//! arrivals and timers, the crash flag, the delivery logs, and
//! virtual-time observability. Everything a process *does* — marshaling,
//! the bypass, parking application traffic during a flush window,
//! rebuilding the stack per view, switching stacks at a view boundary —
//! is `GroupCore`'s. Runs are reproducible bit-for-bit from the seed.

use ensemble_event::ViewState;
use ensemble_layers::{LayerConfig, StackError};
use ensemble_net::{Arrival, EventQueue, LinkModel, NetStats, Network};
use ensemble_obs::{CcpFailure, Direction, Event, EventKind, Histogram, Recorder, Summary, Tag};
use ensemble_runtime::{Action, CoreEvent, Delivery, GroupCore, LayerTags};
use ensemble_util::{Duration, Endpoint, Rank, Time};

pub use ensemble_obs::TraceEvent;
pub use ensemble_runtime::BypassError;
pub use ensemble_stack::EngineKind;

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
    Arrival(Arrival),
    Timer {
        idx: usize,
        layer: usize,
        generation: u64,
    },
}

/// The multi-process simulation harness.
pub struct Simulation<M> {
    procs: Vec<Proc>,
    net: Network<M>,
    queue: EventQueue<SimEvent>,
    now: Time,
    /// Total events processed (observability).
    pub steps: u64,
    obs: Option<SimObs>,
}

impl<M: LinkModel> Simulation<M> {
    /// Builds `n` processes running `stack` over `model`.
    pub fn new(
        n: usize,
        stack: &[&'static str],
        kind: EngineKind,
        cfg: LayerConfig,
        model: M,
        seed: u64,
    ) -> Result<Self, StackError> {
        let base = ViewState::initial(n);
        let mut sim = Simulation {
            procs: Vec::new(),
            net: Network::new(base.members.clone(), model, seed),
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

    /// Network statistics so far.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Mutable access to the link model (partitions, loss changes …).
    pub fn model_mut(&mut self) -> &mut M {
        self.net.model_mut()
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
                    for a in self.net.transmit(self.now, pkt) {
                        self.queue.push(a.at, SimEvent::Arrival(a));
                    }
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
            Delivery::View(vs) => p.views.push(vs),
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

    /// Processes a single queued event; returns `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(at);
        self.steps += 1;
        match ev {
            SimEvent::Arrival(a) => {
                let at_dst = |p: &Proc| p.core.endpoint() == a.dst;
                let Some(idx) = self.procs.iter().position(at_dst) else {
                    return true;
                };
                if let (Some(o), true) = (&self.obs, self.procs[idx].live()) {
                    o.wire(self.now, EventKind::PacketIn, a.dst, a.packet.size());
                }
                self.drive(idx, |core, now| core.deliver_packet(now, a.packet));
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
        self.now = self.now.max(deadline);
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
    use ensemble_net::PerfectModel;

    fn sim(n: usize, stack: &[&'static str], kind: EngineKind) -> Simulation<PerfectModel> {
        Simulation::new(n, stack, kind, LayerConfig::fast(), PerfectModel::via(), 7).unwrap()
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
            let model = ensemble_net::LossyModel::default_hostile();
            let mut s = Simulation::new(3, STACK_10, kind, cfg, model, seed).unwrap();
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
