//! A single-layer test driver.
//!
//! Unit tests for each layer drive events through one layer instance in
//! isolation and assert on the emitted effects. The harness also tracks
//! requested timers so tests can fire them deterministically.
//!
//! With [`Harness::trace_into`], every handler invocation additionally
//! records a [`ensemble_obs::EventKind::HandlerRun`] span into a flight
//! recorder ring through its writer: the event is stamped with the harness's *virtual*
//! time, attributed to the layer by its [`Layer::name`], and carries the
//! wall-clock handler duration in `aux` (nanoseconds).

use crate::layer::Layer;
use ensemble_event::{DnEvent, Effects, Msg, Payload, UpEvent};
use ensemble_obs::{now_ns, Direction, Event, EventKind, RingWriter, Tag};
use ensemble_util::{Rank, Time};

/// Drives one layer instance and records its outputs.
pub struct Harness<L> {
    /// The layer under test.
    pub layer: L,
    /// Current virtual time supplied to handlers.
    pub now: Time,
    /// Timer deadlines the layer has requested (sorted, pending).
    pub timers: Vec<Time>,
    /// When set, handler invocations record spans here.
    obs: Option<(RingWriter, Tag)>,
}

/// The effects of one handler invocation, split by direction.
#[derive(Debug, Default)]
pub struct Out {
    /// Events emitted towards the application.
    pub up: Vec<UpEvent>,
    /// Events emitted towards the network.
    pub dn: Vec<DnEvent>,
}

impl<L: Layer> Harness<L> {
    /// Wraps `layer`, invoking its `init` hook.
    pub fn new(mut layer: L) -> Self {
        let mut fx = Effects::new();
        layer.init(Time::ZERO, &mut fx);
        let mut h = Harness {
            layer,
            now: Time::ZERO,
            timers: Vec::new(),
            obs: None,
        };
        h.absorb_timers(&mut fx);
        assert!(
            fx.peek_up().is_empty() && fx.peek_dn().is_empty(),
            "init must not emit events"
        );
        h
    }

    fn absorb_timers(&mut self, fx: &mut Effects) {
        self.timers.extend(fx.take_timers());
        self.timers.sort_unstable();
    }

    fn split(&mut self, mut fx: Effects) -> Out {
        self.absorb_timers(&mut fx);
        Out {
            up: fx.take_up(),
            dn: fx.take_dn(),
        }
    }

    /// Starts recording one [`EventKind::HandlerRun`] span per handler
    /// invocation through `w`, attributed to the layer's name.
    pub fn trace_into(&mut self, w: RingWriter) {
        let tag = w.register(self.layer.name());
        self.obs = Some((w, tag));
    }

    fn span(&mut self, dir: Direction, started_ns: u64) {
        if let Some((w, tag)) = &mut self.obs {
            w.record(&Event {
                t_ns: self.now.0,
                layer: *tag,
                kind: EventKind::HandlerRun,
                dir,
                group: 0,
                seqno: 0,
                ccp: ensemble_obs::CcpFailure::None,
                aux: now_ns().saturating_sub(started_ns),
            });
        }
    }

    /// Sends an event down into the layer (from the layer above).
    pub fn dn(&mut self, ev: DnEvent) -> Out {
        let started = now_ns();
        let mut fx = Effects::new();
        self.layer.dn(self.now, ev, &mut fx);
        self.span(Direction::Dn, started);
        self.split(fx)
    }

    /// Sends an event up into the layer (from the layer below).
    pub fn up(&mut self, ev: UpEvent) -> Out {
        let started = now_ns();
        let mut fx = Effects::new();
        self.layer.up(self.now, ev, &mut fx);
        self.span(Direction::Up, started);
        self.split(fx)
    }

    /// Advances time to `t` and fires every timer due by then.
    pub fn advance(&mut self, t: Time) -> Out {
        self.now = t;
        let mut all = Out::default();
        while let Some(&d) = self.timers.first() {
            if d > t {
                break;
            }
            self.timers.remove(0);
            let started = now_ns();
            let mut fx = Effects::new();
            self.layer.timer(self.now, &mut fx);
            self.span(Direction::None, started);
            let out = self.split(fx);
            all.up.extend(out.up);
            all.dn.extend(out.dn);
        }
        all
    }
}

/// Builds a data-cast down event with the given payload bytes.
pub fn cast(bytes: &[u8]) -> DnEvent {
    DnEvent::Cast(Msg::data(Payload::from_slice(bytes)))
}

/// Builds a point-to-point send down event.
pub fn send(dst: u16, bytes: &[u8]) -> DnEvent {
    DnEvent::Send {
        dst: Rank(dst),
        msg: Msg::data(Payload::from_slice(bytes)),
    }
}

/// Builds an up-going cast delivery carrying `msg` from `origin`.
pub fn up_cast(origin: u16, msg: Msg) -> UpEvent {
    UpEvent::Cast {
        origin: Rank(origin),
        msg,
    }
}

/// Builds an up-going send delivery carrying `msg` from `origin`.
pub fn up_send(origin: u16, msg: Msg) -> UpEvent {
    UpEvent::Send {
        origin: Rank(origin),
        msg,
    }
}

impl Out {
    /// Asserts exactly one down event was emitted and returns it.
    pub fn sole_dn(mut self) -> DnEvent {
        assert_eq!(self.dn.len(), 1, "expected 1 dn event, got {:?}", self.dn);
        assert!(self.up.is_empty(), "unexpected up events: {:?}", self.up);
        self.dn.remove(0)
    }

    /// Asserts exactly one up event was emitted and returns it.
    pub fn sole_up(mut self) -> UpEvent {
        assert_eq!(self.up.len(), 1, "expected 1 up event, got {:?}", self.up);
        assert!(self.dn.is_empty(), "unexpected dn events: {:?}", self.dn);
        self.up.remove(0)
    }

    /// Asserts nothing was emitted.
    pub fn assert_silent(&self) {
        assert!(
            self.up.is_empty() && self.dn.is_empty(),
            "expected silence, got up={:?} dn={:?}",
            self.up,
            self.dn
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom::Bottom;
    use crate::LayerConfig;
    use ensemble_event::ViewState;

    #[test]
    fn traced_harness_records_named_handler_spans() {
        let rec = ensemble_obs::Recorder::new(1, 64);
        let mut h = Harness::new(Bottom::new(&ViewState::initial(3), &LayerConfig::default()));
        h.trace_into(rec.writer(0).unwrap());
        h.now = Time(5);
        let _ = h.dn(cast(b"m"));
        let _ = h.dn(send(2, b"m"));
        let spans = rec.drain();
        assert_eq!(spans.len(), 2);
        for s in &spans {
            assert_eq!(s.layer, "bottom", "span carries the layer's name");
            assert_eq!(s.kind, EventKind::HandlerRun);
            assert_eq!(s.t_ns, 5, "stamped with harness virtual time");
        }
        assert!(
            spans.iter().all(|s| s.dir == Direction::Dn),
            "direction follows the handler"
        );
    }

    #[test]
    fn untraced_harness_records_nothing() {
        let mut h = Harness::new(Bottom::new(&ViewState::initial(3), &LayerConfig::default()));
        let _ = h.dn(cast(b"x"));
        assert!(h.obs.is_none());
    }
}
