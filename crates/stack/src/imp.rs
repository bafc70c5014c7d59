//! The imperative (IMP) engine: a central event scheduler.
//!
//! §4.2: "Ensemble has a central event scheduler. It instantiates each
//! protocol layer individually, and hands events to the layers as they
//! come out of the scheduler." Events live in one reusable deque; layer
//! outputs are collected in one reusable [`Effects`], drained in place
//! and enqueued with their destination layer index. Once both have grown,
//! a boundary crossing allocates nothing of the engine's own — this is
//! what makes IMP measurably faster than FUNC in Table 1. The
//! [`Boundary`] each `inject_*` returns is filled into the one its caller
//! last handed back ([`Engine::recycle_boundary`]), so a caller that
//! hands them back allocates none either. (What a layer allocates inside
//! its handler is not the engine's.)

use crate::engine::{Boundary, Engine};
use ensemble_event::{DnEvent, Effects, UpEvent};
use ensemble_layers::Layer;
use ensemble_util::Time;
use std::collections::VecDeque;

enum Item {
    /// Deliver as an up event to layer `idx`.
    Up(usize, UpEvent),
    /// Deliver as a down event to layer `idx`.
    Dn(usize, DnEvent),
}

/// The central-scheduler engine.
pub struct ImpEngine {
    layers: Vec<Box<dyn Layer>>,
    queue: VecDeque<Item>,
    fx: Effects,
    /// The boundary last handed back, emptied: the next call fills it.
    spare: Boundary,
}

impl ImpEngine {
    /// Wraps a stack (top first).
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "cannot run an empty stack");
        ImpEngine {
            layers,
            queue: VecDeque::with_capacity(64),
            fx: Effects::new(),
            spare: Boundary::default(),
        }
    }

    /// The layer names, top first.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Routes what layer `idx`'s handler left in `fx`, leaving it empty.
    fn route_effects(&mut self, idx: usize, out: &mut Boundary) {
        out.timers.extend(self.fx.drain_timers().map(|t| (idx, t)));
        for ev in self.fx.drain_up() {
            if idx == 0 {
                out.app.push(ev);
            } else {
                self.queue.push_back(Item::Up(idx - 1, ev));
            }
        }
        for ev in self.fx.drain_dn() {
            if idx + 1 == self.layers.len() {
                out.wire.push(ev);
            } else {
                self.queue.push_back(Item::Dn(idx + 1, ev));
            }
        }
    }

    /// Runs the queue to quiescence, adding what crosses to `out`.
    fn run(&mut self, now: Time, out: &mut Boundary) {
        while let Some(item) = self.queue.pop_front() {
            match item {
                Item::Up(idx, ev) => {
                    self.layers[idx].up(now, ev, &mut self.fx);
                    self.route_effects(idx, out);
                }
                Item::Dn(idx, ev) => {
                    self.layers[idx].dn(now, ev, &mut self.fx);
                    self.route_effects(idx, out);
                }
            }
        }
    }
}

impl Engine for ImpEngine {
    fn layer_count(&self) -> usize {
        self.layers.len()
    }

    fn inject_dn(&mut self, now: Time, ev: DnEvent) -> Boundary {
        self.queue.push_back(Item::Dn(0, ev));
        let mut out = std::mem::take(&mut self.spare);
        self.run(now, &mut out);
        out
    }

    fn inject_up(&mut self, now: Time, ev: UpEvent) -> Boundary {
        self.queue.push_back(Item::Up(self.layers.len() - 1, ev));
        let mut out = std::mem::take(&mut self.spare);
        self.run(now, &mut out);
        out
    }

    fn fire_timer(&mut self, now: Time, layer: usize) -> Boundary {
        let mut out = std::mem::take(&mut self.spare);
        self.layers[layer].timer(now, &mut self.fx);
        self.route_effects(layer, &mut out);
        self.run(now, &mut out);
        out
    }

    fn init(&mut self, now: Time) -> Boundary {
        let mut out = std::mem::take(&mut self.spare);
        for idx in 0..self.layers.len() {
            self.layers[idx].init(now, &mut self.fx);
            self.route_effects(idx, &mut out);
        }
        self.run(now, &mut out);
        out
    }

    fn recycle_boundary(&mut self, mut boundary: Boundary) {
        boundary.clear();
        self.spare = boundary;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_event::{Msg, Payload, ViewState};
    use ensemble_layers::{make_stack, LayerConfig, STACK_4};

    fn engine() -> ImpEngine {
        let vs = ViewState::initial(3);
        let layers = make_stack(STACK_4, &vs, &LayerConfig::default()).unwrap();
        let mut e = ImpEngine::new(layers);
        e.init(Time::ZERO);
        e
    }

    #[test]
    fn cast_exits_the_bottom_framed() {
        let mut e = engine();
        let out = e.inject_dn(
            Time::ZERO,
            DnEvent::Cast(Msg::data(Payload::from_slice(b"hello"))),
        );
        assert_eq!(out.wire.len(), 1);
        assert!(out.app.is_empty());
        let msg = out.wire[0].msg().unwrap();
        // pt2pt, mnak, bottom each pushed one frame (`top` is the
        // application adapter and adds none).
        assert_eq!(msg.depth(), 3);
    }

    #[test]
    fn wire_cast_delivers_at_the_top() {
        let vs = ViewState::initial(3);
        // Build a sender at rank 1 and a receiver at rank 0.
        let mut sender = ImpEngine::new(
            make_stack(
                STACK_4,
                &vs.for_rank(ensemble_util::Rank(1)),
                &LayerConfig::default(),
            )
            .unwrap(),
        );
        sender.init(Time::ZERO);
        let mut receiver = engine();
        let out = sender.inject_dn(
            Time::ZERO,
            DnEvent::Cast(Msg::data(Payload::from_slice(b"hi"))),
        );
        let msg = out.wire[0].msg().unwrap().clone();
        let out = receiver.inject_up(
            Time::ZERO,
            UpEvent::Cast {
                origin: ensemble_util::Rank(1),
                msg,
            },
        );
        assert_eq!(out.app.len(), 1);
        assert_eq!(out.app[0].msg().unwrap().payload().gather(), b"hi");
    }

    #[test]
    fn send_roundtrip_produces_ack_on_wire() {
        let vs = ViewState::initial(3);
        let mut a = engine();
        let mut b = ImpEngine::new(
            make_stack(
                STACK_4,
                &vs.for_rank(ensemble_util::Rank(1)),
                &LayerConfig::default(),
            )
            .unwrap(),
        );
        b.init(Time::ZERO);
        let out = a.inject_dn(
            Time::ZERO,
            DnEvent::Send {
                dst: ensemble_util::Rank(1),
                msg: Msg::data(Payload::from_slice(b"req")),
            },
        );
        assert_eq!(out.wire.len(), 1);
        assert!(!out.timers.is_empty(), "pt2pt armed its retransmit timer");
        let msg = out.wire[0].msg().unwrap().clone();
        let out = b.inject_up(
            Time::ZERO,
            UpEvent::Send {
                origin: ensemble_util::Rank(0),
                msg,
            },
        );
        assert_eq!(out.app.len(), 1, "delivered");
        assert_eq!(out.wire.len(), 1, "explicit ack flows back");
    }

    #[test]
    fn timer_fires_retransmission() {
        let mut e = engine();
        let out = e.inject_dn(
            Time::ZERO,
            DnEvent::Send {
                dst: ensemble_util::Rank(1),
                msg: Msg::data(Payload::from_slice(b"x")),
            },
        );
        let (layer, deadline) = out.timers[0];
        let out = e.fire_timer(deadline, layer);
        assert_eq!(out.wire.len(), 1, "retransmitted through lower layers");
        assert!(!out.timers.is_empty(), "re-armed");
    }

    #[test]
    fn a_handed_back_boundary_is_refilled() {
        let mut e = engine();
        let cast = |e: &mut ImpEngine| {
            e.inject_dn(
                Time::ZERO,
                DnEvent::Cast(Msg::data(Payload::from_slice(b"x"))),
            )
        };
        let first = cast(&mut e);
        let wire = first.wire.as_ptr();
        e.recycle_boundary(first);
        let second = cast(&mut e);
        assert_eq!(second.wire.as_ptr(), wire, "the wire vector was reused");
        assert_eq!(second.wire.len(), 1, "and holds only the second cast");
    }

    #[test]
    fn layer_names_reported() {
        let e = engine();
        assert_eq!(e.layer_names(), vec!["top", "pt2pt", "mnak", "bottom"]);
        assert_eq!(e.layer_count(), 4);
    }
}
