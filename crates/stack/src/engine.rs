//! The execution-engine interface shared by the IMP and FUNC compositions.

use ensemble_event::{DnEvent, UpEvent};
use ensemble_layers::Layer;
use ensemble_util::Time;

/// Which composition engine runs a stack.
///
/// Shared by every harness that executes stacks — the deterministic
/// simulator (`ensemble::sim`) and the real-socket runtime
/// (`ensemble-runtime`) — so the two can be swapped without touching
/// application code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Central event scheduler (the paper's imperative configuration).
    Imp,
    /// Recursive functional composition.
    Func,
}

impl EngineKind {
    /// Binds `layers` to this execution strategy.
    pub fn build(self, layers: Vec<Box<dyn Layer>>) -> Box<dyn Engine> {
        match self {
            EngineKind::Imp => Box::new(crate::ImpEngine::new(layers)),
            EngineKind::Func => Box::new(crate::FuncEngine::new(layers)),
        }
    }
}

/// Events that crossed the stack boundary during processing.
#[derive(Debug, Default)]
pub struct Boundary {
    /// Events that exited the top of the stack (application deliveries,
    /// views, blocks, …).
    pub app: Vec<UpEvent>,
    /// Message events that exited the bottom (bound for the transport).
    pub wire: Vec<DnEvent>,
    /// Timer requests: `(layer index, deadline)`.
    pub timers: Vec<(usize, Time)>,
}

impl Boundary {
    /// Merges another boundary's events into this one, preserving order.
    pub fn merge(&mut self, other: Boundary) {
        self.app.extend(other.app);
        self.wire.extend(other.wire);
        self.timers.extend(other.timers);
    }

    /// Empties every vector, keeping its capacity.
    pub fn clear(&mut self) {
        self.app.clear();
        self.wire.clear();
        self.timers.clear();
    }

    /// Whether nothing crossed the boundary.
    pub fn is_empty(&self) -> bool {
        self.app.is_empty() && self.wire.is_empty() && self.timers.is_empty()
    }
}

/// A protocol stack bound to an execution strategy.
///
/// Both engines run events to quiescence: an `inject_*` call returns only
/// when every internally generated event has been consumed or has crossed
/// a boundary.
pub trait Engine {
    /// Number of layers in the stack.
    fn layer_count(&self) -> usize;

    /// Injects an application event at the top (e.g. a cast).
    fn inject_dn(&mut self, now: Time, ev: DnEvent) -> Boundary;

    /// Injects a network event at the bottom (an unmarshaled delivery).
    fn inject_up(&mut self, now: Time, ev: UpEvent) -> Boundary;

    /// Fires a previously requested timer of `layer`.
    fn fire_timer(&mut self, now: Time, layer: usize) -> Boundary;

    /// Runs every layer's `init` hook, collecting initial timers.
    fn init(&mut self, now: Time) -> Boundary;

    /// Takes back a boundary this engine returned, once its caller is
    /// done with it, so the next call can fill its vectors instead of
    /// growing new ones. The default drops it.
    fn recycle_boundary(&mut self, boundary: Boundary) {
        let _ = boundary;
    }
}
