//! The output collector handed to layer handlers.
//!
//! A layer handler may emit any number of events upward (towards the
//! application) and downward (towards the network), and may request timer
//! callbacks. The engine drains an [`Effects`] after each handler
//! invocation and routes its contents to the adjacent layers.

use crate::event::{DnEvent, UpEvent};
use ensemble_util::Time;

/// Events and timer requests produced by one handler invocation.
#[derive(Debug, Default)]
pub struct Effects {
    up: Vec<UpEvent>,
    dn: Vec<DnEvent>,
    timers: Vec<Time>,
}

impl Effects {
    /// An empty collector.
    pub fn new() -> Self {
        Effects::default()
    }

    /// Emits an event to the layer above.
    pub fn up(&mut self, ev: UpEvent) {
        self.up.push(ev);
    }

    /// Emits an event to the layer below.
    pub fn dn(&mut self, ev: DnEvent) {
        self.dn.push(ev);
    }

    /// Requests a timer callback at `deadline` for the emitting layer.
    pub fn timer(&mut self, deadline: Time) {
        self.timers.push(deadline);
    }

    /// Whether nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.up.is_empty() && self.dn.is_empty() && self.timers.is_empty()
    }

    /// Drains the up-going events in place. Unlike `take_*`, which hand
    /// the vectors themselves to callers that keep them, the `drain_*`
    /// leave the collector its buffers: an engine that routes through one
    /// `Effects` for its whole life stops allocating once they have grown.
    pub fn drain_up(&mut self) -> std::vec::Drain<'_, UpEvent> {
        self.up.drain(..)
    }

    /// Drains the down-going events in place.
    pub fn drain_dn(&mut self) -> std::vec::Drain<'_, DnEvent> {
        self.dn.drain(..)
    }

    /// Drains the timer requests in place.
    pub fn drain_timers(&mut self) -> std::vec::Drain<'_, Time> {
        self.timers.drain(..)
    }

    /// Drains the up-going events.
    pub fn take_up(&mut self) -> Vec<UpEvent> {
        std::mem::take(&mut self.up)
    }

    /// Drains the down-going events.
    pub fn take_dn(&mut self) -> Vec<DnEvent> {
        std::mem::take(&mut self.dn)
    }

    /// Drains the timer requests.
    pub fn take_timers(&mut self) -> Vec<Time> {
        std::mem::take(&mut self.timers)
    }

    /// Peeks at pending up-going events.
    pub fn peek_up(&self) -> &[UpEvent] {
        &self.up
    }

    /// Peeks at pending down-going events.
    pub fn peek_dn(&self) -> &[DnEvent] {
        &self.dn
    }

    /// Clears everything, keeping the buffers.
    pub fn clear(&mut self) {
        self.up.clear();
        self.dn.clear();
        self.timers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;
    use ensemble_util::Rank;

    #[test]
    fn collects_and_drains() {
        let mut fx = Effects::new();
        assert!(fx.is_empty());
        fx.up(UpEvent::Block);
        fx.dn(DnEvent::BlockOk);
        fx.timer(Time(100));
        assert!(!fx.is_empty());
        assert_eq!(fx.take_up().len(), 1);
        assert_eq!(fx.take_dn().len(), 1);
        assert_eq!(fx.take_timers(), vec![Time(100)]);
        assert!(fx.is_empty());
    }

    #[test]
    fn drain_empties_in_place_and_keeps_the_buffers() {
        let mut fx = Effects::new();
        fx.up(UpEvent::Block);
        fx.dn(DnEvent::BlockOk);
        fx.dn(DnEvent::Leave);
        fx.timer(Time(100));
        let (up_cap, dn_cap) = (fx.up.capacity(), fx.dn.capacity());
        assert_eq!(fx.drain_timers().collect::<Vec<_>>(), vec![Time(100)]);
        assert_eq!(fx.drain_up().count(), 1);
        assert_eq!(
            fx.drain_dn().collect::<Vec<_>>(),
            vec![DnEvent::BlockOk, DnEvent::Leave]
        );
        assert!(fx.is_empty());
        assert_eq!((fx.up.capacity(), fx.dn.capacity()), (up_cap, dn_cap));
    }

    #[test]
    fn peek_preserves() {
        let mut fx = Effects::new();
        fx.up(UpEvent::Cast {
            origin: Rank(0),
            msg: Msg::control(),
        });
        assert_eq!(fx.peek_up().len(), 1);
        assert_eq!(fx.peek_up().len(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut fx = Effects::new();
        fx.dn(DnEvent::Leave);
        fx.timer(Time(1));
        fx.clear();
        assert!(fx.is_empty());
        assert!(fx.peek_dn().is_empty());
    }
}
