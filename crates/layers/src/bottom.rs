//! `bottom` — the lowest layer, interfacing the stack to the transport.
//!
//! Wraps outgoing messages with a view-stamp so that receivers can discard
//! packets from defunct views, and absorbs non-message control events that
//! reached the bottom of the stack. This mirrors the paper's Bottom layer,
//! whose optimization theorem appears in §4.1.3: a down-going send leaves
//! the state untouched and extends the header with `Full_nohdr(hdr)`.

use crate::config::LayerConfig;
use crate::layer::Layer;
use ensemble_event::{DnEvent, Effects, Frame, UpEvent, ViewState};
use ensemble_util::Time;

/// The bottom layer.
pub struct Bottom {
    view_ltime: u64,
    enabled: bool,
    /// Packets dropped because they carried a stale view stamp.
    pub stale_drops: u64,
}

impl Bottom {
    /// Builds a bottom layer for the given view.
    pub fn new(vs: &ViewState, _cfg: &LayerConfig) -> Self {
        Bottom {
            view_ltime: vs.view_id.ltime,
            enabled: true,
            stale_drops: 0,
        }
    }
}

impl Layer for Bottom {
    fn name(&self) -> &'static str {
        "bottom"
    }

    fn up(&mut self, _now: Time, mut ev: UpEvent, out: &mut Effects) {
        if !self.enabled {
            return;
        }
        match &mut ev {
            UpEvent::Cast { msg, .. } | UpEvent::Send { msg, .. } => {
                match msg.pop_frame() {
                    Frame::Bottom { view_ltime } if view_ltime == self.view_ltime => {
                        out.up(ev);
                    }
                    Frame::Bottom { .. } => {
                        // A packet from an earlier or later view; drop it.
                        self.stale_drops += 1;
                    }
                    other => panic!("bottom: expected Bottom frame, got {other:?}"),
                }
            }
            _ => out.up(ev),
        }
    }

    fn dn(&mut self, _now: Time, mut ev: DnEvent, out: &mut Effects) {
        if !self.enabled {
            return;
        }
        match &mut ev {
            DnEvent::Cast(msg) => {
                msg.push_frame(Frame::Bottom {
                    view_ltime: self.view_ltime,
                });
                out.dn(ev);
            }
            DnEvent::Send { msg, .. } => {
                msg.push_frame(Frame::Bottom {
                    view_ltime: self.view_ltime,
                });
                out.dn(ev);
            }
            // Timers continue to the engine.
            DnEvent::Timer { .. } => out.dn(ev),
            DnEvent::Leave => {
                self.enabled = false;
                out.up(UpEvent::Exit);
            }
            // Control events that reached the bottom are absorbed.
            DnEvent::Block
            | DnEvent::BlockOk
            | DnEvent::Suspect { .. }
            | DnEvent::Merge { .. }
            | DnEvent::Stable(_)
            | DnEvent::Drain => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{cast, send, up_cast, Harness};
    use ensemble_event::{Msg, Payload};

    fn h() -> Harness<Bottom> {
        Harness::new(Bottom::new(&ViewState::initial(3), &LayerConfig::default()))
    }

    #[test]
    fn stamps_casts_down() {
        let mut h = h();
        let ev = h.dn(cast(b"m")).sole_dn();
        let msg = ev.msg().unwrap();
        assert_eq!(msg.peek_frame(), Some(&Frame::Bottom { view_ltime: 0 }));
    }

    #[test]
    fn stamps_sends_down() {
        let mut h = h();
        let ev = h.dn(send(2, b"m")).sole_dn();
        assert!(matches!(ev, DnEvent::Send { .. }));
        assert_eq!(
            ev.msg().unwrap().peek_frame(),
            Some(&Frame::Bottom { view_ltime: 0 })
        );
    }

    #[test]
    fn accepts_current_view_up() {
        let mut h = h();
        let mut m = Msg::data(Payload::from_slice(b"x"));
        m.push_frame(Frame::Bottom { view_ltime: 0 });
        let ev = h.up(up_cast(1, m)).sole_up();
        // Frame was popped.
        assert_eq!(ev.msg().unwrap().depth(), 0);
    }

    #[test]
    fn drops_stale_view_up() {
        let mut h = h();
        let mut m = Msg::data(Payload::from_slice(b"x"));
        m.push_frame(Frame::Bottom { view_ltime: 7 });
        h.up(up_cast(1, m)).assert_silent();
        assert_eq!(h.layer.stale_drops, 1);
    }

    #[test]
    fn absorbs_control_events() {
        let mut h = h();
        h.dn(DnEvent::Block).assert_silent();
        h.dn(DnEvent::Stable(vec![])).assert_silent();
        h.dn(DnEvent::Suspect { ranks: vec![] }).assert_silent();
    }

    #[test]
    fn leave_disables_and_exits() {
        let mut h = h();
        let ev = h.dn(DnEvent::Leave).sole_up();
        assert_eq!(ev, UpEvent::Exit);
        // Disabled: everything is swallowed.
        h.dn(cast(b"m")).assert_silent();
        let mut m = Msg::data(Payload::empty());
        m.push_frame(Frame::Bottom { view_ltime: 0 });
        h.up(up_cast(1, m)).assert_silent();
    }

    #[test]
    fn timer_passes_to_engine() {
        let mut h = h();
        let ev = h.dn(DnEvent::Timer { deadline: Time(9) }).sole_dn();
        assert_eq!(ev, DnEvent::Timer { deadline: Time(9) });
    }
}
