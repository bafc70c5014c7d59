//! `mflow` — credit-based flow control for multicasts.
//!
//! A sender may have at most [`LayerConfig::mflow_window`] casts
//! outstanding beyond the *slowest* receiver's cumulative grant. Receivers
//! grant credit (their cumulative consumed count) back to the origin
//! point-to-point after every half window. Casts without credit queue.
//!
//! Suspected members stop gating the window. A partitioned receiver's
//! grant freezes, so once the window drains every later cast queues —
//! including the `sync` flush casts the view change needs to remove that
//! very member and rebuild this layer. Dropping suspects from the
//! `min(granted)` floor (on the `DnEvent::Suspect` that membership
//! forwards down) breaks the deadlock: the queue drains toward the live
//! members and the flush can complete.
//!
//! The queue dies with the stack. So when the view is over, the runtime
//! sends `DnEvent::Drain` and every queued cast goes out uncredited: the
//! coordinator's `NewView` can sit behind its last casts, and members
//! whose flush waits for those casts would otherwise never leave the
//! old view.

use crate::config::LayerConfig;
use crate::layer::Layer;
use ensemble_event::{DnEvent, Effects, FlowHdr, Frame, Msg, UpEvent, ViewState};
use ensemble_util::{Rank, Time};
use std::collections::VecDeque;

/// The multicast flow-control layer.
pub struct MFlow {
    window: u64,
    my_rank: Rank,
    /// Casts I have sent.
    sent: u64,
    /// Per-member cumulative grants for my casts.
    granted: Vec<u64>,
    /// Per-origin casts consumed (cumulative / since last grant).
    consumed_total: Vec<u64>,
    consumed_since_grant: Vec<u64>,
    /// Members whose grants no longer gate the window.
    suspected: Vec<bool>,
    /// Credit-starved casts.
    queue: VecDeque<Msg>,
}

impl MFlow {
    /// Builds the layer for a view of `n` members.
    pub fn new(vs: &ViewState, cfg: &LayerConfig) -> Self {
        let n = vs.nmembers();
        MFlow {
            window: cfg.mflow_window,
            my_rank: vs.rank,
            sent: 0,
            granted: vec![0; n],
            consumed_total: vec![0; n],
            consumed_since_grant: vec![0; n],
            suspected: vec![false; n],
            queue: VecDeque::new(),
        }
    }

    /// Number of casts waiting for credit.
    pub fn queued_count(&self) -> usize {
        self.queue.len()
    }

    fn min_granted(&self) -> u64 {
        self.granted
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.my_rank.index() && !self.suspected[*i])
            .map(|(_, &g)| g)
            .min()
            .unwrap_or(u64::MAX)
    }

    fn drain_queue(&mut self, out: &mut Effects) {
        while !self.queue.is_empty() && self.may_send() {
            let msg = self.queue.pop_front().expect("checked non-empty");
            self.transmit(msg, out);
        }
    }

    fn may_send(&self) -> bool {
        self.sent - self.min_granted().min(self.sent) < self.window
    }

    fn transmit(&mut self, mut msg: Msg, out: &mut Effects) {
        self.sent += 1;
        msg.push_frame(Frame::MFlow(FlowHdr::Data));
        out.dn(DnEvent::Cast(msg));
    }
}

impl Layer for MFlow {
    fn name(&self) -> &'static str {
        "mflow"
    }

    fn up(&mut self, _now: Time, mut ev: UpEvent, out: &mut Effects) {
        match &mut ev {
            UpEvent::Cast { origin, msg } => {
                let origin = *origin;
                let f = msg.pop_frame();
                debug_assert_eq!(
                    f,
                    Frame::MFlow(FlowHdr::Data),
                    "mflow casts carry the Data frame"
                );
                let i = origin.index();
                self.consumed_total[i] += 1;
                self.consumed_since_grant[i] += 1;
                if self.consumed_since_grant[i] >= self.window / 2 && origin != self.my_rank {
                    self.consumed_since_grant[i] = 0;
                    let mut grant = Msg::control();
                    grant.push_frame(Frame::MFlow(FlowHdr::Credit {
                        granted: self.consumed_total[i],
                    }));
                    out.dn(DnEvent::Send {
                        dst: origin,
                        msg: grant,
                    });
                }
                out.up(ev);
            }
            UpEvent::Send { origin, msg } => {
                let origin = *origin;
                let frame = msg.pop_frame();
                match frame {
                    Frame::MFlow(FlowHdr::Credit { granted }) => {
                        let g = &mut self.granted[origin.index()];
                        *g = (*g).max(granted);
                        self.drain_queue(out);
                    }
                    Frame::NoHdr => out.up(ev),
                    other => panic!("mflow: unexpected frame {other:?}"),
                }
            }
            _ => out.up(ev),
        }
    }

    fn dn(&mut self, _now: Time, mut ev: DnEvent, out: &mut Effects) {
        match &mut ev {
            DnEvent::Cast(msg) => {
                if self.may_send() {
                    let msg = std::mem::take(msg);
                    self.transmit(msg, out);
                } else {
                    self.queue.push_back(std::mem::take(msg));
                }
            }
            DnEvent::Send { msg, .. } => {
                msg.push_frame(Frame::NoHdr);
                out.dn(ev);
            }
            DnEvent::Suspect { ranks } => {
                for r in ranks.iter() {
                    if r.index() < self.suspected.len() {
                        self.suspected[r.index()] = true;
                    }
                }
                self.drain_queue(out);
                out.dn(ev);
            }
            DnEvent::Drain => {
                while let Some(msg) = self.queue.pop_front() {
                    self.transmit(msg, out);
                }
                out.dn(ev);
            }
            _ => out.dn(ev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{cast, up_cast, up_send, Harness};
    use ensemble_event::Payload;

    fn h(window: u64, rank: u16, n: usize) -> Harness<MFlow> {
        let cfg = LayerConfig {
            mflow_window: window,
            ..LayerConfig::default()
        };
        Harness::new(MFlow::new(
            &ViewState::initial(n).for_rank(Rank(rank)),
            &cfg,
        ))
    }

    #[test]
    fn casts_within_window_pass() {
        let mut h = h(3, 0, 3);
        for _ in 0..3 {
            let ev = h.dn(cast(b"c")).sole_dn();
            assert_eq!(
                ev.msg().unwrap().peek_frame(),
                Some(&Frame::MFlow(FlowHdr::Data))
            );
        }
        h.dn(cast(b"blocked")).assert_silent();
        assert_eq!(h.layer.queued_count(), 1);
    }

    #[test]
    fn slowest_receiver_gates_sending() {
        let mut h = h(2, 0, 3);
        h.dn(cast(b"1"));
        h.dn(cast(b"2"));
        h.dn(cast(b"3")).assert_silent();
        // Receiver 1 grants 2, but receiver 2 has granted nothing.
        let mut g = Msg::control();
        g.push_frame(Frame::MFlow(FlowHdr::Credit { granted: 2 }));
        let out = h.up(up_send(1, g));
        assert!(out.dn.is_empty(), "min(granted) still 0");
        // Receiver 2 grants too: now the queued cast flows.
        let mut g = Msg::control();
        g.push_frame(Frame::MFlow(FlowHdr::Credit { granted: 2 }));
        let out = h.up(up_send(2, g));
        assert_eq!(out.dn.len(), 1);
    }

    #[test]
    fn drain_sends_every_queued_cast_without_credit() {
        let mut h = h(1, 0, 3);
        h.dn(cast(b"1"));
        h.dn(cast(b"2")).assert_silent();
        h.dn(cast(b"3")).assert_silent();
        // No grant ever came back; the view is over regardless.
        let out = h.dn(DnEvent::Drain);
        let bodies: Vec<Vec<u8>> = out
            .dn
            .iter()
            .filter_map(|e| e.msg())
            .map(|m| m.payload().gather())
            .collect();
        assert_eq!(bodies, [b"2", b"3"], "in the order they were cast");
        assert_eq!(
            out.dn.last(),
            Some(&DnEvent::Drain),
            "and it continues down"
        );
        assert_eq!(h.layer.queued_count(), 0);
    }

    #[test]
    fn suspected_member_stops_gating_window() {
        let mut h = h(2, 0, 3);
        h.dn(cast(b"1"));
        h.dn(cast(b"2"));
        h.dn(cast(b"3")).assert_silent();
        // Receiver 1 is current; receiver 2 is partitioned, grant frozen.
        let mut g = Msg::control();
        g.push_frame(Frame::MFlow(FlowHdr::Credit { granted: 2 }));
        h.up(up_send(1, g));
        assert_eq!(h.layer.queued_count(), 1, "still gated by receiver 2");
        // Membership suspects 2: the queue drains toward the live member
        // and the suspicion continues down the stack.
        let out = h.dn(DnEvent::Suspect {
            ranks: vec![Rank(2)],
        });
        assert_eq!(h.layer.queued_count(), 0);
        assert_eq!(out.dn.len(), 2, "drained cast + forwarded suspicion");
        assert!(matches!(out.dn[1], DnEvent::Suspect { .. }));
    }

    #[test]
    fn receiver_grants_after_half_window() {
        let mut h = h(4, 1, 3);
        let mk = || {
            let mut m = Msg::data(Payload::from_slice(b"d"));
            m.push_frame(Frame::MFlow(FlowHdr::Data));
            m
        };
        let out = h.up(up_cast(0, mk()));
        assert_eq!(out.up.len(), 1);
        assert!(out.dn.is_empty());
        let out = h.up(up_cast(0, mk()));
        assert_eq!(out.dn.len(), 1, "grant after 2 of window 4");
        match &out.dn[0] {
            DnEvent::Send { dst, msg } => {
                assert_eq!(*dst, Rank(0));
                assert_eq!(
                    msg.peek_frame(),
                    Some(&Frame::MFlow(FlowHdr::Credit { granted: 2 }))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn own_loopback_casts_never_granted() {
        let mut h = h(2, 1, 3);
        let mk = || {
            let mut m = Msg::data(Payload::from_slice(b"d"));
            m.push_frame(Frame::MFlow(FlowHdr::Data));
            m
        };
        // Our own casts come back via `local`; granting credit to
        // ourselves point-to-point would be wasted traffic.
        let out = h.up(up_cast(1, mk()));
        assert_eq!(out.up.len(), 1);
        let out = h.up(up_cast(1, mk()));
        assert!(out.dn.is_empty(), "no self-grant");
    }

    #[test]
    fn single_member_view_never_blocks() {
        let mut h = h(2, 0, 1);
        for _ in 0..10 {
            h.dn(cast(b"solo")).sole_dn();
        }
        assert_eq!(h.layer.queued_count(), 0);
    }

    #[test]
    fn sends_pass_with_nohdr() {
        let mut h = h(2, 0, 3);
        let ev = h.dn(crate::harness::send(1, b"s")).sole_dn();
        assert_eq!(ev.msg().unwrap().peek_frame(), Some(&Frame::NoHdr));
        let mut m = Msg::data(Payload::from_slice(b"r"));
        m.push_frame(Frame::NoHdr);
        h.up(up_send(1, m)).sole_up();
    }
}
