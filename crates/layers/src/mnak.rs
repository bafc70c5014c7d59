//! `mnak` — reliable multicast via negative acknowledgments.
//!
//! Every cast carries a per-origin sequence number. Receivers deliver
//! contiguously per origin; a gap triggers a NAK to the origin, answered
//! by point-to-point retransmission. All casts (sent and delivered) are
//! buffered until the stability protocol (`collect` or `stable`) reports
//! them delivered everywhere, at which point a down-travelling
//! [`DnEvent::Stable`] vector prunes the store. Outstanding gaps are
//! re-NAKed on a timer.
//!
//! The CCP for this layer's bypass path is exactly the paper's example:
//! "the event is a Deliver event, and the low end of the receiver's
//! sliding window is equal to the sequence number in the event" (§4.1).

use crate::config::LayerConfig;
use crate::layer::Layer;
use ensemble_event::{DnEvent, Effects, Frame, MnakHdr, Msg, UpEvent, ViewState};
use ensemble_util::{Duration, Rank, Seqno, Time};
use std::collections::BTreeMap;

/// Per-origin receive and retransmission state.
#[derive(Default)]
struct Origin {
    /// Next seqno expected for contiguous delivery.
    next: u64,
    /// Out-of-order casts awaiting the gap to fill.
    pending: BTreeMap<u64, Msg>,
    /// Delivered (or sent, for our own rank) casts retained for
    /// retransmission until stable.
    store: BTreeMap<u64, Msg>,
}

/// The reliable multicast layer.
pub struct Mnak {
    my_rank: Rank,
    origins: Vec<Origin>,
    /// My next cast seqno.
    cast_next: u64,
    nak_timeout: Duration,
    timer_armed: bool,
    /// Consecutive heartbeats without local progress (bounded so idle
    /// groups quiesce; see [`Mnak::HEARTBEAT_BUDGET`]).
    quiet_rounds: u32,
    /// NAKs sent (observability).
    pub naks_sent: u64,
    /// Retransmissions answered (observability).
    pub retrans_sent: u64,
    /// Heartbeats cast (observability).
    pub heartbeats_sent: u64,
}

impl Mnak {
    /// Heartbeats sent without progress before the layer goes quiet
    /// (bounds recovery attempts so idle groups reach quiescence; real
    /// deployments would beat forever alongside the failure detector).
    pub const HEARTBEAT_BUDGET: u32 = 5;

    /// Builds an mnak layer for the view.
    pub fn new(vs: &ViewState, cfg: &LayerConfig) -> Self {
        Mnak {
            my_rank: vs.rank,
            origins: (0..vs.nmembers()).map(|_| Origin::default()).collect(),
            cast_next: 0,
            nak_timeout: cfg.nak_timeout,
            timer_armed: false,
            quiet_rounds: 0,
            naks_sent: 0,
            retrans_sent: 0,
            heartbeats_sent: 0,
        }
    }

    fn own_unstable(&self) -> bool {
        !self.origins[self.my_rank.index()].store.is_empty()
    }

    /// Messages retained in the retransmission store.
    pub fn store_size(&self) -> usize {
        self.origins.iter().map(|o| o.store.len()).sum()
    }

    /// The per-origin contiguous delivery frontier (own rank: casts sent).
    pub fn delivered_vector(&self) -> Vec<Seqno> {
        self.origins
            .iter()
            .enumerate()
            .map(|(i, o)| {
                if i == self.my_rank.index() {
                    Seqno(self.cast_next)
                } else {
                    Seqno(o.next)
                }
            })
            .collect()
    }

    fn arm_timer(&mut self, now: Time, out: &mut Effects) {
        if !self.timer_armed {
            self.timer_armed = true;
            out.timer(now + self.nak_timeout);
        }
    }

    fn nak_gap(&mut self, origin: Rank, lo: u64, hi: u64, out: &mut Effects) {
        self.naks_sent += 1;
        let mut nak = Msg::control();
        nak.push_frame(Frame::Mnak(MnakHdr::Nak {
            origin,
            lo: Seqno(lo),
            hi: Seqno(hi),
        }));
        // Ask the origin itself; any member holding the casts could answer,
        // but the origin is guaranteed to hold its own until stability.
        out.dn(DnEvent::Send {
            dst: origin,
            msg: nak,
        });
    }

    /// Handles an arriving data cast (fresh or retransmitted).
    fn ingest(&mut self, now: Time, origin: Rank, seqno: u64, msg: Msg, out: &mut Effects) {
        let o = &mut self.origins[origin.index()];
        if seqno < o.next || o.pending.contains_key(&seqno) {
            return; // Duplicate.
        }
        o.pending.insert(seqno, msg);
        // Deliver the contiguous prefix.
        while let Some(msg) = o.pending.remove(&o.next) {
            o.store.insert(o.next, msg.clone());
            o.next += 1;
            out.up(UpEvent::Cast { origin, msg });
        }
        // Whatever remains pending implies a gap [next, first_pending).
        if let Some((&first, _)) = self.origins[origin.index()].pending.iter().next() {
            let lo = self.origins[origin.index()].next;
            self.nak_gap(origin, lo, first, out);
            self.arm_timer(now, out);
        }
    }
}

impl Layer for Mnak {
    fn name(&self) -> &'static str {
        "mnak"
    }

    fn up(&mut self, now: Time, mut ev: UpEvent, out: &mut Effects) {
        match &mut ev {
            UpEvent::Cast { origin, msg } => {
                let origin = *origin;
                let frame = msg.pop_frame();
                match frame {
                    Frame::Mnak(MnakHdr::Data { seqno }) => {
                        let msg = std::mem::take(msg);
                        self.ingest(now, origin, seqno.0, msg, out);
                    }
                    Frame::Mnak(MnakHdr::Heartbeat { next }) => {
                        // A trailing gap becomes visible here.
                        let o = &self.origins[origin.index()];
                        if origin != self.my_rank && o.next < next.0 {
                            let lo = o.next;
                            self.nak_gap(origin, lo, next.0, out);
                            self.arm_timer(now, out);
                        }
                    }
                    other => panic!("mnak: expected Mnak frame on cast, got {other:?}"),
                }
            }
            UpEvent::Send { origin, msg } => {
                let requester = *origin;
                let frame = msg.pop_frame();
                match frame {
                    Frame::Mnak(MnakHdr::Nak { origin, lo, hi }) => {
                        // Answer from our store with point-to-point
                        // retransmissions.
                        let o = &self.origins[origin.index()];
                        let mut replies = Vec::new();
                        for (&s, stored) in o.store.range(lo.0..hi.0) {
                            let mut m = stored.clone();
                            m.push_frame(Frame::Mnak(MnakHdr::Retrans {
                                origin,
                                seqno: Seqno(s),
                            }));
                            replies.push(m);
                        }
                        for m in replies {
                            self.retrans_sent += 1;
                            out.dn(DnEvent::Send {
                                dst: requester,
                                msg: m,
                            });
                        }
                    }
                    Frame::Mnak(MnakHdr::Retrans { origin, seqno }) => {
                        let msg = std::mem::take(msg);
                        self.ingest(now, origin, seqno.0, msg, out);
                    }
                    Frame::NoHdr => out.up(ev),
                    other => panic!("mnak: unexpected frame on send {other:?}"),
                }
            }
            _ => out.up(ev),
        }
    }

    fn dn(&mut self, now: Time, mut ev: DnEvent, out: &mut Effects) {
        let _now = now;
        match &mut ev {
            DnEvent::Cast(msg) => {
                let seqno = Seqno(self.cast_next);
                self.cast_next += 1;
                // Retain the unframed message for retransmission.
                self.origins[self.my_rank.index()]
                    .store
                    .insert(seqno.0, msg.clone());
                msg.push_frame(Frame::Mnak(MnakHdr::Data { seqno }));
                out.dn(ev);
                self.quiet_rounds = 0;
                self.arm_timer(_now, out);
            }
            DnEvent::Send { msg, .. } => {
                msg.push_frame(Frame::NoHdr);
                out.dn(ev);
            }
            DnEvent::Stable(vec) => {
                // Prune everything below the stability floor, in place.
                for (i, floor) in vec.iter().enumerate() {
                    if let Some(o) = self.origins.get_mut(i) {
                        while o.store.first_key_value().is_some_and(|(&s, _)| s < floor.0) {
                            o.store.pop_first();
                        }
                    }
                }
                out.dn(ev);
            }
            _ => out.dn(ev),
        }
    }

    fn timer(&mut self, now: Time, out: &mut Effects) {
        self.timer_armed = false;
        // Re-NAK outstanding gaps.
        let gaps: Vec<(Rank, u64, u64)> = self
            .origins
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                o.pending
                    .keys()
                    .next()
                    .map(|&first| (Rank(i as u16), o.next, first))
            })
            .collect();
        let any_gap = !gaps.is_empty();
        for (origin, lo, hi) in gaps {
            self.nak_gap(origin, lo, hi, out);
        }
        // Heartbeat while our own casts may still be missing somewhere.
        let mut beating = false;
        if self.own_unstable() && self.quiet_rounds < Self::HEARTBEAT_BUDGET {
            self.quiet_rounds += 1;
            self.heartbeats_sent += 1;
            let mut hb = Msg::control();
            hb.push_frame(Frame::Mnak(MnakHdr::Heartbeat {
                next: Seqno(self.cast_next),
            }));
            out.dn(DnEvent::Cast(hb));
            beating = self.quiet_rounds < Self::HEARTBEAT_BUDGET;
        }
        if any_gap || beating {
            self.arm_timer(now, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{cast, up_cast, up_send, Harness};
    use ensemble_event::Payload;

    fn h(rank: u16) -> Harness<Mnak> {
        Harness::new(Mnak::new(
            &ViewState::initial(3).for_rank(Rank(rank)),
            &LayerConfig::default(),
        ))
    }

    fn data(seq: u64, body: &[u8]) -> Msg {
        let mut m = Msg::data(Payload::from_slice(body));
        m.push_frame(Frame::Mnak(MnakHdr::Data { seqno: Seqno(seq) }));
        m
    }

    #[test]
    fn numbers_and_stores_own_casts() {
        let mut h = h(0);
        let e1 = h.dn(cast(b"a")).sole_dn();
        let e2 = h.dn(cast(b"b")).sole_dn();
        let seq = |e: &DnEvent| match e.msg().unwrap().peek_frame() {
            Some(Frame::Mnak(MnakHdr::Data { seqno })) => seqno.0,
            other => panic!("{other:?}"),
        };
        assert_eq!(seq(&e1), 0);
        assert_eq!(seq(&e2), 1);
        assert_eq!(h.layer.store_size(), 2);
    }

    #[test]
    fn in_order_casts_deliver() {
        let mut h = h(0);
        let out = h.up(up_cast(1, data(0, b"x")));
        assert_eq!(out.up.len(), 1);
        let out = h.up(up_cast(1, data(1, b"y")));
        assert_eq!(out.up.len(), 1);
        assert_eq!(h.layer.delivered_vector()[1], Seqno(2));
    }

    #[test]
    fn gap_naks_then_recovers() {
        let mut h = h(0);
        // Seqno 1 arrives before 0: buffered, NAK [0,1) to origin.
        let out = h.up(up_cast(1, data(1, b"later")));
        assert!(out.up.is_empty());
        assert_eq!(out.dn.len(), 1);
        match &out.dn[0] {
            DnEvent::Send { dst, msg } => {
                assert_eq!(*dst, Rank(1));
                assert_eq!(
                    msg.peek_frame(),
                    Some(&Frame::Mnak(MnakHdr::Nak {
                        origin: Rank(1),
                        lo: Seqno(0),
                        hi: Seqno(1),
                    }))
                );
            }
            other => panic!("{other:?}"),
        }
        // The retransmission arrives: both deliver, in order.
        let mut rt = Msg::data(Payload::from_slice(b"first"));
        rt.push_frame(Frame::Mnak(MnakHdr::Retrans {
            origin: Rank(1),
            seqno: Seqno(0),
        }));
        let out = h.up(up_send(1, rt));
        assert_eq!(out.up.len(), 2);
        assert_eq!(out.up[0].msg().unwrap().payload().gather(), b"first");
        assert_eq!(out.up[1].msg().unwrap().payload().gather(), b"later");
    }

    #[test]
    fn answers_naks_from_store() {
        let mut h = h(0);
        h.dn(cast(b"m0"));
        h.dn(cast(b"m1"));
        let mut nak = Msg::control();
        nak.push_frame(Frame::Mnak(MnakHdr::Nak {
            origin: Rank(0),
            lo: Seqno(0),
            hi: Seqno(2),
        }));
        let out = h.up(up_send(2, nak));
        assert_eq!(out.dn.len(), 2, "both casts retransmitted");
        assert_eq!(h.layer.retrans_sent, 2);
        for ev in &out.dn {
            assert!(matches!(ev, DnEvent::Send { dst: Rank(2), .. }));
        }
    }

    #[test]
    fn duplicates_dropped() {
        let mut h = h(0);
        h.up(up_cast(1, data(0, b"x")));
        let out = h.up(up_cast(1, data(0, b"x")));
        out.assert_silent();
    }

    #[test]
    fn stability_prunes_store() {
        let mut h = h(0);
        h.dn(cast(b"a"));
        h.dn(cast(b"b"));
        h.up(up_cast(1, data(0, b"r")));
        assert_eq!(h.layer.store_size(), 3);
        let out = h.dn(DnEvent::Stable(vec![Seqno(2), Seqno(1), Seqno(0)]));
        assert_eq!(out.dn.len(), 1, "stability continues down");
        assert_eq!(h.layer.store_size(), 0);
    }

    #[test]
    fn renak_on_timer_until_filled() {
        let mut h = h(0);
        h.up(up_cast(1, data(1, b"later")));
        assert_eq!(h.layer.naks_sent, 1);
        let t = h.timers[0];
        let out = h.advance(t);
        assert_eq!(out.dn.len(), 1, "re-NAKed");
        assert_eq!(h.layer.naks_sent, 2);
        assert!(!h.timers.is_empty(), "re-armed");
        // Fill the gap; next timer is silent and disarms.
        let mut rt = Msg::data(Payload::from_slice(b"first"));
        rt.push_frame(Frame::Mnak(MnakHdr::Retrans {
            origin: Rank(1),
            seqno: Seqno(0),
        }));
        h.up(up_send(1, rt));
        let t2 = h.timers[0];
        let out = h.advance(t2);
        assert!(out.dn.is_empty());
        assert!(h.timers.is_empty());
    }

    #[test]
    fn sends_pass_through() {
        let mut h = h(0);
        let ev = h.dn(crate::harness::send(1, b"s")).sole_dn();
        assert_eq!(ev.msg().unwrap().peek_frame(), Some(&Frame::NoHdr));
        let mut m = Msg::data(Payload::from_slice(b"r"));
        m.push_frame(Frame::NoHdr);
        h.up(up_send(1, m)).sole_up();
    }

    #[test]
    fn heartbeat_reveals_trailing_gap() {
        let mut h = h(0);
        // Origin 1 announces next=3, but we have delivered nothing: the
        // whole prefix is a trailing gap, NAKed immediately.
        let mut hb = Msg::control();
        hb.push_frame(Frame::Mnak(MnakHdr::Heartbeat { next: Seqno(3) }));
        let out = h.up(up_cast(1, hb));
        assert_eq!(out.dn.len(), 1);
        match &out.dn[0] {
            DnEvent::Send { dst, msg } => {
                assert_eq!(*dst, Rank(1));
                assert_eq!(
                    msg.peek_frame(),
                    Some(&Frame::Mnak(MnakHdr::Nak {
                        origin: Rank(1),
                        lo: Seqno(0),
                        hi: Seqno(3),
                    }))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn heartbeat_when_caught_up_is_silent() {
        let mut h = h(0);
        h.up(up_cast(1, data(0, b"a")));
        let mut hb = Msg::control();
        hb.push_frame(Frame::Mnak(MnakHdr::Heartbeat { next: Seqno(1) }));
        h.up(up_cast(1, hb)).assert_silent();
    }

    #[test]
    fn sender_heartbeats_while_unstable_then_quiets() {
        let mut h = h(0);
        h.dn(cast(b"a"));
        let mut beats = 0;
        // Drive timers until the budget exhausts.
        for _ in 0..(Mnak::HEARTBEAT_BUDGET + 3) {
            let Some(&t) = h.timers.first() else { break };
            let out = h.advance(t);
            beats += out
                .dn
                .iter()
                .filter(|e| {
                    matches!(e, DnEvent::Cast(m)
                    if matches!(m.peek_frame(), Some(Frame::Mnak(MnakHdr::Heartbeat { .. }))))
                })
                .count();
        }
        assert_eq!(beats as u32, Mnak::HEARTBEAT_BUDGET);
        assert!(h.timers.is_empty(), "quiesced after the budget");
        // Stability prunes the store: no further beats even after new
        // timer arms from fresh casts... (a new cast resets the budget).
        h.dn(DnEvent::Stable(vec![Seqno(1), Seqno(0), Seqno(0)]));
        assert_eq!(h.layer.store_size(), 0);
    }

    #[test]
    fn delivered_vector_counts_own_sends() {
        let mut h = h(2);
        h.dn(cast(b"a"));
        h.dn(cast(b"b"));
        assert_eq!(h.layer.delivered_vector()[2], Seqno(2));
    }
}
