//! `frag` — fragmentation and reassembly.
//!
//! Splits messages larger than [`LayerConfig::frag_max`] into numbered
//! pieces, each carrying a copy of the upper layers' frames, and
//! reassembles them at the receiver. Small messages travel whole with a
//! constant `Whole` header — the common case the bypass specializes for
//! (the paper's CCPs assume "messages ... are not fragmented", §4.2).

use crate::config::LayerConfig;
use crate::layer::Layer;
use ensemble_event::{DnEvent, Effects, FragHdr, Frame, Msg, Payload, UpEvent, ViewState};
use ensemble_util::{Rank, Time};
use std::collections::HashMap;

/// Reassembly state for one in-progress logical message.
struct Partial {
    pieces: Vec<Option<Payload>>,
    received: u16,
    frames: Vec<Frame>,
}

/// The fragmentation layer.
pub struct Frag {
    max: usize,
    next_msg_id: u32,
    /// Keyed by (origin, is_cast, msg_id).
    partials: HashMap<(Rank, bool, u32), Partial>,
}

impl Frag {
    /// Builds a fragmentation layer.
    pub fn new(_vs: &ViewState, cfg: &LayerConfig) -> Self {
        Frag {
            max: cfg.frag_max,
            next_msg_id: 0,
            partials: HashMap::new(),
        }
    }

    /// Number of partially reassembled messages held.
    pub fn partial_count(&self) -> usize {
        self.partials.len()
    }

    /// Hands `msg` to `emit` whole, or as numbered pieces in order.
    fn fragment(&mut self, msg: Msg, mut emit: impl FnMut(Msg)) {
        if msg.payload().len() <= self.max {
            let mut m = msg;
            m.push_frame(Frame::Frag(FragHdr::Whole));
            return emit(m);
        }
        let (mut frames, payload) = msg.into_parts();
        let pieces = payload.split_into(self.max);
        let total = pieces.len() as u16;
        let msg_id = self.next_msg_id;
        self.next_msg_id = self.next_msg_id.wrapping_add(1);
        let last = pieces.len() - 1;
        for (i, piece) in pieces.into_iter().enumerate() {
            // Each piece's copy keeps the room the message was built
            // with, so the layers below push without regrowing it; the
            // last piece takes the original.
            let frames = if i == last {
                std::mem::take(&mut frames)
            } else {
                let mut copy = Vec::with_capacity(frames.capacity());
                copy.extend_from_slice(&frames);
                copy
            };
            let mut m = Msg::from_parts(frames, piece);
            m.push_frame(Frame::Frag(FragHdr::Piece {
                msg_id,
                idx: i as u16,
                total,
            }));
            emit(m);
        }
    }

    /// Processes an arriving piece; returns the whole message when complete.
    fn reassemble(
        &mut self,
        origin: Rank,
        is_cast: bool,
        msg_id: u32,
        idx: u16,
        total: u16,
        msg: Msg,
    ) -> Option<Msg> {
        let key = (origin, is_cast, msg_id);
        let (frames, payload) = msg.into_parts();
        let entry = self.partials.entry(key).or_insert_with(|| Partial {
            pieces: vec![None; total as usize],
            received: 0,
            frames,
        });
        let slot = entry.pieces.get_mut(idx as usize)?;
        if slot.is_none() {
            *slot = Some(payload);
            entry.received += 1;
        }
        if entry.received as usize != entry.pieces.len() {
            return None;
        }
        let done = self.partials.remove(&key).expect("just inserted");
        let mut whole = Payload::empty();
        for p in done.pieces {
            whole = whole.appended(p.expect("all pieces received"));
        }
        Some(Msg::from_parts(done.frames, whole))
    }
}

impl Layer for Frag {
    fn name(&self) -> &'static str {
        "frag"
    }

    fn up(&mut self, _now: Time, mut ev: UpEvent, out: &mut Effects) {
        let (origin, is_cast) = match &ev {
            UpEvent::Cast { origin, .. } => (*origin, true),
            UpEvent::Send { origin, .. } => (*origin, false),
            _ => {
                out.up(ev);
                return;
            }
        };
        let msg = ev.msg_mut().expect("cast/send carries a message");
        match msg.pop_frame() {
            Frame::Frag(FragHdr::Whole) => out.up(ev),
            Frame::Frag(FragHdr::Piece { msg_id, idx, total }) => {
                let piece = std::mem::take(msg);
                if let Some(whole) = self.reassemble(origin, is_cast, msg_id, idx, total, piece) {
                    if is_cast {
                        out.up(UpEvent::Cast { origin, msg: whole });
                    } else {
                        out.up(UpEvent::Send { origin, msg: whole });
                    }
                }
            }
            other => panic!("frag: expected Frag frame, got {other:?}"),
        }
    }

    fn dn(&mut self, _now: Time, ev: DnEvent, out: &mut Effects) {
        match ev {
            DnEvent::Cast(msg) => self.fragment(msg, |m| out.dn(DnEvent::Cast(m))),
            DnEvent::Send { dst, msg } => {
                self.fragment(msg, |m| out.dn(DnEvent::Send { dst, msg: m }))
            }
            other => out.dn(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{cast, up_cast, up_send, Harness};

    fn h(max: usize) -> Harness<Frag> {
        let cfg = LayerConfig {
            frag_max: max,
            ..LayerConfig::default()
        };
        Harness::new(Frag::new(&ViewState::initial(2), &cfg))
    }

    #[test]
    fn small_messages_travel_whole() {
        let mut h = h(100);
        let ev = h.dn(cast(b"small")).sole_dn();
        assert_eq!(
            ev.msg().unwrap().peek_frame(),
            Some(&Frame::Frag(FragHdr::Whole))
        );
    }

    #[test]
    fn large_messages_fragment_and_reassemble() {
        let mut h = h(10);
        let body: Vec<u8> = (0..35u8).collect();
        let out = h.dn(DnEvent::Cast(Msg::data(Payload::from_slice(&body))));
        assert_eq!(out.dn.len(), 4, "35 bytes / 10 = 4 pieces");
        // Feed the pieces back in as if from the network.
        let mut delivered = Vec::new();
        for ev in out.dn {
            let m = match ev {
                DnEvent::Cast(m) => m,
                other => panic!("{other:?}"),
            };
            let o = h.up(up_cast(1, m));
            delivered.extend(o.up);
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].msg().unwrap().payload().gather(), body);
        assert_eq!(h.layer.partial_count(), 0);
    }

    #[test]
    fn out_of_order_pieces_reassemble() {
        let mut h = h(4);
        let body = b"0123456789AB";
        let out = h.dn(DnEvent::Cast(Msg::data(Payload::from_slice(body))));
        let mut pieces: Vec<Msg> = out
            .dn
            .into_iter()
            .map(|e| match e {
                DnEvent::Cast(m) => m,
                other => panic!("{other:?}"),
            })
            .collect();
        pieces.reverse();
        let mut delivered = Vec::new();
        for m in pieces {
            delivered.extend(h.up(up_cast(1, m)).up);
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].msg().unwrap().payload().gather(), body);
    }

    #[test]
    fn duplicate_piece_ignored() {
        let mut h = h(4);
        let out = h.dn(DnEvent::Cast(Msg::data(Payload::from_slice(b"01234567"))));
        let pieces: Vec<Msg> = out
            .dn
            .into_iter()
            .map(|e| match e {
                DnEvent::Cast(m) => m,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(pieces.len(), 2);
        h.up(up_cast(1, pieces[0].clone())).assert_silent();
        h.up(up_cast(1, pieces[0].clone())).assert_silent();
        let done = h.up(up_cast(1, pieces[1].clone()));
        assert_eq!(done.up.len(), 1);
    }

    #[test]
    fn interleaved_senders_do_not_mix() {
        let mut h = h(4);
        let out_a = h.dn(DnEvent::Cast(Msg::data(Payload::from_slice(b"AAAABBBB"))));
        let pieces_a: Vec<Msg> = out_a
            .dn
            .into_iter()
            .map(|e| match e {
                DnEvent::Cast(m) => m,
                other => panic!("{other:?}"),
            })
            .collect();
        // Same msg_id arriving from two different origins must not merge.
        h.up(up_cast(1, pieces_a[0].clone()));
        h.up(up_cast(2, pieces_a[0].clone()));
        let d1 = h.up(up_cast(1, pieces_a[1].clone()));
        assert_eq!(d1.up.len(), 1);
        assert_eq!(h.layer.partial_count(), 1, "origin 2 still partial");
    }

    #[test]
    fn sends_fragment_too() {
        let mut h = h(4);
        let out = h.dn(DnEvent::Send {
            dst: Rank(1),
            msg: Msg::data(Payload::from_slice(b"0123456789")),
        });
        assert_eq!(out.dn.len(), 3);
        let mut delivered = Vec::new();
        for ev in out.dn {
            let m = match ev {
                DnEvent::Send { msg, .. } => msg,
                other => panic!("{other:?}"),
            };
            delivered.extend(h.up(up_send(1, m)).up);
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(
            delivered[0].msg().unwrap().payload().gather(),
            b"0123456789"
        );
    }

    #[test]
    fn upper_frames_survive_fragmentation() {
        let mut h = h(4);
        let mut m = Msg::data(Payload::from_slice(b"0123456789"));
        m.push_frame(Frame::NoHdr); // Pretend an upper layer framed it.
        let out = h.dn(DnEvent::Cast(m));
        let mut delivered = Vec::new();
        for ev in out.dn {
            let m = match ev {
                DnEvent::Cast(m) => m,
                other => panic!("{other:?}"),
            };
            delivered.extend(h.up(up_cast(1, m)).up);
        }
        assert_eq!(delivered[0].msg().unwrap().frames(), &[Frame::NoHdr]);
    }
}
