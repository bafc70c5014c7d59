//! The generic header marshaler.
//!
//! Models the OCaml value marshaler Ensemble originally used: a recursive
//! traversal of the header structure that dispatches per constructor and
//! writes self-describing tags and length prefixes ("all this generality
//! leads to substantial overhead", §4). This is the path exercised by the
//! IMP and FUNC configurations — and, since the cluster runs IMP, the
//! service's data path — so what Table 1's "Transport" rows measure here
//! is that traversal and one copy of the payload into the datagram, not
//! intermediate buffers: [`marshal`] writes into one buffer sized up
//! front, [`unmarshal`] parses in place. The synthesized bypass replaces
//! the format with the compressed one in [`crate::compressed`].

use crate::wire::{WireError, WireReader, WireWriter};
use ensemble_event::{
    CollectHdr, FlowHdr, FragHdr, Frame, GmpHdr, MnakHdr, Msg, Payload, Pt2PtHdr, StableHdr,
    SuspectHdr, SyncHdr, TotalHdr,
};
use ensemble_util::{Endpoint, Rank, Seqno};

/// Room reserved per frame: prefix, tag and the widest fixed-size header
/// (19 bytes). A frame carrying a vector may outgrow it; the buffer then
/// grows like any `Vec`.
const FRAME_RESERVE: usize = 32;

/// Marshals a message (headers + payload) into wire bytes.
///
/// # Examples
///
/// ```
/// use ensemble_event::{Frame, Msg, Payload};
/// use ensemble_transport::{marshal, unmarshal};
/// let mut m = Msg::data(Payload::from_slice(b"hi"));
/// m.push_frame(Frame::NoHdr);
/// let bytes = marshal(&m);
/// assert_eq!(unmarshal(&bytes).unwrap(), m);
/// ```
pub fn marshal(msg: &Msg) -> Vec<u8> {
    let (frames, payload) = (msg.frames(), msg.payload());
    let mut w = WireWriter::with_capacity(1 + frames.len() * FRAME_RESERVE + 4 + payload.len());
    w.u8(frames.len() as u8);
    for f in frames {
        let mark = w.begin_len();
        marshal_frame(&mut w, f);
        w.end_len(mark);
    }
    w.u32(payload.len() as u32);
    for seg in payload.segments() {
        w.raw(seg);
    }
    w.finish()
}

/// Unmarshals wire bytes back into a message, copying the payload out.
pub fn unmarshal(bytes: &[u8]) -> Result<Msg, WireError> {
    let (frames, body) = parse(bytes)?;
    Ok(Msg::from_parts(frames, Payload::from_slice(body)))
}

/// Unmarshals a buffer the caller owns (a received datagram's body): the
/// message's payload is a view of `bytes`, which lives as long as the
/// payload does, so nothing is copied.
pub fn unmarshal_owned(bytes: Vec<u8>) -> Result<Msg, WireError> {
    let (frames, body) = parse(&bytes)?;
    // `parse` accepts nothing after the payload: it is the buffer's tail.
    let body = bytes.len() - body.len()..bytes.len();
    Ok(Msg::from_parts(
        frames,
        Payload::from_vec(bytes).slice(body),
    ))
}

/// Parses the frames and locates the payload within `bytes`.
fn parse(bytes: &[u8]) -> Result<(Vec<Frame>, &[u8]), WireError> {
    let mut r = WireReader::new(bytes);
    let nframes = r.u8()? as usize;
    let mut frames = Vec::with_capacity(nframes);
    for _ in 0..nframes {
        let mut fr = WireReader::new(r.bytes()?);
        frames.push(unmarshal_frame(&mut fr)?);
        fr.expect_end()?;
    }
    let body = r.bytes()?;
    r.expect_end()?;
    Ok((frames, body))
}

fn marshal_frame(w: &mut WireWriter, f: &Frame) {
    w.u8(f.tag());
    match f {
        Frame::NoHdr => {}
        Frame::Bottom { view_ltime } => w.u64(*view_ltime),
        Frame::Mnak(MnakHdr::Data { seqno }) => w.u64(seqno.0),
        Frame::Mnak(MnakHdr::Nak { origin, lo, hi }) => {
            w.u16(origin.0);
            w.u64(lo.0);
            w.u64(hi.0);
        }
        Frame::Mnak(MnakHdr::Retrans { origin, seqno }) => {
            w.u16(origin.0);
            w.u64(seqno.0);
        }
        Frame::Mnak(MnakHdr::Heartbeat { next }) => w.u64(next.0),
        Frame::Pt2Pt(Pt2PtHdr::Data { seqno, ack }) => {
            w.u64(seqno.0);
            w.u64(ack.0);
        }
        Frame::Pt2Pt(Pt2PtHdr::Ack { ack }) => w.u64(ack.0),
        Frame::Pt2PtW(FlowHdr::Data) => {}
        Frame::MFlow(FlowHdr::Data) => {}
        Frame::Pt2PtW(FlowHdr::Credit { granted }) => w.u64(*granted),
        Frame::MFlow(FlowHdr::Credit { granted }) => w.u64(*granted),
        Frame::Frag(FragHdr::Whole) => {}
        Frame::Frag(FragHdr::Piece { msg_id, idx, total }) => {
            w.u32(*msg_id);
            w.u16(*idx);
            w.u16(*total);
        }
        Frame::Collect(CollectHdr::Pass) => {}
        Frame::Collect(CollectHdr::Gossip { seen }) => w.u64_vec(seen),
        Frame::Total(TotalHdr::Ordered { order }) => w.u64(order.0),
        Frame::Total(TotalHdr::Unordered { local }) => w.u64(local.0),
        Frame::Total(TotalHdr::Order {
            origin,
            local,
            order,
        }) => {
            w.u16(origin.0);
            w.u64(local.0);
            w.u64(order.0);
        }
        Frame::Stable(StableHdr::Pass) => {}
        Frame::Stable(StableHdr::Gossip { row }) => w.u64_vec(row),
        Frame::Suspect(SuspectHdr::Pass) => {}
        Frame::Suspect(SuspectHdr::Ping { round }) => w.u32(*round),
        Frame::Suspect(SuspectHdr::Pong { round }) => w.u32(*round),
        Frame::Sync(SyncHdr::Pass) => {}
        Frame::Sync(SyncHdr::Flush { suspects }) => w.u64_vec(suspects),
        Frame::Sync(SyncHdr::FlushOk { seen }) => w.u64_vec(seen),
        Frame::Gmp(GmpHdr::Pass) => {}
        Frame::Gmp(GmpHdr::NewView {
            view_id_ltime,
            coord,
            members,
        }) => {
            w.u64(*view_id_ltime);
            w.u64(coord.to_wire());
            let wires: Vec<u64> = members.iter().map(Endpoint::to_wire).collect();
            w.u64_vec(&wires);
        }
        Frame::Sign { mac } => w.u64(*mac),
        Frame::Encrypt { keyid } => w.u32(*keyid),
    }
}

fn unmarshal_frame(r: &mut WireReader<'_>) -> Result<Frame, WireError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => Frame::NoHdr,
        1 => Frame::Bottom {
            view_ltime: r.u64()?,
        },
        2 => Frame::Mnak(MnakHdr::Data {
            seqno: Seqno(r.u64()?),
        }),
        3 => Frame::Mnak(MnakHdr::Nak {
            origin: Rank(r.u16()?),
            lo: Seqno(r.u64()?),
            hi: Seqno(r.u64()?),
        }),
        4 => Frame::Mnak(MnakHdr::Retrans {
            origin: Rank(r.u16()?),
            seqno: Seqno(r.u64()?),
        }),
        5 => Frame::Pt2Pt(Pt2PtHdr::Data {
            seqno: Seqno(r.u64()?),
            ack: Seqno(r.u64()?),
        }),
        6 => Frame::Pt2Pt(Pt2PtHdr::Ack {
            ack: Seqno(r.u64()?),
        }),
        7 => Frame::Pt2PtW(FlowHdr::Data),
        8 => Frame::MFlow(FlowHdr::Data),
        9 => Frame::Frag(FragHdr::Whole),
        10 => Frame::Frag(FragHdr::Piece {
            msg_id: r.u32()?,
            idx: r.u16()?,
            total: r.u16()?,
        }),
        11 => Frame::Collect(CollectHdr::Pass),
        12 => Frame::Collect(CollectHdr::Gossip { seen: r.u64_vec()? }),
        13 => Frame::Total(TotalHdr::Ordered {
            order: Seqno(r.u64()?),
        }),
        14 => Frame::Total(TotalHdr::Unordered {
            local: Seqno(r.u64()?),
        }),
        15 => Frame::Total(TotalHdr::Order {
            origin: Rank(r.u16()?),
            local: Seqno(r.u64()?),
            order: Seqno(r.u64()?),
        }),
        16 => Frame::Stable(StableHdr::Pass),
        17 => Frame::Stable(StableHdr::Gossip { row: r.u64_vec()? }),
        18 => Frame::Suspect(SuspectHdr::Pass),
        19 => Frame::Suspect(SuspectHdr::Ping { round: r.u32()? }),
        20 => Frame::Suspect(SuspectHdr::Pong { round: r.u32()? }),
        21 => Frame::Sync(SyncHdr::Pass),
        22 => Frame::Sync(SyncHdr::Flush {
            suspects: r.u64_vec()?,
        }),
        23 => Frame::Sync(SyncHdr::FlushOk { seen: r.u64_vec()? }),
        24 => Frame::Gmp(GmpHdr::Pass),
        25 => Frame::Gmp(GmpHdr::NewView {
            view_id_ltime: r.u64()?,
            coord: Endpoint::from_wire(r.u64()?),
            members: r.u64_vec()?.into_iter().map(Endpoint::from_wire).collect(),
        }),
        26 => Frame::Sign { mac: r.u64()? },
        27 => Frame::Encrypt { keyid: r.u32()? },
        28 => Frame::Pt2PtW(FlowHdr::Credit { granted: r.u64()? }),
        30 => Frame::Mnak(MnakHdr::Heartbeat {
            next: Seqno(r.u64()?),
        }),
        29 => Frame::MFlow(FlowHdr::Credit { granted: r.u64()? }),
        t => return Err(WireError::BadTag(t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let mut m = Msg::data(Payload::from_slice(b"body"));
        m.push_frame(f);
        let bytes = marshal(&m);
        assert_eq!(unmarshal(&bytes).unwrap(), m);
        assert_eq!(unmarshal_owned(bytes).unwrap(), m);
    }

    /// Both unmarshalers must refuse `bytes`, and for the same reason.
    fn rejected(bytes: Vec<u8>) -> WireError {
        let e = unmarshal(&bytes).unwrap_err();
        assert_eq!(unmarshal_owned(bytes).unwrap_err(), e);
        e
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::NoHdr);
        roundtrip(Frame::Bottom { view_ltime: 9 });
        roundtrip(Frame::Mnak(MnakHdr::Data { seqno: Seqno(42) }));
        roundtrip(Frame::Mnak(MnakHdr::Nak {
            origin: Rank(2),
            lo: Seqno(5),
            hi: Seqno(9),
        }));
        roundtrip(Frame::Mnak(MnakHdr::Retrans {
            origin: Rank(1),
            seqno: Seqno(3),
        }));
        roundtrip(Frame::Mnak(MnakHdr::Heartbeat { next: Seqno(9) }));
        roundtrip(Frame::Pt2Pt(Pt2PtHdr::Data {
            seqno: Seqno(1),
            ack: Seqno(0),
        }));
        roundtrip(Frame::Pt2Pt(Pt2PtHdr::Ack { ack: Seqno(8) }));
        roundtrip(Frame::Pt2PtW(FlowHdr::Data));
        roundtrip(Frame::MFlow(FlowHdr::Data));
        roundtrip(Frame::Pt2PtW(FlowHdr::Credit { granted: 64 }));
        roundtrip(Frame::MFlow(FlowHdr::Credit { granted: 128 }));
        roundtrip(Frame::Frag(FragHdr::Whole));
        roundtrip(Frame::Frag(FragHdr::Piece {
            msg_id: 77,
            idx: 1,
            total: 3,
        }));
        roundtrip(Frame::Collect(CollectHdr::Pass));
        roundtrip(Frame::Collect(CollectHdr::Gossip {
            seen: vec![1, 2, 3],
        }));
        roundtrip(Frame::Total(TotalHdr::Ordered { order: Seqno(6) }));
        roundtrip(Frame::Total(TotalHdr::Unordered { local: Seqno(2) }));
        roundtrip(Frame::Total(TotalHdr::Order {
            origin: Rank(1),
            local: Seqno(2),
            order: Seqno(10),
        }));
        roundtrip(Frame::Stable(StableHdr::Pass));
        roundtrip(Frame::Stable(StableHdr::Gossip { row: vec![0, 9] }));
        roundtrip(Frame::Suspect(SuspectHdr::Pass));
        roundtrip(Frame::Suspect(SuspectHdr::Ping { round: 4 }));
        roundtrip(Frame::Suspect(SuspectHdr::Pong { round: 4 }));
        roundtrip(Frame::Sync(SyncHdr::Pass));
        roundtrip(Frame::Sync(SyncHdr::Flush { suspects: vec![2] }));
        roundtrip(Frame::Sync(SyncHdr::FlushOk { seen: vec![5] }));
        roundtrip(Frame::Gmp(GmpHdr::Pass));
        roundtrip(Frame::Gmp(GmpHdr::NewView {
            view_id_ltime: 3,
            coord: Endpoint::new(1),
            members: vec![Endpoint::new(1), Endpoint::new(2)],
        }));
        roundtrip(Frame::Sign { mac: 0xFEED });
        roundtrip(Frame::Encrypt { keyid: 1 });
    }

    #[test]
    fn full_stack_of_frames_roundtrips() {
        let mut m = Msg::data(Payload::from_slice(&[7u8; 100]));
        m.push_frame(Frame::NoHdr);
        m.push_frame(Frame::Total(TotalHdr::Ordered { order: Seqno(3) }));
        m.push_frame(Frame::Frag(FragHdr::Whole));
        m.push_frame(Frame::MFlow(FlowHdr::Data));
        m.push_frame(Frame::Mnak(MnakHdr::Data { seqno: Seqno(3) }));
        m.push_frame(Frame::Bottom { view_ltime: 0 });
        let bytes = marshal(&m);
        let back = unmarshal(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.depth(), 6);
    }

    #[test]
    fn empty_message_roundtrips() {
        let m = Msg::control();
        assert_eq!(unmarshal(&marshal(&m)).unwrap(), m);
    }

    #[test]
    fn owned_unmarshal_views_the_buffer_it_was_given() {
        let mut m = Msg::data(Payload::from_slice(&[7u8; 100]));
        m.push_frame(Frame::Mnak(MnakHdr::Data { seqno: Seqno(3) }));
        let bytes = marshal(&m);
        let buf = bytes.as_ptr_range();
        let back = unmarshal_owned(bytes).unwrap();
        assert_eq!(back, m);
        let seg = back.payload().segments().next().unwrap().as_ptr_range();
        assert!(buf.start < seg.start && seg.end == buf.end);
    }

    #[test]
    fn bad_tag_rejected() {
        let mut w = WireWriter::new();
        w.u8(1); // One frame.
        w.bytes(&[99]); // Unknown tag 99.
        w.bytes(b"");
        assert_eq!(rejected(w.finish()), WireError::BadTag(99));
    }

    #[test]
    fn truncated_rejected() {
        let mut m = Msg::data(Payload::from_slice(b"abc"));
        m.push_frame(Frame::NoHdr);
        let mut bytes = marshal(&m);
        bytes.truncate(bytes.len() - 2);
        assert_eq!(rejected(bytes), WireError::BadLength(3));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let m = Msg::control();
        let mut bytes = marshal(&m);
        bytes.push(0);
        assert_eq!(rejected(bytes), WireError::TrailingBytes(1));
    }
}
