//! The hand-written fast path for the 4-layer stack.
//!
//! Functionally equal (under its CCP) to routing the event through
//! `top | pt2pt | mnak | bottom` plus the generic marshaler, but written
//! as straight-line Rust with the wire encoding inlined:
//!
//! * casts: `mnak` numbering + the 16-byte compressed header, in place;
//! * sends: `pt2pt` numbering with piggybacked cumulative ack;
//! * deliveries: in-sequence check, state bump, payload out;
//! * buffering (retransmission stores) is deferred off the critical path;
//! * the deliver→send optimization (§4.2): a send issued right after a
//!   bypass delivery skips the CCP check, assuming the response is
//!   bypassable too. The paper notes this assumption is not generally
//!   safe, which is why HAND "cannot be generally substituted for the
//!   original code"; we replicate both the optimization and its
//!   documented caveat.
//!
//! The wire format matches `ensemble-synth`'s compressed headers so HAND
//! and MACH peers interoperate.

use ensemble_event::Payload;
use ensemble_transport::{stack_id, CompressedHdr};

/// Wire-format case tags (shared with the synthesized bypass).
const CASE_CAST: u8 = 0;
const CASE_SEND: u8 = 1;

/// The 4-layer stack this bypass is hard-wired for.
pub const HAND_STACK: &[&str] = &["top", "pt2pt", "mnak", "bottom"];

/// Output of a fast-path invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HandOutput {
    /// The CCP failed: route through the real stack.
    Fallback,
    /// Wire bytes ready to transmit (dst `None` = cast).
    Wire {
        /// Destination rank, or `None` for a cast.
        dst: Option<u16>,
        /// The marshaled bytes.
        bytes: Vec<u8>,
    },
    /// A delivery `(origin, payload)`.
    Deliver(u16, Payload),
}

/// Deferred buffering work (processed off the critical path).
#[derive(Clone, Debug)]
pub struct HandDeferred {
    /// `true` for cast traffic, `false` for sends.
    pub is_cast: bool,
    /// The sequence number assigned.
    pub seqno: u64,
    /// The retained payload.
    pub payload: Payload,
}

/// The hand-optimized 4-layer bypass.
pub struct HandBypass {
    id: u32,
    my_rank: u16,
    view_ltime: u64,
    // mnak state.
    cast_next: u64,
    cast_expected: Vec<u64>,
    // pt2pt state.
    send_next: Vec<u64>,
    recv_next: Vec<u64>,
    // The deliver→send optimization: set after a bypass delivery.
    hot: bool,
    deferred: Vec<HandDeferred>,
    /// CCP failures observed.
    pub fallbacks: u64,
    /// Sends that skipped the CCP via the deliver→send optimization.
    pub hot_sends: u64,
}

impl HandBypass {
    /// Builds the bypass for a view of `n` members at `my_rank`.
    pub fn new(n: usize, my_rank: u16) -> Self {
        HandBypass {
            // A HAND-specific marker is folded in: the hand-written
            // layout is not byte-compatible with the synthesized one, so
            // the identifiers must differ (mis-acceptance would corrupt).
            id: stack_id(HAND_STACK) ^ 0x48_41_4E_44,
            my_rank,
            view_ltime: 0,
            cast_next: 0,
            cast_expected: vec![0; n],
            send_next: vec![0; n],
            recv_next: vec![0; n],
            hot: false,
            deferred: Vec::new(),
            fallbacks: 0,
            hot_sends: 0,
        }
    }

    /// The compressed-header stack identifier.
    pub fn stack_id(&self) -> u32 {
        self.id
    }

    /// Fast-path multicast. The 4-layer cast CCP is simply "the stack is
    /// enabled" (always true here), so this never falls back.
    pub fn dn_cast(&mut self, payload: &Payload) -> HandOutput {
        let seqno = self.cast_next;
        self.cast_next += 1;
        // Transport integrated: encode straight into the packet buffer.
        let hdr = CompressedHdr::new(self.id, CASE_CAST, [seqno, self.view_ltime]);
        let bytes = hdr.encode_segments(payload.len(), payload.segments());
        self.deferred.push(HandDeferred {
            is_cast: true,
            seqno,
            payload: payload.clone(),
        });
        self.hot = false;
        HandOutput::Wire { dst: None, bytes }
    }

    /// Fast-path point-to-point send.
    pub fn dn_send(&mut self, dst: u16, payload: &Payload) -> HandOutput {
        if dst == self.my_rank || dst as usize >= self.send_next.len() {
            self.fallbacks += 1;
            return HandOutput::Fallback;
        }
        if self.hot {
            // Deliver→send: the CCP outcome of the delivery is assumed to
            // carry over to the response (§4.2).
            self.hot_sends += 1;
            self.hot = false;
        }
        let d = dst as usize;
        let seqno = self.send_next[d];
        self.send_next[d] += 1;
        let hdr = CompressedHdr::new(
            self.id,
            CASE_SEND,
            [seqno, self.recv_next[d], self.view_ltime],
        );
        let bytes = hdr.encode_segments(payload.len(), payload.segments());
        self.deferred.push(HandDeferred {
            is_cast: false,
            seqno,
            payload: payload.clone(),
        });
        HandOutput::Wire {
            dst: Some(dst),
            bytes,
        }
    }

    /// Fast-path cast receive.
    pub fn up_cast(&mut self, origin: u16, bytes: &[u8]) -> HandOutput {
        let Ok((hdr, body)) = CompressedHdr::decode(bytes) else {
            self.fallbacks += 1;
            return HandOutput::Fallback;
        };
        // CCP: right stack, right case, current view, in sequence.
        let f = hdr.fields();
        if hdr.stack_id != self.id
            || hdr.case != CASE_CAST
            || f.len() != 2
            || f[1] != self.view_ltime
            || origin as usize >= self.cast_expected.len()
            || f[0] != self.cast_expected[origin as usize]
        {
            self.fallbacks += 1;
            return HandOutput::Fallback;
        }
        self.cast_expected[origin as usize] += 1;
        self.hot = true;
        HandOutput::Deliver(origin, Payload::from_slice(body))
    }

    /// Fast-path send receive.
    pub fn up_send(&mut self, origin: u16, bytes: &[u8]) -> HandOutput {
        let Ok((hdr, body)) = CompressedHdr::decode(bytes) else {
            self.fallbacks += 1;
            return HandOutput::Fallback;
        };
        let f = hdr.fields();
        if hdr.stack_id != self.id
            || hdr.case != CASE_SEND
            || f.len() != 3
            || f[2] != self.view_ltime
            || origin as usize >= self.recv_next.len()
            || f[0] != self.recv_next[origin as usize]
        {
            self.fallbacks += 1;
            return HandOutput::Fallback;
        }
        let o = origin as usize;
        self.recv_next[o] += 1;
        // The piggybacked cumulative ack prunes our unacked store — that
        // store lives in the real stack; pruning is deferred work here.
        self.hot = true;
        HandOutput::Deliver(origin, Payload::from_slice(body))
    }

    /// Bench hook: the "stack" part of a cast send — sequence-number
    /// assignment only (buffering is deferred, encoding is transport).
    pub fn bench_cast_state(&mut self) -> u64 {
        let s = self.cast_next;
        self.cast_next += 1;
        s
    }

    /// Bench hook: the "stack" part of a cast receive over decoded fields.
    pub fn bench_cast_deliver(&mut self, origin: u16, seqno: u64, vl: u64) -> bool {
        let o = origin as usize;
        if vl != self.view_ltime || o >= self.cast_expected.len() || seqno != self.cast_expected[o]
        {
            return false;
        }
        self.cast_expected[o] += 1;
        self.hot = true;
        true
    }

    /// Bench hook: the "stack" part of a point-to-point send.
    pub fn bench_send_state(&mut self, dst: u16) -> (u64, u64) {
        let d = dst as usize;
        let s = self.send_next[d];
        self.send_next[d] += 1;
        (s, self.recv_next[d])
    }

    /// Bench hook: the "stack" part of a point-to-point receive.
    pub fn bench_send_deliver(&mut self, origin: u16, seqno: u64, vl: u64) -> bool {
        let o = origin as usize;
        if vl != self.view_ltime || o >= self.recv_next.len() || seqno != self.recv_next[o] {
            return false;
        }
        self.recv_next[o] += 1;
        self.hot = true;
        true
    }

    /// Pending deferred items (buffering, ack pruning).
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Drains the deferred work.
    pub fn drain_deferred(&mut self) -> Vec<HandDeferred> {
        std::mem::take(&mut self.deferred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_roundtrip() {
        let mut a = HandBypass::new(3, 0);
        let mut b = HandBypass::new(3, 1);
        let p = Payload::from_slice(b"hello");
        let HandOutput::Wire { dst, bytes } = a.dn_cast(&p) else {
            panic!("wire expected");
        };
        assert!(dst.is_none());
        assert_eq!(bytes.len(), 8 + 16 + 5, "base + 2 fields + payload");
        match b.up_cast(0, &bytes) {
            HandOutput::Deliver(o, pay) => {
                assert_eq!(o, 0);
                assert_eq!(pay, p);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn casts_in_order_only() {
        let mut a = HandBypass::new(2, 0);
        let mut b = HandBypass::new(2, 1);
        let w1 = match a.dn_cast(&Payload::from_slice(b"1")) {
            HandOutput::Wire { bytes, .. } => bytes,
            other => panic!("{other:?}"),
        };
        let w2 = match a.dn_cast(&Payload::from_slice(b"2")) {
            HandOutput::Wire { bytes, .. } => bytes,
            other => panic!("{other:?}"),
        };
        assert_eq!(b.up_cast(0, &w2), HandOutput::Fallback);
        assert!(matches!(b.up_cast(0, &w1), HandOutput::Deliver(..)));
        assert_eq!(b.fallbacks, 1);
    }

    #[test]
    fn send_roundtrip_with_seqnos() {
        let mut a = HandBypass::new(2, 0);
        let mut b = HandBypass::new(2, 1);
        for i in 0..10u8 {
            let p = Payload::from_slice(&[i]);
            let HandOutput::Wire { dst, bytes } = a.dn_send(1, &p) else {
                panic!("wire expected");
            };
            assert_eq!(dst, Some(1));
            match b.up_send(0, &bytes) {
                HandOutput::Deliver(_, pay) => assert_eq!(pay.gather(), vec![i]),
                other => panic!("{other:?} at {i}"),
            }
        }
        assert_eq!(b.fallbacks, 0);
    }

    #[test]
    fn deliver_then_send_skips_ccp() {
        let mut a = HandBypass::new(2, 0);
        let mut b = HandBypass::new(2, 1);
        let HandOutput::Wire { bytes, .. } = a.dn_send(1, &Payload::from_slice(b"req")) else {
            panic!();
        };
        b.up_send(0, &bytes);
        // The response rides the hot path.
        let before = b.hot_sends;
        b.dn_send(0, &Payload::from_slice(b"resp"));
        assert_eq!(b.hot_sends, before + 1);
    }

    #[test]
    fn self_send_falls_back() {
        let mut a = HandBypass::new(2, 0);
        assert_eq!(
            a.dn_send(0, &Payload::from_slice(b"me")),
            HandOutput::Fallback
        );
    }

    #[test]
    fn garbage_falls_back() {
        let mut b = HandBypass::new(2, 1);
        assert_eq!(b.up_cast(0, &[0, 1, 2]), HandOutput::Fallback);
        assert_eq!(b.up_send(0, &[]), HandOutput::Fallback);
    }

    #[test]
    fn wrong_view_falls_back() {
        let mut a = HandBypass::new(2, 0);
        let mut b = HandBypass::new(2, 1);
        b.view_ltime = 3;
        let HandOutput::Wire { bytes, .. } = a.dn_cast(&Payload::from_slice(b"x")) else {
            panic!();
        };
        assert_eq!(b.up_cast(0, &bytes), HandOutput::Fallback);
    }

    #[test]
    fn deferred_buffering_accumulates() {
        let mut a = HandBypass::new(2, 0);
        a.dn_cast(&Payload::from_slice(b"a"));
        a.dn_send(1, &Payload::from_slice(b"b"));
        assert_eq!(a.deferred_len(), 2);
        let work = a.drain_deferred();
        assert_eq!(work.len(), 2);
        assert!(work[0].is_cast);
        assert!(!work[1].is_cast);
        assert_eq!(a.deferred_len(), 0);
    }
}
