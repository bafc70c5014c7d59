//! Messages: a payload plus a stack of per-layer header frames.

use crate::frame::Frame;
use crate::payload::Payload;

/// A message travelling through the stack.
///
/// Layers push one [`Frame`] on the way down and pop one on the way up;
/// the frame vector therefore acts as a stack whose top is the *lowest*
/// layer's header (the last pushed).
///
/// # Examples
///
/// ```
/// use ensemble_event::{Frame, Msg, Payload};
/// let mut m = Msg::data(Payload::from_slice(b"hi"));
/// m.push_frame(Frame::NoHdr);
/// assert_eq!(m.pop_frame(), Frame::NoHdr);
/// assert!(m.frames().is_empty());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Msg {
    frames: Vec<Frame>,
    payload: Payload,
}

impl Msg {
    /// A fresh application message with no headers yet.
    pub fn data(payload: Payload) -> Msg {
        Msg {
            frames: Vec::new(),
            payload,
        }
    }

    /// A fresh application message with room for `depth` headers: a
    /// stack of that many layers pushes its frames without regrowing the
    /// vector, and `frag` keeps that room in every piece's copy.
    pub fn with_depth(payload: Payload, depth: usize) -> Msg {
        Msg {
            frames: Vec::with_capacity(depth),
            payload,
        }
    }

    /// A headerless, payloadless control message (layers then push their
    /// control headers onto it).
    pub fn control() -> Msg {
        Msg::default()
    }

    /// Builds a message from parts (used by the transport unmarshaler).
    pub fn from_parts(frames: Vec<Frame>, payload: Payload) -> Msg {
        Msg { frames, payload }
    }

    /// The header stack, outermost (lowest layer) last.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The user payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Replaces the payload (used by `frag` and `encrypt`).
    pub fn set_payload(&mut self, p: Payload) {
        self.payload = p;
    }

    /// Pushes this layer's header (called on the way down).
    pub fn push_frame(&mut self, f: Frame) {
        self.frames.push(f);
    }

    /// Pops this layer's header (called on the way up).
    ///
    /// # Panics
    ///
    /// Panics if the frame stack is empty — that is a layering bug: some
    /// layer forgot to push or popped twice.
    pub fn pop_frame(&mut self) -> Frame {
        self.frames
            .pop()
            .expect("layering violation: popped an empty frame stack")
    }

    /// Peeks at the outermost frame without popping.
    pub fn peek_frame(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// Number of frames currently on the message.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Consumes the message into its parts.
    pub fn into_parts(self) -> (Vec<Frame>, Payload) {
        (self.frames, self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{mnak_data, Pt2PtHdr};
    use ensemble_util::Seqno;

    #[test]
    fn push_pop_is_lifo() {
        let mut m = Msg::data(Payload::from_slice(b"x"));
        m.push_frame(Frame::NoHdr);
        m.push_frame(mnak_data(4));
        assert_eq!(m.depth(), 2);
        assert_eq!(m.pop_frame(), mnak_data(4));
        assert_eq!(m.pop_frame(), Frame::NoHdr);
    }

    #[test]
    #[should_panic(expected = "layering violation")]
    fn pop_empty_panics() {
        Msg::control().pop_frame();
    }

    #[test]
    fn peek_does_not_remove() {
        let mut m = Msg::control();
        m.push_frame(Frame::Pt2Pt(Pt2PtHdr::Ack { ack: Seqno(7) }));
        assert!(m.peek_frame().is_some());
        assert_eq!(m.depth(), 1);
    }

    #[test]
    fn parts_roundtrip() {
        let mut m = Msg::data(Payload::from_slice(b"abc"));
        m.push_frame(Frame::NoHdr);
        let (frames, payload) = m.clone().into_parts();
        assert_eq!(Msg::from_parts(frames, payload), m);
    }

    #[test]
    fn control_is_empty() {
        let m = Msg::control();
        assert_eq!(m.depth(), 0);
        assert!(m.payload().is_empty());
    }
}
