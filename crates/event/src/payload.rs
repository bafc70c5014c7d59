//! Zero-copy message payloads.
//!
//! §4.2 of the paper stresses avoiding copies on the critical path by using
//! scatter-gather ("iovec") interfaces. [`Payload`] mirrors that: a payload
//! is a list of views into reference-counted buffers; cloning a payload,
//! appending another, cutting it into fragments or taking a sub-range
//! never copies user data. Bytes are copied where they enter
//! ([`Payload::from_slice`]) and where they leave ([`Payload::gather`], or
//! the marshaler writing [`Payload::segments`] into a datagram).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// One view: `len` bytes at `off` in a shared buffer.
#[derive(Clone)]
struct Seg {
    buf: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Seg {
    fn bytes(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }
}

/// An immutable, reference-counted, segmented byte payload.
///
/// # Examples
///
/// ```
/// use ensemble_event::Payload;
/// let p = Payload::from_slice(b"hello ").appended(Payload::from_slice(b"world"));
/// assert_eq!(p.len(), 11);
/// assert_eq!(p.gather(), b"hello world");
/// assert_eq!(p.slice(3..8).gather(), b"lo wo");
/// ```
#[derive(Clone, Default)]
pub struct Payload(Segs);

/// A payload's views, in order. Most payloads have one: it is held inline,
/// so building, cloning or dropping such a payload allocates nothing of
/// its own (and a `Payload` is no larger than a `Vec`).
#[derive(Clone, Default)]
enum Segs {
    #[default]
    None,
    One(Seg),
    Many(Vec<Seg>),
}

impl Payload {
    /// The empty payload.
    pub fn empty() -> Self {
        Payload::default()
    }

    /// Builds a single-segment payload by copying `bytes` once.
    pub fn from_slice(bytes: &[u8]) -> Self {
        Payload::from_vec(bytes.to_vec())
    }

    /// Builds a single-segment payload that owns `bytes`: the vector's
    /// buffer becomes the shared buffer, nothing is copied.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        if bytes.is_empty() {
            return Payload::empty();
        }
        Payload(Segs::One(Seg {
            len: bytes.len(),
            off: 0,
            buf: Arc::new(bytes),
        }))
    }

    fn segs(&self) -> &[Seg] {
        match &self.0 {
            Segs::None => &[],
            Segs::One(seg) => std::slice::from_ref(seg),
            Segs::Many(segs) => segs,
        }
    }

    fn push(&mut self, seg: Seg) {
        self.0 = match std::mem::take(&mut self.0) {
            Segs::None => Segs::One(seg),
            Segs::One(first) => Segs::Many(vec![first, seg]),
            Segs::Many(mut segs) => {
                segs.push(seg);
                Segs::Many(segs)
            }
        };
    }

    /// Builds a payload of `len` bytes filled with `byte`.
    pub fn filled(byte: u8, len: usize) -> Self {
        Payload::from_vec(vec![byte; len])
    }

    /// Total byte length across all segments.
    pub fn len(&self) -> usize {
        self.segs().iter().map(|s| s.len).sum()
    }

    /// Whether the payload has zero bytes.
    pub fn is_empty(&self) -> bool {
        self.segs().is_empty()
    }

    /// Number of segments (wire writes needed under scatter-gather).
    pub fn seg_count(&self) -> usize {
        self.segs().len()
    }

    /// Iterates over the raw segments.
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        self.segs().iter().map(Seg::bytes)
    }

    /// Returns a new payload that is `self` followed by `tail` (no copy).
    pub fn appended(&self, tail: Payload) -> Payload {
        let mut p = self.clone();
        match tail.0 {
            Segs::None => {}
            Segs::One(seg) => p.push(seg),
            Segs::Many(segs) => segs.into_iter().for_each(|seg| p.push(seg)),
        }
        p
    }

    /// The bytes in `range` as a payload sharing this one's buffers (no
    /// copy). A view keeps the whole of each buffer it touches alive.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie within `0..=len`.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} outside a payload of {} bytes",
            self.len()
        );
        let mut p = Payload::empty();
        let mut at = 0;
        for s in self.segs() {
            let lo = range.start.max(at);
            let hi = range.end.min(at + s.len);
            if lo < hi {
                p.push(Seg {
                    buf: Arc::clone(&s.buf),
                    off: s.off + (lo - at),
                    len: hi - lo,
                });
            }
            at += s.len;
        }
        p
    }

    /// Gathers all segments into one contiguous vector (copies).
    pub fn gather(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for s in self.segs() {
            out.extend_from_slice(s.bytes());
        }
        out
    }

    /// Cuts the payload into fragments of `max_frag` bytes (the last may
    /// be shorter), each a view of this payload's buffers (no copy).
    ///
    /// Used by the `frag` layer. Fragments are returned in order and
    /// gathering their concatenation reproduces the original bytes.
    pub fn split_into(&self, max_frag: usize) -> Vec<Payload> {
        assert!(max_frag > 0, "fragment size must be positive");
        let len = self.len();
        if len <= max_frag {
            return vec![self.clone()];
        }
        (0..len)
            .step_by(max_frag)
            .map(|at| self.slice(at..len.min(at + max_frag)))
            .collect()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        // Compare logical byte streams, ignoring segmentation.
        self.gather() == other.gather()
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload[{}B x{}]", self.len(), self.seg_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_payload() {
        let p = Payload::empty();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.seg_count(), 0);
        assert_eq!(p.gather(), Vec::<u8>::new());
    }

    #[test]
    fn from_slice_and_vec_agree() {
        let a = Payload::from_slice(b"abc");
        let b = Payload::from_vec(b"abc".to_vec());
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn append_is_zero_copy_concat() {
        let a = Payload::from_slice(b"ab");
        let b = Payload::from_slice(b"cd");
        let c = a.appended(b);
        assert_eq!(c.len(), 4);
        assert_eq!(c.seg_count(), 2);
        assert_eq!(c.gather(), b"abcd");
    }

    #[test]
    fn equality_ignores_segmentation() {
        let a = Payload::from_slice(b"ab").appended(Payload::from_slice(b"cd"));
        let b = Payload::from_slice(b"abcd");
        assert_eq!(a, b);
        assert_ne!(a, Payload::from_slice(b"abce"));
        assert_ne!(a, Payload::from_slice(b"abc"));
    }

    #[test]
    fn clone_shares_segments() {
        let a = Payload::filled(7, 1024);
        let b = a.clone();
        // Both views see the same backing store.
        assert!(Arc::ptr_eq(&a.segs()[0].buf, &b.segs()[0].buf));
    }

    #[test]
    fn split_reassembles() {
        let p = Payload::from_vec((0..=255u8).collect());
        let frags = p.split_into(100);
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].len(), 100);
        assert_eq!(frags[2].len(), 56);
        let mut whole = Payload::empty();
        for f in &frags {
            whole = whole.appended(f.clone());
        }
        assert_eq!(whole, p);
    }

    #[test]
    fn split_small_is_identity() {
        let p = Payload::from_slice(b"tiny");
        let frags = p.split_into(100);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], p);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn split_zero_panics() {
        Payload::from_slice(b"x").split_into(0);
    }

    #[test]
    fn from_vec_keeps_the_vectors_buffer() {
        let v = vec![9u8; 64];
        let at = v.as_ptr();
        let p = Payload::from_vec(v);
        assert_eq!(p.segments().next().unwrap().as_ptr(), at);
    }

    #[test]
    fn every_split_reproduces_the_bytes_and_shares_the_buffers() {
        let parts: [Vec<u8>; 3] = [(0..7u8).collect(), (7..8u8).collect(), (8..19u8).collect()];
        let whole = parts
            .iter()
            .fold(Payload::empty(), |p, b| p.appended(Payload::from_slice(b)));
        assert_eq!(whole.seg_count(), 3);
        let bytes = whole.gather();
        for max_frag in 1..=whole.len() {
            let frags = whole.split_into(max_frag);
            assert_eq!(frags.len(), whole.len().div_ceil(max_frag), "{max_frag}");
            let mut back = Vec::new();
            for f in &frags {
                assert!(f.len() <= max_frag && !f.is_empty(), "{max_frag}");
                for s in f.segs() {
                    assert!(
                        whole.segs().iter().any(|w| Arc::ptr_eq(&w.buf, &s.buf)),
                        "max_frag {max_frag}: a fragment copied its bytes"
                    );
                }
                back.extend(f.gather());
            }
            assert_eq!(back, bytes, "max_frag {max_frag}");
        }
    }

    #[test]
    fn a_view_outlives_the_payload_it_was_cut_from() {
        let source = Payload::from_vec((0..100u8).collect());
        let buf = Arc::downgrade(&source.segs()[0].buf);
        let view = source.slice(40..60);
        let frag = source.split_into(30).remove(3);
        drop(source);
        assert_eq!(view.gather(), (40..60u8).collect::<Vec<_>>());
        assert_eq!(frag.gather(), (90..100u8).collect::<Vec<_>>());
        drop(view);
        assert!(
            buf.upgrade().is_some(),
            "the fragment still pins the buffer"
        );
        drop(frag);
        assert!(buf.upgrade().is_none(), "the last view frees it");
    }

    #[test]
    fn slice_edges() {
        let p = Payload::from_slice(b"ab").appended(Payload::from_slice(b"cd"));
        assert_eq!(p.slice(0..4), p);
        assert_eq!(p.slice(1..3).gather(), b"bc");
        assert_eq!(p.slice(1..3).seg_count(), 2);
        assert_eq!(p.slice(2..4).seg_count(), 1);
        assert!(p.slice(2..2).is_empty());
        assert_eq!(p.slice(2..2).seg_count(), 0);
    }

    #[test]
    #[should_panic(expected = "outside a payload")]
    fn slice_past_the_end_panics() {
        Payload::from_slice(b"abc").slice(1..4);
    }
}
