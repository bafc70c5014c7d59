//! The compressed header format emitted by the synthesis pipeline.
//!
//! §4.1.3: "most information in headers seldom changes, allowing for
//! significant compression of headers, typically to just 16 bytes". The
//! synthesized bypass knows, from the optimization theorems, exactly which
//! header fields are constant for a given (stack, case); the constants are
//! folded into a single identifier and only the varying fields travel.
//!
//! Layout (little-endian):
//!
//! ```text
//! +---------+---------+---------+----------------+----------------+
//! | u32     | u8      | u8      | u16            | n × u64        |
//! | stackid | case    | nfields | payload seghint| varying fields |
//! +---------+---------+---------+----------------+----------------+
//! ```
//!
//! With one varying field (the common data seqno) the header is exactly
//! 16 bytes, matching the paper.

use crate::wire::{WireError, WireReader, WireWriter};

/// Size of the fixed part of a compressed header.
pub const COMPRESSED_BASE_LEN: usize = 8;

/// Most varying fields one compressed header carries. The synthesized
/// bypass refuses a template with more, and `decode` rejects a header
/// that claims more: the fields then live inline, and neither encoding
/// nor decoding allocates.
pub const MAX_FIELDS: usize = 8;

/// A compressed header: the constant parts of an entire header stack
/// reduced to `(stack_id, case)`, plus the varying fields in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressedHdr {
    /// Identifies the sending stack's layer composition (a hash of the
    /// layer names, computed by the synthesis pipeline).
    pub stack_id: u32,
    /// Which of the four fundamental cases (and which bypass path) this is.
    pub case: u8,
    nfields: u8,
    /// `fields[nfields..]` stay zero, so the derived equality holds.
    fields: [u64; MAX_FIELDS],
}

impl CompressedHdr {
    /// Builds a compressed header.
    ///
    /// # Panics
    ///
    /// Panics if `fields` holds more than [`MAX_FIELDS`] values.
    pub fn new(stack_id: u32, case: u8, fields: impl AsRef<[u64]>) -> Self {
        let fields = fields.as_ref();
        assert!(
            fields.len() <= MAX_FIELDS,
            "{} varying fields (at most {MAX_FIELDS})",
            fields.len()
        );
        let mut hdr = CompressedHdr {
            stack_id,
            case,
            nfields: fields.len() as u8,
            fields: [0; MAX_FIELDS],
        };
        hdr.fields[..fields.len()].copy_from_slice(fields);
        hdr
    }

    /// The varying header fields, in the order the theorems list them.
    pub fn fields(&self) -> &[u64] {
        &self.fields[..usize::from(self.nfields)]
    }

    /// The encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        COMPRESSED_BASE_LEN + 8 * usize::from(self.nfields)
    }

    /// Encodes the header followed by the raw payload bytes.
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        self.encode_segments(payload.len(), [payload])
    }

    /// Encodes the header followed by `segments` (`len` bytes in all)
    /// into one buffer sized up front: a scattered payload is gathered
    /// straight into the packet.
    pub fn encode_segments<'a>(
        &self,
        len: usize,
        segments: impl IntoIterator<Item = &'a [u8]>,
    ) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.encoded_len() + len);
        w.u32(self.stack_id);
        w.u8(self.case);
        w.u8(self.nfields);
        w.u16(0);
        for &f in self.fields() {
            w.u64(f);
        }
        for s in segments {
            w.raw(s);
        }
        w.finish()
    }

    /// Decodes a compressed header, returning it and the payload bytes.
    /// A header claiming more than [`MAX_FIELDS`] fields is rejected.
    pub fn decode(bytes: &[u8]) -> Result<(CompressedHdr, &[u8]), WireError> {
        let mut r = WireReader::new(bytes);
        let stack_id = r.u32()?;
        let case = r.u8()?;
        let nfields = r.u8()?;
        if usize::from(nfields) > MAX_FIELDS {
            return Err(WireError::BadLength(usize::from(nfields)));
        }
        let _seghint = r.u16()?;
        let mut hdr = CompressedHdr {
            stack_id,
            case,
            nfields,
            fields: [0; MAX_FIELDS],
        };
        for f in &mut hdr.fields[..usize::from(nfields)] {
            *f = r.u64()?;
        }
        Ok((hdr, &bytes[hdr.encoded_len()..]))
    }
}

/// Computes the stack identifier for a list of layer names.
///
/// FNV-1a over the concatenated names; stable across runs so sender and
/// receiver bypasses generated from the same stack agree.
pub fn stack_id(layer_names: &[&str]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for name in layer_names {
        for b in name.bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_byte_common_case() {
        let h = CompressedHdr::new(0xABCD, 1, vec![42]);
        assert_eq!(h.encoded_len(), 16);
        let bytes = h.encode(b"data");
        assert_eq!(bytes.len(), 16 + 4);
    }

    #[test]
    fn roundtrip_with_payload() {
        let h = CompressedHdr::new(7, 3, vec![1, 2, 3]);
        let bytes = h.encode(b"xyz");
        let (back, payload) = CompressedHdr::decode(&bytes).unwrap();
        assert_eq!(back, h);
        assert_eq!(payload, b"xyz");
    }

    #[test]
    fn roundtrip_no_fields_no_payload() {
        let h = CompressedHdr::new(1, 0, vec![]);
        assert_eq!(h.encoded_len(), COMPRESSED_BASE_LEN);
        let bytes = h.encode(b"");
        let (back, payload) = CompressedHdr::decode(&bytes).unwrap();
        assert_eq!(back, h);
        assert!(payload.is_empty());
    }

    #[test]
    fn more_than_max_fields_is_rejected() {
        let h = CompressedHdr::new(7, 3, [5; MAX_FIELDS]);
        let mut bytes = h.encode(b"sixteen bytes...");
        assert_eq!(CompressedHdr::decode(&bytes).unwrap().0, h);
        // Claim one field more, which the payload's bytes would cover.
        bytes[5] = MAX_FIELDS as u8 + 1;
        assert_eq!(
            CompressedHdr::decode(&bytes),
            Err(WireError::BadLength(MAX_FIELDS + 1))
        );
        bytes[5] = 255;
        assert!(CompressedHdr::decode(&bytes).is_err());
    }

    #[test]
    fn segments_encode_like_one_slice() {
        let h = CompressedHdr::new(9, 0, [1, 2]);
        let parts: [&[u8]; 3] = [b"ab", b"", b"cde"];
        assert_eq!(h.encode_segments(5, parts), h.encode(b"abcde"));
    }

    #[test]
    fn truncated_rejected() {
        let h = CompressedHdr::new(7, 3, vec![9]);
        let bytes = h.encode(b"");
        assert!(CompressedHdr::decode(&bytes[..10]).is_err());
    }

    #[test]
    fn stack_id_stable_and_order_sensitive() {
        let a = stack_id(&["mnak", "pt2pt", "bottom"]);
        let b = stack_id(&["mnak", "pt2pt", "bottom"]);
        let c = stack_id(&["pt2pt", "mnak", "bottom"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Name-boundary separator prevents ["ab","c"] == ["a","bc"].
        assert_ne!(stack_id(&["ab", "c"]), stack_id(&["a", "bc"]));
    }
}
