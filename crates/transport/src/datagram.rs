//! Datagram framing at the socket seam.
//!
//! A [`Packet`] travelling over a real transport (UDP, or any future
//! byte-oriented link) is wrapped in a small self-describing envelope:
//! magic + version for safe rejection of foreign traffic, the source
//! endpoint, the destination kind, and the marshaled message bytes. The
//! envelope deliberately carries *no* protocol state — everything the
//! stack needs is inside `bytes` (generic or compressed format), so the
//! seam stays as narrow as the paper's transport interface.

use crate::packet::{Dest, Packet};
use crate::wire::{WireError, WireReader, WireWriter};
use ensemble_util::Endpoint;

/// First bytes of every datagram ("EN" + format id).
const MAGIC: u16 = 0x454E;
/// Envelope version; bump on incompatible layout changes.
const VERSION: u8 = 1;

const KIND_CAST: u8 = 0;
const KIND_POINT: u8 = 1;

/// Fixed envelope overhead in bytes (magic, version, kind, src, length).
pub const DATAGRAM_OVERHEAD: usize = 2 + 1 + 1 + 8 + 4;

/// Encodes a packet into one datagram.
pub fn encode_datagram(pkt: &Packet) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(DATAGRAM_OVERHEAD + 8 + pkt.bytes.len());
    w.u16(MAGIC);
    w.u8(VERSION);
    match pkt.dst {
        Dest::Cast => w.u8(KIND_CAST),
        Dest::Point(ep) => {
            w.u8(KIND_POINT);
            w.u64(ep.to_wire());
        }
    }
    w.u64(pkt.src.to_wire());
    w.bytes(&pkt.bytes);
    w.finish()
}

/// Decodes one datagram back into a packet, copying the body out.
///
/// Foreign traffic (wrong magic or version) and truncated envelopes
/// return an error; the caller should drop such datagrams.
pub fn decode_datagram(buf: &[u8]) -> Result<Packet, WireError> {
    let (src, dst, body) = parse_envelope(buf)?;
    Ok(Packet {
        src,
        dst,
        bytes: body.to_vec(),
    })
}

/// Decodes a datagram the caller owns: the envelope is stripped in place
/// and `buf`, now holding only the body, becomes the packet's bytes.
pub fn decode_datagram_owned(mut buf: Vec<u8>) -> Result<Packet, WireError> {
    let (src, dst, body) = parse_envelope(&buf)?;
    // `parse_envelope` accepts nothing after the body: it is the tail.
    buf.drain(..buf.len() - body.len());
    Ok(Packet {
        src,
        dst,
        bytes: buf,
    })
}

/// Checks the envelope and returns source, destination and body.
fn parse_envelope(buf: &[u8]) -> Result<(Endpoint, Dest, &[u8]), WireError> {
    let mut r = WireReader::new(buf);
    let magic = r.u16()?;
    if magic != MAGIC {
        return Err(WireError::BadTag((magic >> 8) as u8));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(WireError::BadTag(version));
    }
    let dst = match r.u8()? {
        KIND_CAST => Dest::Cast,
        KIND_POINT => Dest::Point(Endpoint::from_wire(r.u64()?)),
        other => return Err(WireError::BadTag(other)),
    };
    let src = Endpoint::from_wire(r.u64()?);
    let body = r.bytes()?;
    r.expect_end()?;
    Ok((src, dst, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `p` and checks that both decoders give it back.
    fn roundtrip(p: Packet) {
        let d = encode_datagram(&p);
        assert_eq!(decode_datagram(&d).unwrap(), p);
        assert_eq!(decode_datagram_owned(d).unwrap(), p);
    }

    #[test]
    fn cast_roundtrips() {
        roundtrip(Packet::cast(Endpoint::new(3), vec![1, 2, 3, 4]));
    }

    #[test]
    fn point_roundtrips() {
        roundtrip(Packet::point(
            Endpoint::with_incarnation(7, 2),
            Endpoint::new(1),
            b"payload".to_vec(),
        ));
    }

    #[test]
    fn empty_body_roundtrips() {
        roundtrip(Packet::cast(Endpoint::new(0), Vec::new()));
    }

    #[test]
    fn foreign_magic_is_rejected() {
        let p = Packet::cast(Endpoint::new(0), vec![9]);
        let mut d = encode_datagram(&p);
        d[0] ^= 0xFF;
        assert!(decode_datagram(&d).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let p = Packet::cast(Endpoint::new(0), vec![9]);
        let mut d = encode_datagram(&p);
        d[2] = VERSION + 1;
        assert!(decode_datagram(&d).is_err());
    }

    #[test]
    fn truncation_is_rejected() {
        let p = Packet::point(Endpoint::new(0), Endpoint::new(1), vec![1, 2, 3]);
        let d = encode_datagram(&p);
        for cut in 1..d.len() {
            assert!(decode_datagram(&d[..cut]).is_err(), "cut at {cut}");
            assert!(decode_datagram_owned(d[..cut].to_vec()).is_err());
        }
    }

    #[test]
    fn garbage_never_panics() {
        let mut rng = ensemble_util::DetRng::new(42);
        for _ in 0..500 {
            let len = rng.below(64) as usize;
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            let _ = decode_datagram(&buf);
        }
    }
}
