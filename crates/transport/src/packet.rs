//! Wire packets exchanged between processes.
//!
//! This is the transport-seam vocabulary shared by the deterministic
//! simulator (`ensemble::sim`) and the real-socket runtime
//! (`ensemble-runtime`): a packet is a source endpoint, a destination
//! (multicast or point-to-point), and the already-marshaled bytes. It
//! lives here — not in the simulator crate — so transports and the
//! runtime need no dependency on simulation machinery.

use ensemble_util::Endpoint;

/// The destination of a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// Multicast to every current member except the sender.
    Cast,
    /// Point-to-point to one endpoint.
    Point(Endpoint),
}

/// A marshaled message in flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// The sending endpoint.
    pub src: Endpoint,
    /// Where the packet is going.
    pub dst: Dest,
    /// The marshaled bytes (headers + payload).
    pub bytes: Vec<u8>,
}

impl Packet {
    /// Builds a multicast packet.
    pub fn cast(src: Endpoint, bytes: Vec<u8>) -> Packet {
        Packet {
            src,
            dst: Dest::Cast,
            bytes,
        }
    }

    /// Builds a point-to-point packet.
    pub fn point(src: Endpoint, dst: Endpoint, bytes: Vec<u8>) -> Packet {
        Packet {
            src,
            dst: Dest::Point(dst),
            bytes,
        }
    }

    /// The wire size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let a = Endpoint::new(0);
        let b = Endpoint::new(1);
        let p = Packet::cast(a, vec![1, 2, 3]);
        assert_eq!(p.dst, Dest::Cast);
        assert_eq!(p.size(), 3);
        let q = Packet::point(a, b, vec![]);
        assert_eq!(q.dst, Dest::Point(b));
        assert_eq!(q.size(), 0);
    }
}
