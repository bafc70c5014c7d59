//! Marshaling and wire formats.
//!
//! Ensemble has no fixed wire format for headers: the sender's stack
//! determines the header structure and the OCaml value marshaler serializes
//! it generically. This crate provides:
//!
//! * [`wire`] — a small byte reader/writer with explicit error handling;
//! * [`generic`] — the general marshaler that walks the header structure
//!   recursively (modelling the OCaml marshaler the paper replaces), used
//!   by the IMP and FUNC configurations;
//! * [`compressed`] — the 16-byte compressed header format produced by the
//!   synthesis pipeline (§4.1.3 "header compression"), used by the HAND and
//!   MACH bypasses;
//! * [`packet`] — the transport-seam packet type shared by the simulator
//!   and the real-socket runtime;
//! * [`datagram`] — the envelope framing packets over real datagram
//!   sockets (magic/version/src/dst + marshaled bytes).

#![forbid(unsafe_code)]

pub mod compressed;
pub mod datagram;
pub mod generic;
pub mod packet;
pub mod wire;

pub use compressed::{stack_id, CompressedHdr, COMPRESSED_BASE_LEN};
pub use datagram::{decode_datagram, decode_datagram_owned, encode_datagram, DATAGRAM_OVERHEAD};
pub use generic::{marshal, unmarshal, unmarshal_owned};
pub use packet::{Dest, Packet};
pub use wire::{WireError, WireReader, WireWriter};
