//! The client-facing wire protocol: length-prefixed binary frames.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload. Requests and responses are matched by a client-chosen
//! `req_id`, so a client may pipeline many requests on one connection
//! and collect completions out of order.
//!
//! ```text
//! frame    := len:u32le payload[len]
//! request  := req_id:u64le op
//! op       := 0x01 key              (GET)
//!           | 0x02 key val          (SET)
//!           | 0x03 key              (DEL)
//!           | 0x04 key opt(expect) val   (CAS)
//! key,val  := len:u32le bytes[len]
//! opt(x)   := 0x00 | 0x01 x
//! response := req_id:u64le result
//! result   := 0x81 ci:u64le opt(val)    (value at commit index ci)
//!           | 0x82 ci:u64le             (write applied at ci)
//!           | 0x83 ci:u64le ok:u8       (CAS decided at ci)
//!           | 0x8F code:u8              (error; no commit index)
//! ```
//!
//! The same `op` encoding doubles as the replicated cast payload, so what
//! the group orders is byte-for-byte what the client asked for:
//!
//! ```text
//! cast     := submitter:u32le (token:u64le op)+
//! ```
//!
//! One cast carries every request one socket `read` delivered on one
//! connection ([`encode_cast_batch`]; a depth-1 call is a cast of one
//! op). Its ops commit at consecutive commit indices in request order.
//! That is a property of the current server, bounded by the read size
//! and by `pipeline_depth`, and not a promise: a client that needs two
//! operations to be adjacent must not rely on having written them
//! together. A cast is decoded completely before any of it is applied
//! ([`decode_cast_batch`]): every replica applies all of its ops or none.

use std::io::{Read, Write};

/// Frames larger than this are refused — a corrupt length prefix must
/// not make a worker allocate gigabytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Error codes carried by the `0x8F` result.
pub const ERR_NOT_SERVING: u8 = 1;
pub const ERR_TIMEOUT: u8 = 2;
pub const ERR_MALFORMED: u8 = 3;
pub const ERR_CLOSED: u8 = 4;
pub const ERR_UNAVAILABLE: u8 = 5;

/// One key-value operation, as replicated through the total order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Read `key` (ordered like a write so reads respect commit order).
    Get(Vec<u8>),
    /// Bind `key` to `value`.
    Set(Vec<u8>, Vec<u8>),
    /// Remove `key`.
    Del(Vec<u8>),
    /// Compare-and-swap: bind `key` to `new` iff its current value is
    /// `expect` (`None` = iff the key is absent).
    Cas {
        /// The key to swap.
        key: Vec<u8>,
        /// Required current value (`None`: key must be absent).
        expect: Option<Vec<u8>>,
        /// Value installed when the comparison holds.
        new: Vec<u8>,
    },
}

impl KvOp {
    /// The key this operation touches.
    pub fn key(&self) -> &[u8] {
        match self {
            KvOp::Get(k) | KvOp::Del(k) | KvOp::Set(k, _) => k,
            KvOp::Cas { key, .. } => key,
        }
    }
}

/// What a replica answers, as decided at a commit index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvResult {
    /// A GET observed `value` (or absence) at commit index `ci`.
    Value {
        /// The commit index assigned to the read.
        ci: u64,
        /// The value bound to the key, or `None` if absent.
        value: Option<Vec<u8>>,
    },
    /// A SET or DEL was applied at commit index `ci`.
    Applied {
        /// The commit index assigned to the write.
        ci: u64,
    },
    /// A CAS was decided at commit index `ci`.
    Cas {
        /// The commit index assigned to the swap.
        ci: u64,
        /// Whether the comparison held and `new` was installed.
        ok: bool,
    },
    /// The operation never reached the total order.
    Err(KvError),
}

/// Why an operation failed without being committed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvError {
    /// The contacted replica is stalled in a minority partition or
    /// fenced: retry against another replica.
    NotServing,
    /// No commit arrived within the request timeout.
    Timeout,
    /// The request could not be decoded.
    Malformed,
    /// The replica (or connection) shut down.
    Closed,
    /// The client exhausted its bounded retry budget without finding a
    /// serving replica — terminal, the caller must not spin. `attempts`
    /// counts the connection attempts the client made; it is local
    /// bookkeeping and not carried on the wire (decodes as 0).
    Unavailable {
        /// Connection attempts made before giving up.
        attempts: u32,
    },
}

impl KvError {
    /// The wire code for this error.
    pub fn code(&self) -> u8 {
        match self {
            KvError::NotServing => ERR_NOT_SERVING,
            KvError::Timeout => ERR_TIMEOUT,
            KvError::Malformed => ERR_MALFORMED,
            KvError::Closed => ERR_CLOSED,
            KvError::Unavailable { .. } => ERR_UNAVAILABLE,
        }
    }

    /// Decodes a wire error code.
    pub fn from_code(c: u8) -> KvError {
        match c {
            ERR_NOT_SERVING => KvError::NotServing,
            ERR_TIMEOUT => KvError::Timeout,
            ERR_CLOSED => KvError::Closed,
            ERR_UNAVAILABLE => KvError::Unavailable { attempts: 0 },
            _ => KvError::Malformed,
        }
    }
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::NotServing => write!(f, "replica not serving (minority partition or fenced)"),
            KvError::Timeout => write!(f, "request timed out"),
            KvError::Malformed => write!(f, "malformed frame"),
            KvError::Closed => write!(f, "replica closed"),
            KvError::Unavailable { attempts } => {
                write!(f, "service unavailable after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for KvError {}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn take_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let b = buf.get(*at..*at + 4)?;
    *at += 4;
    Some(u32::from_le_bytes(b.try_into().unwrap()))
}

fn take_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let b = buf.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes(b.try_into().unwrap()))
}

fn take_u8(buf: &[u8], at: &mut usize) -> Option<u8> {
    let b = *buf.get(*at)?;
    *at += 1;
    Some(b)
}

fn take_bytes(buf: &[u8], at: &mut usize) -> Option<Vec<u8>> {
    let len = take_u32(buf, at)? as usize;
    let b = buf.get(*at..*at + len)?;
    *at += len;
    Some(b.to_vec())
}

/// Appends the encoding of `KvOp::Set(key, value)` to `out` without
/// owning either: the store's snapshot writes one per binding.
pub(crate) fn encode_set(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.push(0x02);
    put_bytes(out, key);
    put_bytes(out, value);
}

/// Length of [`encode_set`]'s output: tag plus two length prefixes.
pub(crate) fn encoded_set_len(key: &[u8], value: &[u8]) -> usize {
    9 + key.len() + value.len()
}

/// Length of [`encode_op`]'s output, so a caller can size its buffer once.
pub(crate) fn encoded_op_len(op: &KvOp) -> usize {
    match op {
        KvOp::Get(k) | KvOp::Del(k) => 5 + k.len(),
        KvOp::Set(k, v) => encoded_set_len(k, v),
        KvOp::Cas { key, expect, new } => {
            10 + key.len() + new.len() + expect.as_ref().map_or(0, |e| 4 + e.len())
        }
    }
}

/// Appends the encoding of `op` to `out`.
pub fn encode_op(out: &mut Vec<u8>, op: &KvOp) {
    match op {
        KvOp::Get(k) => {
            out.push(0x01);
            put_bytes(out, k);
        }
        KvOp::Set(k, v) => encode_set(out, k, v),
        KvOp::Del(k) => {
            out.push(0x03);
            put_bytes(out, k);
        }
        KvOp::Cas { key, expect, new } => {
            out.push(0x04);
            put_bytes(out, key);
            match expect {
                None => out.push(0x00),
                Some(e) => {
                    out.push(0x01);
                    put_bytes(out, e);
                }
            }
            put_bytes(out, new);
        }
    }
}

/// Decodes one `op` from `buf` at `*at`, advancing the cursor.
pub fn decode_op(buf: &[u8], at: &mut usize) -> Option<KvOp> {
    match take_u8(buf, at)? {
        0x01 => Some(KvOp::Get(take_bytes(buf, at)?)),
        0x02 => Some(KvOp::Set(take_bytes(buf, at)?, take_bytes(buf, at)?)),
        0x03 => Some(KvOp::Del(take_bytes(buf, at)?)),
        0x04 => {
            let key = take_bytes(buf, at)?;
            let expect = match take_u8(buf, at)? {
                0x00 => None,
                0x01 => Some(take_bytes(buf, at)?),
                _ => return None,
            };
            Some(KvOp::Cas {
                key,
                expect,
                new: take_bytes(buf, at)?,
            })
        }
        _ => None,
    }
}

/// Encodes a request payload (without the frame length prefix).
pub fn encode_request(req_id: u64, op: &KvOp) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&req_id.to_le_bytes());
    encode_op(&mut out, op);
    out
}

/// Decodes a request payload.
pub fn decode_request(buf: &[u8]) -> Option<(u64, KvOp)> {
    let mut at = 0;
    let req_id = take_u64(buf, &mut at)?;
    let op = decode_op(buf, &mut at)?;
    if at != buf.len() {
        return None;
    }
    Some((req_id, op))
}

/// Encodes a response payload (without the frame length prefix).
pub fn encode_response(req_id: u64, result: &KvResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&req_id.to_le_bytes());
    match result {
        KvResult::Value { ci, value } => {
            out.push(0x81);
            out.extend_from_slice(&ci.to_le_bytes());
            match value {
                None => out.push(0x00),
                Some(v) => {
                    out.push(0x01);
                    put_bytes(&mut out, v);
                }
            }
        }
        KvResult::Applied { ci } => {
            out.push(0x82);
            out.extend_from_slice(&ci.to_le_bytes());
        }
        KvResult::Cas { ci, ok } => {
            out.push(0x83);
            out.extend_from_slice(&ci.to_le_bytes());
            out.push(u8::from(*ok));
        }
        KvResult::Err(e) => {
            out.push(0x8F);
            out.push(e.code());
        }
    }
    out
}

/// Decodes a response payload.
pub fn decode_response(buf: &[u8]) -> Option<(u64, KvResult)> {
    let mut at = 0;
    let req_id = take_u64(buf, &mut at)?;
    let result = match take_u8(buf, &mut at)? {
        0x81 => {
            let ci = take_u64(buf, &mut at)?;
            let value = match take_u8(buf, &mut at)? {
                0x00 => None,
                0x01 => Some(take_bytes(buf, &mut at)?),
                _ => return None,
            };
            KvResult::Value { ci, value }
        }
        0x82 => KvResult::Applied {
            ci: take_u64(buf, &mut at)?,
        },
        0x83 => {
            let ci = take_u64(buf, &mut at)?;
            KvResult::Cas {
                ci,
                ok: take_u8(buf, &mut at)? != 0,
            }
        }
        0x8F => KvResult::Err(KvError::from_code(take_u8(buf, &mut at)?)),
        _ => return None,
    };
    if at != buf.len() {
        return None;
    }
    Some((req_id, result))
}

/// Encodes the replicated cast payload for one operation: the one-op
/// case of [`encode_cast_batch`].
pub fn encode_cast(submitter: u32, token: u64, op: &KvOp) -> Vec<u8> {
    encode_cast_batch(submitter, token, std::slice::from_ref(op))
}

/// Decodes a replicated cast payload that carries exactly one operation.
pub fn decode_cast(buf: &[u8]) -> Option<(u32, u64, KvOp)> {
    let (submitter, mut ops) = decode_cast_batch(buf)?;
    let (token, op) = ops.pop()?;
    ops.is_empty().then_some((submitter, token, op))
}

/// Encodes the replicated cast payload: who proposed (`submitter`, an
/// endpoint id) and, per operation, the proposer's local pending token
/// — `first_token`, `first_token + 1`, … in `ops` order — and the
/// operation. The committing replica that proposed the ops uses the
/// tokens to find the waiting clients.
pub fn encode_cast_batch(submitter: u32, first_token: u64, ops: &[KvOp]) -> Vec<u8> {
    debug_assert!(!ops.is_empty(), "a cast carries at least one operation");
    let len = 4 + ops.iter().map(|op| 8 + encoded_op_len(op)).sum::<usize>();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&submitter.to_le_bytes());
    for (token, op) in (first_token..).zip(ops) {
        out.extend_from_slice(&token.to_le_bytes());
        encode_op(&mut out, op);
    }
    out
}

/// Decodes a replicated cast payload into its submitter and every
/// `(token, op)` it carries, in order. All or nothing: a payload with
/// no operation, a truncated one or trailing bytes is refused whole, so
/// a replica never applies part of a cast.
pub fn decode_cast_batch(buf: &[u8]) -> Option<(u32, Vec<(u64, KvOp)>)> {
    let mut at = 0;
    let submitter = take_u32(buf, &mut at)?;
    let mut ops = Vec::new();
    loop {
        let token = take_u64(buf, &mut at)?;
        ops.push((token, decode_op(buf, &mut at)?));
        if at == buf.len() {
            return Some((submitter, ops));
        }
    }
}

/// Appends one length-prefixed frame to `out`, so a caller can encode
/// any number of frames into one buffer and hand them to one `write_all`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Writes one length-prefixed frame (one `write_all`: one syscall and,
/// with `TCP_NODELAY`, one segment).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::new();
    put_frame(&mut frame, payload);
    w.write_all(&frame)
}

/// The receive side of a connection's framing, for both ends: bytes as
/// `read` delivers them go in, complete frames come out.
///
/// A cursor walks the accumulated bytes, so taking a frame copies
/// nothing; what the cursor has passed is dropped once per read.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Everything before this offset has been handed out as frames.
    at: usize,
}

impl FrameBuf {
    /// Bytes asked of the reader per [`FrameBuf::fill`].
    const READ_CHUNK: usize = 16 * 1024;

    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends the bytes of one `read` (which blocks as `r` blocks) and
    /// returns how many there were; 0 is end of stream.
    pub fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        self.buf.drain(..self.at);
        self.at = 0;
        let held = self.buf.len();
        self.buf.resize(held + Self::READ_CHUNK, 0);
        let read = r.read(&mut self.buf[held..]);
        self.buf.truncate(held + read.as_ref().map_or(0, |n| *n));
        read
    }

    /// The payload of the next complete frame, `Ok(None)` when only part
    /// of one has arrived. A length prefix over [`MAX_FRAME`] is an
    /// `InvalidData` error: the stream cannot be resynchronized.
    pub fn next_frame(&mut self) -> std::io::Result<Option<&[u8]>> {
        let rest = &self.buf[self.at..];
        let Some(len) = rest.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = check_frame_len(u32::from_le_bytes(*len))?;
        if rest.len() < 4 + len {
            return Ok(None);
        }
        let start = self.at + 4;
        self.at = start + len;
        Ok(Some(&self.buf[start..self.at]))
    }
}

fn check_frame_len(len: u32) -> std::io::Result<usize> {
    let len = len as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    Ok(len)
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary; refuses frames
/// longer than [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len[n..])?,
    }
    let len = check_frame_len(u32::from_le_bytes(len))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<KvOp> {
        vec![
            KvOp::Get(b"k".to_vec()),
            KvOp::Set(b"key".to_vec(), b"value".to_vec()),
            KvOp::Del(Vec::new()),
            KvOp::Cas {
                key: b"x".to_vec(),
                expect: None,
                new: b"1".to_vec(),
            },
            KvOp::Cas {
                key: b"x".to_vec(),
                expect: Some(b"1".to_vec()),
                new: b"2".to_vec(),
            },
        ]
    }

    #[test]
    fn encoded_lengths_match_the_encoder() {
        for op in ops() {
            let mut buf = Vec::new();
            encode_op(&mut buf, &op);
            assert_eq!(encoded_op_len(&op), buf.len(), "{op:?}");
        }
    }

    #[test]
    fn request_roundtrip() {
        for (i, op) in ops().into_iter().enumerate() {
            let buf = encode_request(i as u64, &op);
            assert_eq!(decode_request(&buf), Some((i as u64, op)));
        }
    }

    #[test]
    fn response_roundtrip() {
        let results = vec![
            KvResult::Value { ci: 7, value: None },
            KvResult::Value {
                ci: 8,
                value: Some(b"v".to_vec()),
            },
            KvResult::Applied { ci: 9 },
            KvResult::Cas { ci: 10, ok: true },
            KvResult::Cas { ci: 11, ok: false },
            KvResult::Err(KvError::NotServing),
            KvResult::Err(KvError::Timeout),
            KvResult::Err(KvError::Unavailable { attempts: 0 }),
        ];
        for (i, r) in results.into_iter().enumerate() {
            let buf = encode_response(i as u64, &r);
            assert_eq!(decode_response(&buf), Some((i as u64, r)));
        }
    }

    #[test]
    fn cast_roundtrip() {
        for op in ops() {
            let buf = encode_cast(3, 42, &op);
            assert_eq!(decode_cast(&buf), Some((3, 42, op)));
        }
    }

    #[test]
    fn one_op_batch_is_the_single_cast_byte_for_byte() {
        for op in ops() {
            // The layout the parent wrote: submitter, token, op.
            let mut want = Vec::new();
            want.extend_from_slice(&3u32.to_le_bytes());
            want.extend_from_slice(&42u64.to_le_bytes());
            encode_op(&mut want, &op);
            assert_eq!(encode_cast(3, 42, &op), want);
            assert_eq!(encode_cast_batch(3, 42, std::slice::from_ref(&op)), want);
            assert_eq!(decode_cast_batch(&want), Some((3, vec![(42, op)])));
        }
    }

    #[test]
    fn cast_batch_roundtrip_numbers_tokens_from_the_first() {
        let buf = encode_cast_batch(9, 100, &ops());
        let want: Vec<(u64, KvOp)> = (100..).zip(ops()).collect();
        assert_eq!(decode_cast_batch(&buf), Some((9, want)));
        // More than one op is not a single cast.
        assert_eq!(decode_cast(&buf), None);
    }

    #[test]
    fn cast_batch_is_refused_whole_at_every_truncation_and_with_trailing_bytes() {
        let full = encode_cast_batch(9, 100, &ops());
        // Cuts at an op boundary leave a shorter valid batch; every
        // other cut — inside any op, not only the last — is refused.
        let boundaries: Vec<usize> = (1..=ops().len())
            .map(|n| encode_cast_batch(9, 100, &ops()[..n]).len())
            .collect();
        for cut in 0..full.len() {
            let got = decode_cast_batch(&full[..cut]);
            match boundaries.iter().position(|&b| b == cut) {
                Some(i) => assert_eq!(got.map(|(_, ops)| ops.len()), Some(i + 1), "cut {cut}"),
                None => assert_eq!(got, None, "cut at {cut}"),
            }
        }
        for garbage in [&[0u8][..], &[0xFF; 7], &[0; 8], &[1; 12]] {
            let mut buf = full.clone();
            buf.extend_from_slice(garbage);
            assert_eq!(decode_cast_batch(&buf), None, "trailing {garbage:?}");
        }
        assert_eq!(decode_cast_batch(&9u32.to_le_bytes()), None, "no op at all");
    }

    #[test]
    fn trailing_garbage_is_refused() {
        let mut buf = encode_request(1, &KvOp::Get(b"k".to_vec()));
        buf.push(0);
        assert_eq!(decode_request(&buf), None);
        let mut buf = encode_response(1, &KvResult::Applied { ci: 1 });
        buf.push(0);
        assert_eq!(decode_response(&buf), None);
    }

    #[test]
    fn truncation_is_refused_everywhere() {
        let full = encode_request(1, &KvOp::Set(b"key".to_vec(), b"value".to_vec()));
        for cut in 0..full.len() {
            assert_eq!(decode_request(&full[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn frame_roundtrip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
        let mut frames = FrameBuf::new();
        frames.fill(&mut &buf[..]).unwrap();
        assert!(frames.next_frame().is_err());
    }

    /// A reader that hands out its bytes `step` at a time.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.1.min(self.0.len()).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn frame_buf_yields_the_same_frames_however_reads_split_them() {
        let payloads: Vec<Vec<u8>> = vec![b"hello".to_vec(), Vec::new(), vec![7u8; 300]];
        let mut wire = Vec::new();
        for p in &payloads {
            put_frame(&mut wire, p);
        }
        // put_frame and write_frame agree on the bytes.
        let mut written = Vec::new();
        for p in &payloads {
            write_frame(&mut written, p).unwrap();
        }
        assert_eq!(wire, written);
        for step in 1..=wire.len() {
            let mut r = Trickle(&wire, step);
            let mut frames = FrameBuf::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            while frames.fill(&mut r).unwrap() > 0 {
                while let Some(p) = frames.next_frame().unwrap() {
                    got.push(p.to_vec());
                }
            }
            assert_eq!(got, payloads, "reads of {step} bytes");
        }
    }
}
