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
//! together. A cast is checked completely before any of it is applied
//! ([`CastView::parse`]): every replica applies all of its ops or none.
//!
//! On the request path an operation stays in this encoding: the
//! listener checks a request frame where it lies ([`parse_request`]) and
//! copies the op's bytes into the cast, and the replica applies and logs
//! each op from a borrowed view of the delivered cast ([`OpRef`]). The
//! owned [`KvOp`] is for clients, tests and the checker.

use std::io::Read;

/// Frames larger than this are refused — a corrupt length prefix must
/// not make a worker allocate gigabytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Error codes carried by the `0x8F` result.
pub const ERR_NOT_SERVING: u8 = 1;
pub const ERR_TIMEOUT: u8 = 2;
pub const ERR_MALFORMED: u8 = 3;
pub const ERR_CLOSED: u8 = 4;
pub const ERR_UNAVAILABLE: u8 = 5;

/// One key-value operation, as replicated through the total order,
/// over `B`, what holds each key and value: [`KvOp`] owns them,
/// [`OpRef`] borrows them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op<B> {
    /// Read `key` (ordered like a write so reads respect commit order).
    Get(B),
    /// Bind `key` to `value`.
    Set(B, B),
    /// Remove `key`.
    Del(B),
    /// Compare-and-swap: bind `key` to `new` iff its current value is
    /// `expect` (`None` = iff the key is absent).
    Cas {
        /// The key to swap.
        key: B,
        /// Required current value (`None`: key must be absent).
        expect: Option<B>,
        /// Value installed when the comparison holds.
        new: B,
    },
}

/// An operation that owns its bytes: the form clients, tests and the
/// checker hold.
pub type KvOp = Op<Vec<u8>>;

/// An operation read in place: its keys and values borrow the buffer it
/// was decoded from ([`decode_op_ref`]), so reading one allocates
/// nothing. The replica applies, logs and forwards operations in this
/// form.
pub type OpRef<'a> = Op<&'a [u8]>;

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

fn take_bytes<'a>(buf: &'a [u8], at: &mut usize) -> Option<&'a [u8]> {
    let len = take_u32(buf, at)? as usize;
    let b = buf.get(*at..at.checked_add(len)?)?;
    *at += len;
    Some(b)
}

impl<B: AsRef<[u8]>> Op<B> {
    /// This operation, borrowing its bytes.
    pub fn view(&self) -> OpRef<'_> {
        match self {
            Op::Get(k) => Op::Get(k.as_ref()),
            Op::Set(k, v) => Op::Set(k.as_ref(), v.as_ref()),
            Op::Del(k) => Op::Del(k.as_ref()),
            Op::Cas { key, expect, new } => Op::Cas {
                key: key.as_ref(),
                expect: expect.as_ref().map(AsRef::as_ref),
                new: new.as_ref(),
            },
        }
    }

    /// The key this operation touches.
    pub fn key(&self) -> &[u8] {
        match self {
            Op::Get(k) | Op::Del(k) | Op::Set(k, _) => k.as_ref(),
            Op::Cas { key, .. } => key.as_ref(),
        }
    }

    /// An owned copy.
    pub fn to_op(&self) -> KvOp {
        match self.view() {
            Op::Get(k) => Op::Get(k.to_vec()),
            Op::Set(k, v) => Op::Set(k.to_vec(), v.to_vec()),
            Op::Del(k) => Op::Del(k.to_vec()),
            Op::Cas { key, expect, new } => Op::Cas {
                key: key.to_vec(),
                expect: expect.map(<[u8]>::to_vec),
                new: new.to_vec(),
            },
        }
    }

    /// Length of [`Op::encode`]'s output, so a caller can size its
    /// buffer once.
    pub fn encoded_len(&self) -> usize {
        match self.view() {
            Op::Get(k) | Op::Del(k) => 5 + k.len(),
            Op::Set(k, v) => 9 + k.len() + v.len(),
            Op::Cas { key, expect, new } => {
                10 + key.len() + new.len() + expect.map_or(0, |e| 4 + e.len())
            }
        }
    }

    /// Appends the wire encoding (`op` in the module docs) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self.view() {
            Op::Get(k) => {
                out.push(0x01);
                put_bytes(out, k);
            }
            Op::Set(k, v) => {
                out.push(0x02);
                put_bytes(out, k);
                put_bytes(out, v);
            }
            Op::Del(k) => {
                out.push(0x03);
                put_bytes(out, k);
            }
            Op::Cas { key, expect, new } => {
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
}

/// Reads one `op` from `buf` at `*at` in place, advancing the cursor.
pub fn decode_op_ref<'a>(buf: &'a [u8], at: &mut usize) -> Option<OpRef<'a>> {
    match take_u8(buf, at)? {
        0x01 => Some(Op::Get(take_bytes(buf, at)?)),
        0x02 => Some(Op::Set(take_bytes(buf, at)?, take_bytes(buf, at)?)),
        0x03 => Some(Op::Del(take_bytes(buf, at)?)),
        0x04 => {
            let key = take_bytes(buf, at)?;
            let expect = match take_u8(buf, at)? {
                0x00 => None,
                0x01 => Some(take_bytes(buf, at)?),
                _ => return None,
            };
            Some(Op::Cas {
                key,
                expect,
                new: take_bytes(buf, at)?,
            })
        }
        _ => None,
    }
}

/// Appends the request payload (without the frame length prefix).
fn encode_request_into(out: &mut Vec<u8>, req_id: u64, op: &KvOp) {
    out.extend_from_slice(&req_id.to_le_bytes());
    op.encode(out);
}

/// Encodes a request payload (without the frame length prefix).
pub fn encode_request(req_id: u64, op: &KvOp) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + op.encoded_len());
    encode_request_into(&mut out, req_id, op);
    out
}

/// Appends one request frame — length prefix and payload — to `out`.
pub fn put_request(out: &mut Vec<u8>, req_id: u64, op: &KvOp) {
    put_frame_with(out, |out| encode_request_into(out, req_id, op));
}

/// Reads a request payload in place: its `req_id` and the bytes of the
/// one `op` it carries, checked to decode with nothing after them.
pub fn parse_request(buf: &[u8]) -> Option<(u64, &[u8])> {
    let mut at = 0;
    let req_id = take_u64(buf, &mut at)?;
    decode_op_ref(buf, &mut at)?;
    (at == buf.len()).then(|| (req_id, &buf[8..]))
}

/// Decodes a request payload.
pub fn decode_request(buf: &[u8]) -> Option<(u64, KvOp)> {
    let mut at = 0;
    let req_id = take_u64(buf, &mut at)?;
    let op = decode_op_ref(buf, &mut at)?;
    (at == buf.len()).then(|| (req_id, op.to_op()))
}

/// Appends the response payload (without the frame length prefix).
fn encode_response_into(out: &mut Vec<u8>, req_id: u64, result: &KvResult) {
    out.extend_from_slice(&req_id.to_le_bytes());
    match result {
        KvResult::Value { ci, value } => {
            out.push(0x81);
            out.extend_from_slice(&ci.to_le_bytes());
            match value {
                None => out.push(0x00),
                Some(v) => {
                    out.push(0x01);
                    put_bytes(out, v);
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
}

/// Encodes a response payload (without the frame length prefix).
pub fn encode_response(req_id: u64, result: &KvResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_response_into(&mut out, req_id, result);
    out
}

/// Appends one response frame — length prefix and payload — to `out`.
pub fn put_response(out: &mut Vec<u8>, req_id: u64, result: &KvResult) {
    put_frame_with(out, |out| encode_response_into(out, req_id, result));
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
                0x01 => Some(take_bytes(buf, &mut at)?.to_vec()),
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
    let cast = CastView::parse(buf)?;
    let (token, op, _) = cast.ops().next()?;
    (cast.len() == 1).then(|| (cast.submitter(), token, op.to_op()))
}

/// Encodes the replicated cast payload: who proposed (`submitter`, an
/// endpoint id) and, per operation, the proposer's local pending token
/// — `first_token`, `first_token + 1`, … in `ops` order — and the
/// operation. The committing replica that proposed the ops uses the
/// tokens to find the waiting clients.
pub fn encode_cast_batch(submitter: u32, first_token: u64, ops: &[KvOp]) -> Vec<u8> {
    debug_assert!(!ops.is_empty(), "a cast carries at least one operation");
    let mut cast = CastBuf::default();
    for op in ops {
        cast.push(op);
    }
    cast.seal(submitter, first_token);
    cast.bytes
}

/// Decodes a replicated cast payload into its submitter and every
/// `(token, op)` it carries, in order: [`CastView`], owned.
pub fn decode_cast_batch(buf: &[u8]) -> Option<(u32, Vec<(u64, KvOp)>)> {
    let cast = CastView::parse(buf)?;
    let ops = cast.ops().map(|(token, op, _)| (token, op.to_op()));
    Some((cast.submitter(), ops.collect()))
}

/// A cast payload built in place, one operation at a time, for a
/// proposer that learns the submitter and the tokens only when it
/// proposes: [`CastBuf::seal`] writes them into the slots left for
/// them. Cleared, it keeps its buffers for the next cast.
pub(crate) struct CastBuf {
    bytes: Vec<u8>,
    /// Offset of each operation's token slot.
    tokens: Vec<usize>,
}

impl Default for CastBuf {
    fn default() -> CastBuf {
        CastBuf {
            bytes: vec![0; 4],
            tokens: Vec::new(),
        }
    }
}

impl CastBuf {
    /// Operations pushed since the last clear.
    pub(crate) fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Appends `op`, encoded.
    pub(crate) fn push(&mut self, op: &KvOp) {
        self.token_slot();
        op.encode(&mut self.bytes);
    }

    /// Appends the bytes of one operation already encoded — a request
    /// frame's, checked by [`parse_request`] — as they are.
    pub(crate) fn push_encoded(&mut self, op: &[u8]) {
        self.token_slot();
        self.bytes.extend_from_slice(op);
    }

    fn token_slot(&mut self) {
        self.tokens.push(self.bytes.len());
        self.bytes.extend_from_slice(&[0; 8]);
    }

    /// Writes `submitter` and the tokens `first_token..` and returns the
    /// payload.
    pub(crate) fn seal(&mut self, submitter: u32, first_token: u64) -> &[u8] {
        self.bytes[..4].copy_from_slice(&submitter.to_le_bytes());
        for (token, &at) in (first_token..).zip(&self.tokens) {
            self.bytes[at..at + 8].copy_from_slice(&token.to_le_bytes());
        }
        &self.bytes
    }

    /// Empties the cast, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.bytes.truncate(4);
        self.tokens.clear();
    }
}

/// A replicated cast payload, checked whole and read in place. All or
/// nothing: a payload with no operation, a truncated one or trailing
/// bytes does not parse, so a replica never applies part of a cast.
#[derive(Clone, Copy, Debug)]
pub struct CastView<'a> {
    submitter: u32,
    buf: &'a [u8],
    len: usize,
}

impl<'a> CastView<'a> {
    /// Checks every operation of `buf` without copying any.
    pub fn parse(buf: &'a [u8]) -> Option<CastView<'a>> {
        let mut at = 0;
        let submitter = take_u32(buf, &mut at)?;
        let mut len = 0;
        loop {
            take_u64(buf, &mut at)?;
            decode_op_ref(buf, &mut at)?;
            len += 1;
            if at == buf.len() {
                return Some(CastView {
                    submitter,
                    buf,
                    len,
                });
            }
        }
    }

    /// The proposer's endpoint id.
    pub fn submitter(&self) -> u32 {
        self.submitter
    }

    /// How many operations the cast carries (at least one).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: a cast carries at least one operation.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every operation in order, as `(token, op, op's encoded bytes)`.
    pub fn ops(&self) -> impl Iterator<Item = (u64, OpRef<'a>, &'a [u8])> {
        let buf = self.buf;
        let mut at = 4;
        std::iter::from_fn(move || {
            let token = take_u64(buf, &mut at)?;
            let start = at;
            let op = decode_op_ref(buf, &mut at)?;
            Some((token, op, &buf[start..at]))
        })
    }
}

/// Appends one length-prefixed frame, its payload written by `payload`.
fn put_frame_with(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = out.len() - start - 4;
    debug_assert!(len <= MAX_FRAME);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Appends one length-prefixed frame to `out`, so a caller can encode
/// any number of frames into one buffer and hand them to one `write_all`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_frame_with(out, |out| out.extend_from_slice(payload));
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
            op.encode(&mut buf);
            assert_eq!(op.encoded_len(), buf.len(), "{op:?}");
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
            op.encode(&mut want);
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
        put_frame(&mut buf, b"hello");
        put_frame(&mut buf, b"");
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
