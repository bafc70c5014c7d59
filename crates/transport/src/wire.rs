//! Byte-level reading and writing with explicit failure modes.

use std::fmt;

/// Errors produced while decoding wire bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An unknown tag byte was encountered.
    BadTag(u8),
    /// A length field was implausible for the remaining buffer.
    BadLength(usize),
    /// Bytes remained after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire buffer truncated"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            WireError::BadLength(n) => write!(f, "implausible length {n}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for WireError {}

/// An appending byte writer.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer with pre-reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(n),
        }
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a u32-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Opens a u32-length-prefixed section: writes a placeholder prefix
    /// and returns the mark [`WireWriter::end_len`] patches once the
    /// section's bytes are written — the bytes [`WireWriter::bytes`]
    /// would emit, without building the section in a buffer of its own.
    pub fn begin_len(&mut self) -> usize {
        self.u32(0);
        self.buf.len()
    }

    /// Closes the section opened at `mark`, patching its prefix.
    pub fn end_len(&mut self, mark: usize) {
        let n = (self.buf.len() - mark) as u32;
        self.buf[mark - 4..mark].copy_from_slice(&n.to_le_bytes());
    }

    /// Writes raw bytes with no prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a u16-length-prefixed vector of u64s.
    pub fn u64_vec(&mut self, v: &[u64]) {
        self.u16(v.len() as u16);
        for &x in v {
            self.u64(x);
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A consuming byte reader.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Reads from `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a u32-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::BadLength(n));
        }
        self.take(n)
    }

    /// Reads a u16-length-prefixed vector of u64s.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.u16()? as usize;
        if n * 8 > self.remaining() {
            return Err(WireError::BadLength(n));
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds only if the buffer was fully consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        r.expect_end().unwrap();
    }

    #[test]
    fn roundtrip_bytes_and_vec() {
        let mut w = WireWriter::with_capacity(64);
        w.bytes(b"payload");
        w.u64_vec(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn patched_prefix_equals_bytes() {
        let mut a = WireWriter::new();
        a.u8(1);
        a.bytes(&[7, 8, 9]);
        a.bytes(b"");
        let mut b = WireWriter::new();
        b.u8(1);
        let mark = b.begin_len();
        b.raw(&[7, 8]);
        b.u8(9);
        b.end_len(mark);
        let mark = b.begin_len();
        b.end_len(mark);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn truncation_detected() {
        let mut w = WireWriter::new();
        w.u64(5);
        let mut buf = w.finish();
        buf.truncate(4);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u64(), Err(WireError::Truncated));
    }

    #[test]
    fn bad_length_detected() {
        let mut w = WireWriter::new();
        w.u32(1000);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.bytes(), Err(WireError::BadLength(1000)));
        let mut w2 = WireWriter::new();
        w2.u16(500);
        let buf2 = w2.finish();
        let mut r2 = WireReader::new(&buf2);
        assert_eq!(r2.u64_vec(), Err(WireError::BadLength(500)));
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = [0u8; 3];
        let mut r = WireReader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Err(WireError::TrailingBytes(2)));
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn error_display() {
        assert!(WireError::BadTag(9).to_string().contains('9'));
        assert!(!WireError::Truncated.to_string().is_empty());
    }
}
