//! The TCP client: pipelining, per-request timeouts, and
//! retry-with-redirect.
//!
//! A [`KvClient`] holds the address of every replica's listener and one
//! live connection. Requests are written as pipelined frames and
//! completions are collected by `req_id` in whatever order the server
//! finishes them. When the contacted replica answers "not serving"
//! (stalled in a minority partition), the connection dies, or the batch
//! deadline passes, the client *redirects*: it advances to the next
//! address, reconnects, and resubmits the unanswered operations.
//!
//! Redirected resubmission is at-least-once: an operation whose ack was
//! lost may commit twice, at two commit indices. Each completion the
//! client *returns* names the index of one commit it actually observed,
//! which is what the linearizability checker verifies; callers that
//! need exactly-once semantics build it from CAS.
//!
//! Redirects are *bounded*: after `attempt_cap` failed tries (every
//! replica twice) the batch fails terminally with
//! [`KvError::Unavailable`], so a crashed quorum cannot spin a client
//! forever. Between failed tries the client sleeps an exponentially
//! growing, jittered backoff so a restarting cluster is not hammered by
//! synchronized reconnect storms.

use crate::proto::{decode_response, put_request, FrameBuf, KvError, KvOp, KvResult};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Base delay of the exponential backoff between failed tries.
const BACKOFF: Duration = Duration::from_millis(10);

/// A redirecting, pipelining TCP client for the KV service.
pub struct KvClient {
    addrs: Vec<SocketAddr>,
    cur: usize,
    /// The live connection and its receive framing.
    stream: Option<(TcpStream, FrameBuf)>,
    /// Request frames encoded for the next write, kept between batches.
    out: Vec<u8>,
    next_req: u64,
    /// Per-batch commit deadline (also the per-request deadline for
    /// single-operation calls).
    timeout: Duration,
    redirects: u64,
    /// Failed tries allowed per batch before [`KvError::Unavailable`]:
    /// every replica twice.
    attempt_cap: u32,
    /// SplitMix64 state feeding the backoff jitter.
    jitter: u64,
}

impl KvClient {
    /// A client for the replicas listening at `addrs` (tried in order,
    /// starting from the first).
    pub fn new(addrs: Vec<SocketAddr>, timeout: Duration) -> KvClient {
        let attempt_cap = (addrs.len().max(1) * 2) as u32;
        KvClient {
            addrs,
            cur: 0,
            stream: None,
            out: Vec::new(),
            next_req: 0,
            timeout,
            redirects: 0,
            attempt_cap,
            jitter: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// How many times this client abandoned a replica and moved on.
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Reads `key`; `Ok(None)` means the key was absent.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        match self.call(&KvOp::Get(key.to_vec()))? {
            KvResult::Value { value, .. } => Ok(value),
            other => Err(unexpected(other)),
        }
    }

    /// Binds `key` to `value`; returns the commit index.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<u64, KvError> {
        match self.call(&KvOp::Set(key.to_vec(), value.to_vec()))? {
            KvResult::Applied { ci } => Ok(ci),
            other => Err(unexpected(other)),
        }
    }

    /// Removes `key`; returns the commit index.
    pub fn del(&mut self, key: &[u8]) -> Result<u64, KvError> {
        match self.call(&KvOp::Del(key.to_vec()))? {
            KvResult::Applied { ci } => Ok(ci),
            other => Err(unexpected(other)),
        }
    }

    /// Compare-and-swap; returns `(succeeded, commit index)`.
    pub fn cas(
        &mut self,
        key: &[u8],
        expect: Option<&[u8]>,
        new: &[u8],
    ) -> Result<(bool, u64), KvError> {
        let op = KvOp::Cas {
            key: key.to_vec(),
            expect: expect.map(|e| e.to_vec()),
            new: new.to_vec(),
        };
        match self.call(&op)? {
            KvResult::Cas { ci, ok } => Ok((ok, ci)),
            other => Err(unexpected(other)),
        }
    }

    /// Runs one operation (a pipeline of one).
    pub fn call(&mut self, op: &KvOp) -> Result<KvResult, KvError> {
        let mut results = self.pipeline(std::slice::from_ref(op))?;
        results.pop().ok_or(KvError::Closed)
    }

    /// Runs `ops` pipelined on one connection; `results[i]` completes
    /// `ops[i]`. Redirects (reconnect + resubmit unanswered operations)
    /// with a jittered backoff until every operation has a committed
    /// result or the attempt cap is reached, then fails terminally with
    /// [`KvError::Unavailable`].
    pub fn pipeline(&mut self, ops: &[KvOp]) -> Result<Vec<KvResult>, KvError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        if self.addrs.is_empty() {
            return Err(KvError::Closed);
        }
        let mut results: Vec<Option<KvResult>> = vec![None; ops.len()];
        let mut failures = 0u32;
        while failures < self.attempt_cap {
            let todo: Vec<usize> = (0..ops.len()).filter(|&i| results[i].is_none()).collect();
            if todo.is_empty() {
                break;
            }
            if self.try_batch(ops, &todo, &mut results).is_err() {
                failures += 1;
                self.redirect();
                if failures < self.attempt_cap {
                    std::thread::sleep(self.backoff_delay(failures));
                }
            }
        }
        let attempts = failures;
        let mut out = Vec::with_capacity(ops.len());
        for r in results {
            out.push(r.ok_or(KvError::Unavailable { attempts })?);
        }
        Ok(out)
    }

    /// The jittered exponential delay before retry number `failures`:
    /// 50–100% of `BACKOFF × 2^(failures-1)`, exponent capped at 5.
    fn backoff_delay(&mut self, failures: u32) -> Duration {
        // SplitMix64: cheap, stateful, and dependency-free.
        self.jitter = self.jitter.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let nominal = BACKOFF.saturating_mul(1 << failures.saturating_sub(1).min(5));
        nominal / 2 + Duration::from_nanos(z % (nominal.as_nanos().max(2) / 2) as u64)
    }

    /// Sends `ops[todo]` on the current connection and collects their
    /// completions. `Err` means the *connection* (or replica) failed —
    /// redirect and resubmit whatever is still `None`.
    fn try_batch(
        &mut self,
        ops: &[KvOp],
        todo: &[usize],
        results: &mut [Option<KvResult>],
    ) -> Result<(), KvError> {
        // Own the stream for the batch: an early error return drops the
        // (now useless) connection, success puts it back.
        let (mut stream, mut frames) = match self.stream.take() {
            Some(conn) => conn,
            None => (self.connect()?, FrameBuf::new()),
        };
        // Number the requests `base..` and pipeline every frame, in one
        // write, before reading.
        let base = self.next_req;
        self.next_req += todo.len() as u64;
        self.out.clear();
        for (req_id, &i) in (base..).zip(todo) {
            put_request(&mut self.out, req_id, &ops[i]);
        }
        stream.write_all(&self.out).map_err(|_| KvError::Closed)?;
        // Collect completions (any order) until done or deadline: each
        // read blocks for what is left of the batch's time, no less.
        let deadline = Instant::now() + self.timeout;
        let mut left = todo.len();
        while left > 0 {
            let wait = deadline.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                return Err(KvError::Timeout);
            }
            let _ = stream.set_read_timeout(Some(wait));
            match frames.fill(&mut stream) {
                Ok(0) => return Err(KvError::Closed),
                Ok(_) => {}
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted =>
                {
                    continue;
                }
                Err(_) => return Err(KvError::Closed),
            }
            while let Some(payload) = frames.next_frame().map_err(|_| KvError::Malformed)? {
                let Some((req_id, result)) = decode_response(payload) else {
                    return Err(KvError::Malformed);
                };
                let slot = req_id.checked_sub(base).and_then(|k| todo.get(k as usize));
                let Some(&i) = slot.filter(|&&i| results[i].is_none()) else {
                    continue; // A stale completion from before a redirect.
                };
                match result {
                    // The replica is stalled: fail the whole batch over
                    // to the next replica (every op still unanswered).
                    KvResult::Err(KvError::NotServing) => return Err(KvError::NotServing),
                    r => results[i] = Some(r),
                }
                left -= 1;
            }
        }
        self.stream = Some((stream, frames));
        Ok(())
    }

    fn connect(&mut self) -> Result<TcpStream, KvError> {
        let addr = self.addrs[self.cur];
        let stream =
            TcpStream::connect_timeout(&addr, self.timeout.max(Duration::from_millis(100)))
                .map_err(|_| KvError::Closed)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        Ok(stream)
    }

    /// Drops the connection and advances to the next replica.
    fn redirect(&mut self) {
        self.stream = None;
        self.cur = (self.cur + 1) % self.addrs.len().max(1);
        self.redirects += 1;
    }
}

fn unexpected(r: KvResult) -> KvError {
    match r {
        KvResult::Err(e) => e,
        // A response of the wrong shape for the request type.
        _ => KvError::Malformed,
    }
}
