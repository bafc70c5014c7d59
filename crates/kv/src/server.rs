//! The TCP client plane: a thread-pooled, event-driven frame server.
//!
//! The listener accepts connections on one thread and hands them to a
//! fixed pool of workers through a shared queue (the classic
//! connector/listener thread-pool shape): each worker parks on the
//! queue, takes a connection, and serves it for its whole lifetime, so
//! the pool size bounds concurrent connections and excess connections
//! wait in the queue.
//!
//! A connection is two blocking halves joined by one queue. The pool
//! worker is the *reader*: it blocks in `read`, decodes, and submits
//! every complete frame that `read` delivered as one batch — one cast,
//! one traversal of the stack, one WAL append, however many requests the
//! client wrote together — stopping at `pipeline_depth` requests whose
//! response is not written yet. A per-connection *writer* blocks on the
//! queue, into which the replica's apply loop pushes each result the
//! moment it commits; it encodes everything that is ready when it wakes
//! into one buffer and writes it with one `write_all`, in *completion*
//! order — clients match responses by `req_id`, not position. Nothing
//! polls: every thread here blocks until a byte, a commit, a deadline or
//! a halt arrives, and `ensemble_kv_listener_wakeups_total` counts each
//! return from such a wait.
//!
//! A request that misses its deadline is answered with a timeout error
//! and withdrawn from the replica's pending table; one that arrives
//! while the replica is stalled in a minority partition is rejected
//! immediately with "not serving" so the client can redirect instead of
//! waiting. Rejections travel through the queue like any completion, so
//! only the writer ever writes to the socket.

use crate::proto::{decode_request, encode_response, put_frame, FrameBuf, KvError, KvOp, KvResult};
use crate::replica::{Completion, ReplicaFront};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning for one listener (extracted from [`crate::KvConfig`]).
#[derive(Clone, Debug)]
pub struct ListenerConfig {
    /// Worker threads in the pool.
    pub pool: usize,
    /// Per-request commit deadline.
    pub request_timeout: Duration,
    /// Most in-flight operations per connection.
    pub pipeline_depth: usize,
}

impl From<&crate::KvConfig> for ListenerConfig {
    fn from(cfg: &crate::KvConfig) -> ListenerConfig {
        ListenerConfig {
            pool: cfg.listener_pool,
            request_timeout: cfg.request_timeout,
            pipeline_depth: cfg.pipeline_depth,
        }
    }
}

/// A running TCP listener for one replica.
pub struct KvListener {
    addr: SocketAddr,
    conns: Arc<Mutex<Conns>>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// The queues of the open connections, so that a halt can close them.
/// Locked when a connection opens or closes and at the halt, never per
/// request.
#[derive(Default)]
struct Conns {
    halted: bool,
    next_id: u64,
    queues: HashMap<u64, Sender<ConnEvent>>,
}

impl KvListener {
    /// Binds `bind` (e.g. `"127.0.0.1:0"`) and starts serving `front`.
    pub fn start(
        front: ReplicaFront,
        bind: &str,
        cfg: ListenerConfig,
    ) -> std::io::Result<KvListener> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let conns = Arc::new(Mutex::new(Conns::default()));
        let (conn_tx, conn_rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut workers = Vec::with_capacity(cfg.pool);
        for w in 0..cfg.pool {
            let rx = Arc::clone(&conn_rx);
            let front = front.clone();
            let conns = Arc::clone(&conns);
            let cfg = cfg.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ensemble-kv-worker-{w}"))
                    .spawn(move || loop {
                        // Park on the shared queue; holding the lock
                        // while waiting is the point — exactly one idle
                        // worker claims the next connection.
                        let conn = rx
                            .lock()
                            .expect("kv connection queue mutex poisoned")
                            .recv();
                        woke(&front);
                        match conn {
                            Ok(stream) => serve_connection(&stream, &front, &cfg, &conns),
                            // The acceptor has left: the listener halted.
                            Err(_) => return,
                        }
                    })?,
            );
        }

        let accept_conns = Arc::clone(&conns);
        let accept = std::thread::Builder::new()
            .name("ensemble-kv-accept".into())
            .spawn(move || loop {
                let conn = listener.accept();
                woke(&front);
                if lock(&accept_conns).halted {
                    return;
                }
                match conn {
                    Ok((stream, _)) => {
                        front.metrics().connections.fetch_add(1, Ordering::Relaxed);
                        if conn_tx.send(stream).is_err() {
                            return;
                        }
                    }
                    // The peer gave up while it sat in the backlog.
                    Err(e)
                        if e.kind() == ErrorKind::ConnectionAborted
                            || e.kind() == ErrorKind::Interrupted => {}
                    // Anything else (descriptors exhausted, socket gone)
                    // would fail again at once: stop accepting, and let
                    // the open connections run to their end.
                    Err(e) => {
                        eprintln!("ensemble-kv: listener {addr} stops accepting: {e}");
                        return;
                    }
                }
            })?;

        Ok(KvListener {
            addr,
            conns,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every open connection, and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        {
            let mut conns = lock(&self.conns);
            conns.halted = true;
            for queue in conns.queues.values() {
                let _ = queue.send(ConnEvent::Close);
            }
        }
        if let Some(t) = self.accept.take() {
            // The acceptor blocks in `accept`: a connection from here
            // returns it, it sees `halted` and leaves, and the workers'
            // queue disconnects behind it. (Had it already left on an
            // accept error, the connection is refused and nobody waits.)
            let _ = TcpStream::connect(self.addr);
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for KvListener {
    fn drop(&mut self) {
        self.halt();
    }
}

fn lock(conns: &Mutex<Conns>) -> std::sync::MutexGuard<'_, Conns> {
    conns.lock().expect("kv connection registry mutex poisoned")
}

/// Counts one return from a blocking wait.
fn woke(front: &ReplicaFront) {
    front
        .metrics()
        .listener_wakeups
        .fetch_add(1, Ordering::Relaxed);
}

/// What arrives in a connection's queue.
enum ConnEvent {
    /// The reader submitted these requests as one batch. Sent once
    /// `submit_batch` has returned, so it can trail the requests' own
    /// `Done`s.
    Submitted(Vec<Inflight>),
    /// Request `seq` has its result: from the apply loop at commit, or
    /// from `submit_batch` itself for a rejection.
    Done {
        seq: u64,
        req_id: u64,
        result: KvResult,
    },
    /// The client is gone or the listener is halting.
    Close,
}

/// One submitted request whose response is not written yet.
struct Inflight {
    /// Position in the connection's request stream; a client may reuse a
    /// `req_id`, so this is the key.
    seq: u64,
    req_id: u64,
    token: Option<u64>,
    deadline: Instant,
}

/// The pipeline bound between a connection's two threads.
struct Gate {
    /// Requests submitted whose response the writer has not written.
    unwritten: AtomicUsize,
    /// The writer has left; the reader must too.
    closed: AtomicBool,
    /// The reader, which parks at the bound.
    reader: std::thread::Thread,
}

/// Serves one connection to its end: this thread reads, a scoped thread
/// writes.
fn serve_connection(
    stream: &TcpStream,
    front: &ReplicaFront,
    cfg: &ListenerConfig,
    conns: &Mutex<Conns>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let (queue, events) = channel();
    let id = {
        let mut conns = lock(conns);
        if conns.halted {
            return;
        }
        conns.next_id += 1;
        let id = conns.next_id;
        conns.queues.insert(id, queue.clone());
        id
    };
    let gate = Gate {
        unwritten: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        reader: std::thread::current(),
    };
    let mut writer = Writer {
        stream,
        events,
        front,
        cfg,
        gate: &gate,
        inflight: VecDeque::new(),
        early: Vec::new(),
        out: Vec::new(),
        encoded: 0,
    };
    std::thread::scope(|s| {
        let spawned = std::thread::Builder::new()
            .name(format!("ensemble-kv-writer-{id}"))
            .spawn_scoped(s, || writer.run());
        if spawned.is_ok() {
            read_requests(stream, front, cfg, &queue, &gate);
        }
        let _ = queue.send(ConnEvent::Close);
    });
    lock(conns).queues.remove(&id);
    writer.withdraw_all();
}

/// The reading half: blocks in `read`, decodes, and submits what one
/// `read` delivered as one batch. Returns when the client is gone, has
/// sent something that cannot be resynchronized (an oversized or
/// undecodable frame), or the writer has closed the connection.
fn read_requests(
    mut stream: &TcpStream,
    front: &ReplicaFront,
    cfg: &ListenerConfig,
    queue: &Sender<ConnEvent>,
    gate: &Gate,
) {
    let mut frames = FrameBuf::new();
    let mut batch = Batch::default();
    let mut seq = 0u64;
    loop {
        match frames.fill(&mut stream) {
            Ok(0) => return,
            Ok(_) => woke(front),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        // Every complete frame of this fill travels as one cast. Two
        // things bound it: the fill (`FrameBuf::READ_CHUNK` bytes plus
        // the partial frame carried over) and `pipeline_depth`.
        loop {
            let decoded = match frames.next_frame() {
                Ok(Some(payload)) => decode_request(payload),
                Ok(None) => break,
                Err(_) => None,
            };
            let Some((req_id, op)) = decoded else {
                // What came before the bad frame was well-formed.
                batch.submit(front, cfg, queue);
                return;
            };
            // Back-pressure: at the bound, read nothing more until the
            // writer has written (a slow client stalls only itself).
            // What is batched goes first — the writer cannot make room
            // by answering requests that were never submitted.
            if gate.unwritten.load(Ordering::SeqCst) >= cfg.pipeline_depth {
                batch.submit(front, cfg, queue);
                while !gate.closed.load(Ordering::SeqCst)
                    && gate.unwritten.load(Ordering::SeqCst) >= cfg.pipeline_depth
                {
                    std::thread::park();
                    woke(front);
                }
            }
            if gate.closed.load(Ordering::SeqCst) {
                return;
            }
            gate.unwritten.fetch_add(1, Ordering::SeqCst);
            batch.ops.push(op);
            batch.reqs.push((seq, req_id));
            seq += 1;
        }
        batch.submit(front, cfg, queue);
    }
}

/// The requests decoded from one `read`, in arrival order, not yet
/// submitted. Each already counts in `Gate::unwritten`.
#[derive(Default)]
struct Batch {
    ops: Vec<KvOp>,
    /// `(seq, req_id)` of `ops[i]`.
    reqs: Vec<(u64, u64)>,
}

impl Batch {
    /// Submits the batch as one cast, announces it to the writer, and
    /// leaves the batch empty.
    fn submit(&mut self, front: &ReplicaFront, cfg: &ListenerConfig, queue: &Sender<ConnEvent>) {
        if self.ops.is_empty() {
            return;
        }
        let done = self
            .reqs
            .iter()
            .map(|&(seq, req_id)| {
                let queue = queue.clone();
                Box::new(move |result| {
                    let _ = queue.send(ConnEvent::Done {
                        seq,
                        req_id,
                        result,
                    });
                }) as Completion
            })
            .collect();
        let first = front.submit_batch(&self.ops, done);
        let deadline = Instant::now() + cfg.request_timeout;
        let submitted = (0u64..)
            .zip(self.reqs.drain(..))
            .map(|(i, (seq, req_id))| Inflight {
                seq,
                req_id,
                token: first.map(|t| t + i),
                deadline,
            })
            .collect();
        let _ = queue.send(ConnEvent::Submitted(submitted));
        self.ops.clear();
    }
}

/// The writing half of a connection: owns the in-flight table and is the
/// only thread that writes to the socket.
struct Writer<'a> {
    stream: &'a TcpStream,
    events: Receiver<ConnEvent>,
    front: &'a ReplicaFront,
    cfg: &'a ListenerConfig,
    gate: &'a Gate,
    /// Submitted and unanswered, oldest first — which is deadline order,
    /// every request getting the same `request_timeout`.
    inflight: VecDeque<Inflight>,
    /// Requests answered before their `Submitted` arrived.
    early: Vec<u64>,
    /// The responses encoded since the last write, and how many.
    out: Vec<u8>,
    encoded: usize,
}

impl Writer<'_> {
    /// `out` gives back what it holds above this after a write.
    const OUT_KEEP: usize = 16 * 1024;

    fn run(&mut self) {
        while self.wait() && self.flush() {}
        self.gate.closed.store(true, Ordering::SeqCst);
        self.gate.reader.unpark();
        // Returns a reader blocked in `read`.
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Blocks until an event or the earliest deadline, then takes in
    /// everything that is ready. `false`: the connection was closed.
    fn wait(&mut self) -> bool {
        let first = match self.inflight.front() {
            None => self
                .events
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
            Some(oldest) => self
                .events
                .recv_timeout(oldest.deadline.saturating_duration_since(Instant::now())),
        };
        woke(self.front);
        let open = match first {
            Ok(event) => self.on_event(event),
            Err(RecvTimeoutError::Timeout) => true,
            Err(RecvTimeoutError::Disconnected) => false,
        };
        open && self.drain() && self.expire()
    }

    /// Takes in what the queue holds now. `false`: it held a `Close`.
    fn drain(&mut self) -> bool {
        while let Ok(event) = self.events.try_recv() {
            if !self.on_event(event) {
                return false;
            }
        }
        true
    }

    fn on_event(&mut self, event: ConnEvent) -> bool {
        match event {
            ConnEvent::Submitted(reqs) => {
                for req in reqs {
                    match self.early.iter().position(|&seq| seq == req.seq) {
                        Some(i) => drop(self.early.swap_remove(i)),
                        None => self.inflight.push_back(req),
                    }
                }
            }
            ConnEvent::Done {
                seq,
                req_id,
                result,
            } => {
                // Commits come back in submission order, so the match is
                // at or near the front.
                match self.inflight.iter().position(|req| req.seq == seq) {
                    Some(i) => drop(self.inflight.remove(i)),
                    None => self.early.push(seq),
                }
                self.respond(req_id, &result);
            }
            ConnEvent::Close => return false,
        }
        true
    }

    /// Answers every request whose deadline has passed with `Timeout`.
    fn expire(&mut self) -> bool {
        let now = Instant::now();
        while let Some(oldest) = self.inflight.front() {
            if oldest.deadline > now {
                break;
            }
            if oldest.token.is_some_and(|t| !self.front.withdraw(t)) {
                // The commit raced the deadline. The apply loop completes
                // while holding the table lock, so a failed withdraw
                // means the result is already queued: taking it in
                // answers the request and removes it from the table.
                if !self.drain() {
                    return false;
                }
                continue;
            }
            let req_id = oldest.req_id;
            self.inflight.pop_front();
            self.front
                .metrics()
                .timeouts
                .fetch_add(1, Ordering::Relaxed);
            self.respond(req_id, &KvResult::Err(KvError::Timeout));
        }
        true
    }

    fn respond(&mut self, req_id: u64, result: &KvResult) {
        put_frame(&mut self.out, &encode_response(req_id, result));
        self.encoded += 1;
    }

    /// Writes what `wait` encoded with one `write_all` and gives the
    /// reader its room back. `false`: the client is not taking it.
    fn flush(&mut self) -> bool {
        if self.encoded == 0 {
            return true;
        }
        let mut stream = self.stream;
        if stream.write_all(&self.out).is_err() {
            return false;
        }
        self.out.clear();
        self.out.shrink_to(Self::OUT_KEEP);
        let unwritten = self
            .gate
            .unwritten
            .fetch_sub(self.encoded, Ordering::SeqCst);
        self.encoded = 0;
        if unwritten >= self.cfg.pipeline_depth {
            self.gate.reader.unpark();
        }
        true
    }

    /// The connection is gone: withdraw whatever it still has pending so
    /// the replica's table does not accumulate abandoned entries. Both
    /// threads have left, so the queue holds every `Submitted` the table
    /// does not.
    fn withdraw_all(self) {
        let queued = self.events.try_iter().flat_map(|event| match event {
            ConnEvent::Submitted(reqs) => reqs,
            _ => Vec::new(),
        });
        for req in self.inflight.into_iter().chain(queued) {
            if let Some(token) = req.token {
                self.front.withdraw(token);
            }
        }
    }
}
