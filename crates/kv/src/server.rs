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
//! worker is the *reader*: it blocks in `read`, checks each request
//! frame where it lies, copies its operation's bytes into the cast it
//! builds, and submits every complete frame that `read` delivered as one
//! batch — one cast, one traversal of the stack, one WAL append, however
//! many requests the client wrote together — stopping at
//! `pipeline_depth` requests whose response is not written yet. The
//! batch stays the unit on the way back: one pending-table entry, one
//! completion, into which the replica's apply loop pushes the whole
//! cast's results the moment it commits, and one deadline. A
//! per-connection *writer* blocks on the queue; it encodes everything
//! that is ready when it wakes into one buffer and writes it with one
//! `write_all`, in *completion* order — clients match responses by
//! `req_id`, not position. Nothing polls: every thread here blocks until
//! a byte, a commit, a deadline or a halt arrives, and
//! `ensemble_kv_listener_wakeups_total` counts each return from such a
//! wait.
//!
//! A batch that misses its deadline is withdrawn from the replica's
//! pending table, whole, and each of its requests is answered with a
//! timeout error; one that arrives while the replica is stalled in a
//! minority partition is rejected immediately with "not serving" so the
//! client can redirect instead of waiting. Rejections travel through the
//! queue like any completion, so only the writer ever writes to the
//! socket.

use crate::proto::{parse_request, put_response, CastBuf, FrameBuf, KvError, KvResult};
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
    /// The reader submitted this batch. Sent once `submit_batch` has
    /// returned, so it can trail the batch's own `Done`.
    Submitted(Inflight),
    /// The batch that holds `token` committed, from the apply loop: its
    /// results, in request order.
    Done { token: u64, results: Vec<KvResult> },
    /// The replica refused these requests without proposing them.
    Refused { req_ids: Vec<u64>, error: KvError },
    /// The client is gone or the listener is halting.
    Close,
}

/// One submitted batch whose responses are not written yet.
struct Inflight {
    /// Its pending-table token, unique in the replica.
    token: u64,
    /// Its requests, in cast order.
    req_ids: Vec<u64>,
    /// Every request of the batch waits until the same instant.
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
            let parsed = match frames.next_frame() {
                Ok(Some(payload)) => parse_request(payload),
                Ok(None) => break,
                Err(_) => None,
            };
            let Some((req_id, op)) = parsed else {
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
            batch.cast.push_encoded(op);
            batch.req_ids.push(req_id);
        }
        batch.submit(front, cfg, queue);
    }
}

/// The requests read from one `read`, in arrival order, not yet
/// submitted. Each already counts in `Gate::unwritten`.
#[derive(Default)]
struct Batch {
    /// Their operations, copied from the frames into the cast.
    cast: CastBuf,
    /// The `req_id` of the cast's operation `i`.
    req_ids: Vec<u64>,
}

impl Batch {
    /// Submits the batch as one cast, announces it to the writer, and
    /// leaves the batch empty.
    fn submit(&mut self, front: &ReplicaFront, cfg: &ListenerConfig, queue: &Sender<ConnEvent>) {
        if self.req_ids.is_empty() {
            return;
        }
        let done_queue = queue.clone();
        let done: Completion = Box::new(move |token, results| {
            let _ = done_queue.send(ConnEvent::Done { token, results });
        });
        let req_ids: Vec<u64> = self.req_ids.drain(..).collect();
        let _ = queue.send(match front.submit_batch(&mut self.cast, done) {
            Ok(token) => ConnEvent::Submitted(Inflight {
                token,
                req_ids,
                deadline: Instant::now() + cfg.request_timeout,
            }),
            Err(error) => ConnEvent::Refused { req_ids, error },
        });
        self.cast.clear();
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
    /// every batch getting the same `request_timeout`.
    inflight: VecDeque<Inflight>,
    /// Batches whose `Done` arrived before their `Submitted`: token and
    /// results.
    early: Vec<(u64, Vec<KvResult>)>,
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
            ConnEvent::Submitted(batch) => {
                match self.early.iter().position(|(t, _)| *t == batch.token) {
                    Some(i) => {
                        let (_, results) = self.early.swap_remove(i);
                        self.answer(&batch.req_ids, results);
                    }
                    None => self.inflight.push_back(batch),
                }
            }
            ConnEvent::Done { token, results } => {
                // Commits come back in submission order, so the match is
                // at or near the front.
                match self.inflight.iter().position(|b| b.token == token) {
                    Some(i) => {
                        let batch = self.inflight.remove(i).expect("position found it");
                        self.answer(&batch.req_ids, results);
                    }
                    None => self.early.push((token, results)),
                }
            }
            ConnEvent::Refused { req_ids, error } => {
                for req_id in req_ids {
                    self.respond(req_id, &KvResult::Err(error));
                }
            }
            ConnEvent::Close => return false,
        }
        true
    }

    /// Answers every request of each batch whose deadline has passed
    /// with `Timeout`.
    fn expire(&mut self) -> bool {
        let now = Instant::now();
        while let Some(oldest) = self.inflight.front() {
            if oldest.deadline > now {
                break;
            }
            if !self.front.withdraw(oldest.token) {
                // The commit raced the deadline. The apply loop completes
                // while holding the table lock, so a failed withdraw
                // means the results are already queued: taking them in
                // answers the batch and removes it from `inflight`.
                if !self.drain() {
                    return false;
                }
                continue;
            }
            let batch = self.inflight.pop_front().expect("front checked");
            self.front
                .metrics()
                .timeouts
                .fetch_add(batch.req_ids.len() as u64, Ordering::Relaxed);
            for req_id in batch.req_ids {
                self.respond(req_id, &KvResult::Err(KvError::Timeout));
            }
        }
        true
    }

    /// Answers request `req_ids[i]` with `results[i]`.
    fn answer(&mut self, req_ids: &[u64], results: Vec<KvResult>) {
        debug_assert_eq!(req_ids.len(), results.len(), "one result per request");
        for (&req_id, result) in req_ids.iter().zip(&results) {
            self.respond(req_id, result);
        }
    }

    fn respond(&mut self, req_id: u64, result: &KvResult) {
        put_response(&mut self.out, req_id, result);
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
        let queued = self.events.try_iter().filter_map(|event| match event {
            ConnEvent::Submitted(batch) => Some(batch),
            _ => None,
        });
        for batch in self.inflight.into_iter().chain(queued) {
            self.front.withdraw(batch.token);
        }
    }
}
