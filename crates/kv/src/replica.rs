//! One KV replica: a [`ClusterNode`] plus the apply loop.
//!
//! The replica proposes every client operation as a group cast and
//! applies casts to its [`KvStore`] strictly in delivery order — the
//! total order *is* the commit order. The replica that proposed a
//! cast recognizes it coming back (submitter id + first token) and runs
//! its one completion with every result the state machine computed, in
//! op order — once the WAL, when there is one, holds the cast's last
//! record durably.
//!
//! Threading: the apply thread owns the store, the commit log and the
//! WAL, and reads one FIFO inbox that every producer writes to — the
//! cluster driver's events and state requests, commit-log reads, stop.
//! It runs when something arrives and sleeps otherwise. Everything
//! client threads need — proposing casts, the serving flag, the
//! pending-completion table — travels through the cheaply cloneable
//! [`ReplicaFront`]; [`KvReplica`] keeps the `ClusterNode` itself.

use crate::config::KvConfig;
use crate::metrics::KvMetrics;
use crate::proto::{decode_cast_batch, CastBuf, CastView, KvError, KvOp, KvResult};
use crate::store::KvStore;
use crate::wal::{RecoveryReport, Wal};
use ensemble_cluster::{ClusterError, ClusterEvent, ClusterNode, StateProvider};
use ensemble_event::ViewState;
use ensemble_obs::{now_ns, CcpFailure, Direction, Event, EventKind, RingWriter, Tag};
use ensemble_runtime::{Delivery, GroupSender, Transport};
use ensemble_util::Endpoint;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What the apply thread reads, from one FIFO queue: a message is
/// handled after everything sent before it.
enum Inbox {
    /// A cluster event, from `form` or the cluster driver.
    Event(ClusterEvent),
    /// Reply with the commit index. The cluster driver sends this and
    /// `Snapshot` through [`StoreProvider`] in program order with the
    /// deliveries it hands over, so the reply reflects exactly the casts
    /// delivered before the request — the merge grant's state is exact.
    Version(Sender<u64>),
    /// Reply with the store's snapshot (it carries the commit index).
    Snapshot(Sender<Vec<u8>>),
    /// Reply with the commit log, decoded.
    Log(Sender<Vec<(u64, KvOp)>>),
    /// This thread's own writer of the node's flight recorder, sent once
    /// `form` returns: KV tracing starts here, and what the thread
    /// handled during `form` is not traced.
    Obs(RingWriter),
    /// Stop applying. A `crash` drops the WAL with its unsynced tail;
    /// otherwise the WAL is flushed first. Later events are ignored,
    /// but state requests are answered until the inbox disconnects.
    Stop { crash: bool },
}

impl From<ClusterEvent> for Inbox {
    fn from(ev: ClusterEvent) -> Inbox {
        Inbox::Event(ev)
    }
}

/// How long the apply loop waits for input while a flush retry is due
/// (records an injected short write or fsync failure left unsynced).
const FLUSH_RETRY: Duration = Duration::from_millis(2);

/// What the apply loop runs, once per cast, with the cast's first token
/// and its results in op order. It is called with the pending table
/// locked, so it must only hand the results on — push them into a queue
/// — and never block or submit.
pub(crate) type Completion = Box<dyn FnOnce(u64, Vec<KvResult>) + Send>;

/// Submitted casts awaiting their commit, by first token: how many
/// operations each carries, and its completion.
type Pending = HashMap<u64, (u64, Completion)>;
type PendingTable = Arc<Mutex<Pending>>;

/// The cheaply cloneable client-facing seam of a replica.
#[derive(Clone)]
pub struct ReplicaFront {
    id: u32,
    sender: GroupSender,
    serving: Arc<AtomicBool>,
    pending: PendingTable,
    next_token: Arc<AtomicU64>,
    metrics: Arc<KvMetrics>,
}

impl ReplicaFront {
    /// Whether the replica behind this front currently serves requests
    /// (false while stalled in a minority partition or fenced).
    pub fn is_serving(&self) -> bool {
        self.serving.load(Ordering::Relaxed)
    }

    /// This replica's endpoint id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The replica's counters.
    pub fn metrics(&self) -> &KvMetrics {
        &self.metrics
    }

    /// Proposes `op` into the total order and returns a receiver that
    /// completes with the committed result (or at once with the error if
    /// the replica refused it), plus the pending-table token when one was
    /// issued, so the caller can [`withdraw`] the operation if it stops
    /// waiting.
    ///
    /// [`withdraw`]: ReplicaFront::withdraw
    pub fn submit_tracked(&self, op: &KvOp) -> (Receiver<KvResult>, Option<u64>) {
        let (tx, rx) = channel();
        let reply = tx.clone();
        let done: Completion = Box::new(move |_, mut results| {
            let _ = reply.send(results.pop().expect("one result for one op"));
        });
        let mut cast = CastBuf::default();
        cast.push(op);
        match self.submit_batch(&mut cast, done) {
            Ok(token) => (rx, Some(token)),
            Err(e) => {
                let _ = tx.send(KvResult::Err(e));
                (rx, None)
            }
        }
    }

    /// Proposes the operations of `cast` as one cast — they commit at
    /// consecutive commit indices, in order — and has the apply loop run
    /// `done` once with their results, which must only pass them on (see
    /// `Completion`), unless the cast is [`withdraw`]n first. Returns the
    /// cast's pending-table token, or the rejection: `NotServing`, or
    /// `Closed` when the cast was refused; `done` never runs then. The
    /// one submit path: `cast` is sealed here with this replica's id and
    /// the tokens.
    ///
    /// [`withdraw`]: ReplicaFront::withdraw
    pub(crate) fn submit_batch(
        &self,
        cast: &mut CastBuf,
        done: Completion,
    ) -> Result<u64, KvError> {
        assert!(cast.len() > 0, "a cast carries at least one operation");
        let n = cast.len() as u64;
        if !self.serving.load(Ordering::Relaxed) {
            self.metrics
                .rejected_not_serving
                .fetch_add(n, Ordering::Relaxed);
            return Err(KvError::NotServing);
        }
        let first = self.next_token.fetch_add(n, Ordering::Relaxed);
        self.lock_pending().insert(first, (n, done));
        self.metrics.requests.fetch_add(n, Ordering::Relaxed);
        self.metrics.casts.fetch_add(1, Ordering::Relaxed);
        if self.sender.cast(cast.seal(self.id, first)).is_err() && self.withdraw(first) {
            return Err(KvError::Closed);
        }
        Ok(first)
    }

    fn lock_pending(&self) -> std::sync::MutexGuard<'_, Pending> {
        self.pending
            .lock()
            .expect("kv pending table mutex poisoned")
    }

    /// Withdraws a pending cast, by the token `submit_batch` returned,
    /// that the caller no longer waits on.
    ///
    /// Returns `true` if the entry was still pending (a later commit
    /// goes unobserved — but perfectly linearized). Returns `false` if
    /// the commit already completed it; the apply loop completes
    /// entries while holding the table lock, so in that case the results
    /// are guaranteed to be sitting in the submit receiver (or wherever
    /// else the cast's completion puts them).
    pub fn withdraw(&self, token: u64) -> bool {
        self.lock_pending().remove(&token).is_some()
    }

    /// Operations submitted here and neither completed nor withdrawn.
    pub fn pending_len(&self) -> usize {
        self.lock_pending().values().map(|(n, _)| *n as usize).sum()
    }

    /// Proposes `op` and waits up to `timeout` for its commit.
    pub fn submit_timeout(&self, op: &KvOp, timeout: Duration) -> KvResult {
        let (rx, token) = self.submit_tracked(op);
        match rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(_) => {
                if let Some(token) = token {
                    if !self.withdraw(token) {
                        // The commit raced the timeout; take its result.
                        if let Ok(r) = rx.try_recv() {
                            return r;
                        }
                    }
                }
                self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                KvResult::Err(KvError::Timeout)
            }
        }
    }
}

/// A state-machine-replicated KV service member.
pub struct KvReplica {
    ep: Endpoint,
    front: ReplicaFront,
    /// `None` once [`KvReplica::halt`] has stopped it.
    node: Option<ClusterNode>,
    inbox: Sender<Inbox>,
    apply: Option<JoinHandle<()>>,
}

/// The cluster-facing state provider: snapshots the store and reports
/// its commit index as the state version (the merge-grant fast path's
/// resume hint). Each call queues a request in the apply thread's
/// inbox and waits for the reply; see [`Inbox::Version`].
struct StoreProvider(Sender<Inbox>);

impl StateProvider for StoreProvider {
    fn snapshot(&mut self) -> Vec<u8> {
        ask(&self.0, Inbox::Snapshot)
    }

    fn version(&mut self) -> u64 {
        ask(&self.0, Inbox::Version)
    }
}

/// Sends the request `msg` wraps around a reply channel and waits for
/// the apply thread's answer.
fn ask<T>(inbox: &Sender<Inbox>, msg: impl FnOnce(Sender<T>) -> Inbox) -> T {
    let (reply, rx) = channel();
    let _ = inbox.send(msg(reply));
    rx.recv()
        .expect("a stopped apply thread answers until its last sender is gone")
}

impl KvReplica {
    /// Rendezvous via `seed` and start this replica (blocking, like
    /// [`ClusterNode::form`]). The store snapshot is wired up as the
    /// cluster's [`StateProvider`], so joiners and post-heal merge
    /// grants receive the full map plus its commit index.
    ///
    /// A replica formed this way keeps its state only in memory — a
    /// crash loses everything not re-transferred by the group. Use
    /// [`KvReplica::form_durable`] for WAL-backed crash recovery.
    pub fn form(
        ep: Endpoint,
        seed: Endpoint,
        cfg: KvConfig,
        control: Box<dyn Transport>,
        data: Box<dyn Transport>,
    ) -> Result<KvReplica, ClusterError> {
        Self::form_inner(ep, seed, cfg, control, data, None).map(|(r, _)| r)
    }

    /// Like [`KvReplica::form`], but durable: recovers the state from
    /// `wal` (latest valid checkpoint slot, then the log tail,
    /// tolerating torn tail records), appends every committed operation
    /// to the WAL *before* acknowledging its client, and checkpoints
    /// per the WAL's config — build it with [`Wal::on_mem_disk`],
    /// [`Wal::on_dir`], or [`Wal::new`], passing `cfg.wal`. The
    /// recovered commit index rides the rejoin Hello as a resume hint,
    /// so a caught-up rejoiner skips the snapshot transfer.
    ///
    /// Returns the replica plus what recovery found (the harness's feed
    /// for the checker's recovery invariants).
    pub fn form_durable(
        ep: Endpoint,
        seed: Endpoint,
        cfg: KvConfig,
        control: Box<dyn Transport>,
        data: Box<dyn Transport>,
        wal: Wal,
    ) -> Result<(KvReplica, RecoveryReport), ClusterError> {
        let (replica, report) = Self::form_inner(ep, seed, cfg, control, data, Some(wal))?;
        let report = report.expect("durable form always recovers");
        Ok((replica, report))
    }

    fn form_inner(
        ep: Endpoint,
        seed: Endpoint,
        cfg: KvConfig,
        control: Box<dyn Transport>,
        data: Box<dyn Transport>,
        wal: Option<Wal>,
    ) -> Result<(KvReplica, Option<RecoveryReport>), ClusterError> {
        cfg.validate()?;
        let metrics = Arc::new(KvMetrics::default());
        let (store, wal, report) = match wal {
            Some(mut wal) => {
                let report = wal
                    .recover()
                    .map_err(|e| ClusterError::Runtime(format!("wal recovery: {e}")))?;
                metrics.recoveries.fetch_add(1, Ordering::Relaxed);
                metrics
                    .torn_tail_records
                    .fetch_add(report.torn_tail_records, Ordering::Relaxed);
                (report.store.clone(), Some(wal), Some(report))
            }
            None => (KvStore::new(), None, None),
        };
        let pending: PendingTable = Arc::new(Mutex::new(HashMap::new()));
        // The apply thread runs before `form`: the seed's rendezvous
        // snapshot and a joiner's resume hint are state requests too.
        let apply = ApplyLoop {
            my_id: ep.id(),
            recovered_ci: store.commit_index(),
            store,
            log: Vec::new(),
            pending: Arc::clone(&pending),
            metrics: Arc::clone(&metrics),
            wal,
            await_ack: VecDeque::new(),
            snapshot_seen: false,
            formed_seen: false,
            trace: KvTrace::default(),
        };
        let (inbox, apply) = apply
            .spawn()
            .map_err(|e| ClusterError::Runtime(format!("spawn apply loop: {e}")))?;
        let provider = Box::new(StoreProvider(inbox.clone()));
        let node = match ClusterNode::form(
            ep,
            seed,
            cfg.cluster,
            control,
            data,
            Some(provider),
            inbox.clone(),
        ) {
            Ok(node) => node,
            Err(e) => {
                drop(inbox);
                let _ = apply.join();
                return Err(e);
            }
        };
        if let Some(w) = node.trace_writer() {
            let _ = inbox.send(Inbox::Obs(w));
        }
        let front = ReplicaFront {
            id: ep.id(),
            sender: node.sender(),
            serving: node.serving_flag(),
            pending,
            next_token: Arc::new(AtomicU64::new(0)),
            metrics,
        };
        Ok((
            KvReplica {
                ep,
                front,
                node: Some(node),
                inbox,
                apply: Some(apply),
            },
            report,
        ))
    }

    /// This replica's endpoint.
    pub fn endpoint(&self) -> Endpoint {
        self.ep
    }

    /// A cloneable client-facing front (submit, serving flag, metrics).
    pub fn front(&self) -> ReplicaFront {
        self.front.clone()
    }

    /// Whether this replica currently serves requests.
    pub fn is_serving(&self) -> bool {
        self.front.is_serving()
    }

    /// Proposes `op` and waits up to `timeout` for its commit.
    pub fn submit_timeout(&self, op: &KvOp, timeout: Duration) -> KvResult {
        self.front.submit_timeout(op, timeout)
    }

    /// This replica's service counters.
    pub fn metrics(&self) -> &KvMetrics {
        &self.front.metrics
    }

    /// A copy of the applied log (commit index, operation) — the
    /// checker's per-replica feed. It holds every cast the apply thread
    /// was handed before this call, decoded for it.
    pub fn commit_log(&self) -> Vec<(u64, KvOp)> {
        ask(&self.inbox, Inbox::Log)
    }

    /// The index of the last operation the apply thread has applied, at
    /// the moment it reads this request: what a caller that only counts
    /// commits asks instead of [`KvReplica::commit_log`].
    pub fn commit_index(&self) -> u64 {
        ask(&self.inbox, Inbox::Version)
    }

    fn node(&self) -> &ClusterNode {
        self.node
            .as_ref()
            .expect("the node lives until the replica halts")
    }

    /// The most recently installed view.
    pub fn view(&self) -> ViewState {
        self.node().view()
    }

    /// Runtime + cluster + KV metrics in Prometheus text exposition
    /// format.
    pub fn metrics_text(&self) -> String {
        let mut text = self.node().metrics_text();
        text.push_str(&self.front.metrics.render());
        text
    }

    /// Stops the apply loop and the underlying cluster member.
    pub fn shutdown(mut self) {
        self.halt(false);
    }

    /// Simulates a crash-stop: tears the replica down like
    /// [`KvReplica::shutdown`] but *without* the courtesy WAL flush, so
    /// whatever the storage medium had not made durable is lost exactly
    /// as in a power cut. Crash harnesses pair this with
    /// [`crate::MemDisk::crash`] to also tear the medium's volatile
    /// buffers.
    pub fn kill(mut self) {
        self.halt(true);
    }

    /// Stops the apply thread where its inbox stands — a crash leaves
    /// the WAL's unsynced tail as it is — then the node. The stopped
    /// thread still answers a driver's state request; it exits once the
    /// node and `inbox`, its last senders, are gone.
    fn halt(&mut self, crash: bool) {
        if let Some(apply) = self.apply.take() {
            let _ = self.inbox.send(Inbox::Stop { crash });
            drop(self.node.take());
            self.inbox = channel().0; // drops the replica's own sender
            let _ = apply.join();
        }
    }
}

impl Drop for KvReplica {
    fn drop(&mut self) {
        self.halt(false);
    }
}

/// The apply thread's state: it alone touches the store, the log and
/// the WAL.
struct ApplyLoop {
    my_id: u32,
    store: KvStore,
    /// One entry per applied cast: its first commit index and the bytes
    /// it was delivered as.
    log: Vec<(u64, Vec<u8>)>,
    pending: PendingTable,
    metrics: Arc<KvMetrics>,
    /// Durable mode: every commit is WAL-appended before its ack.
    wal: Option<Wal>,
    /// This replica's own casts, applied and not yet acknowledged: held
    /// until the WAL's durable frontier covers them, when there is a WAL
    /// (last commit index, pending-table token, results in op order).
    await_ack: VecDeque<(u64, u64, Vec<KvResult>)>,
    /// Commit index recovered at startup (0 = cold start).
    recovered_ci: u64,
    /// A state snapshot arrived (used to spot the skip fast path).
    snapshot_seen: bool,
    /// The Formed event was observed.
    formed_seen: bool,
    /// This thread's flight-recorder ring, once [`Inbox::Obs`] has
    /// arrived (never, when obs is off).
    trace: KvTrace,
}

impl ApplyLoop {
    /// Starts the loop on its own thread; returns its inbox.
    fn spawn(self) -> std::io::Result<(Sender<Inbox>, JoinHandle<()>)> {
        let (tx, rx) = channel();
        let thread = std::thread::Builder::new()
            .name(format!("ensemble-kv-{}", self.my_id))
            .spawn(move || self.run(rx))?;
        Ok((tx, thread))
    }

    fn run(mut self, inbox: Receiver<Inbox>) {
        let mut stopped = false;
        loop {
            let msg = match inbox.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => {
                    // Drained: sync what group commit held back, then
                    // sleep until the next message — or, while a flush
                    // must be retried, for at most `FLUSH_RETRY`.
                    let got = if self.on_drained() {
                        inbox.recv_timeout(FLUSH_RETRY)
                    } else {
                        inbox.recv().map_err(RecvTimeoutError::from)
                    };
                    self.metrics.apply_wakeups.fetch_add(1, Ordering::Relaxed);
                    match got {
                        Ok(msg) => msg,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            };
            match msg {
                Inbox::Event(ev) if !stopped => self.on_event(ev),
                Inbox::Event(_) => {}
                Inbox::Version(reply) => {
                    let _ = reply.send(self.store.commit_index());
                }
                Inbox::Snapshot(reply) => {
                    let _ = reply.send(self.store.snapshot());
                }
                Inbox::Log(reply) => {
                    let _ = reply.send(self.decoded_log());
                }
                Inbox::Obs(w) => {
                    let tag = w.register("kv");
                    self.trace = KvTrace(Some((w, tag)));
                    if self.wal.is_some() {
                        self.trace
                            .record(self.my_id, EventKind::Recovery, self.recovered_ci);
                    }
                }
                Inbox::Stop { crash } => {
                    // Make whatever the medium will accept durable —
                    // unless this teardown simulates a crash, where
                    // losing the unsynced tail is exactly the point —
                    // and let go of the WAL, so no drain syncs it.
                    if let Some(mut wal) = self.wal.take().filter(|_| !crash) {
                        let _ = wal.flush();
                    }
                    stopped = true;
                }
            }
        }
    }

    /// The inbox is empty: force-sync a partial group-commit batch (and
    /// retry records an injected short write or fsync failure left
    /// unsynced), release the acks the sync covers and count the errors.
    /// Returns whether records are still unsynced, so a retry is due.
    fn on_drained(&mut self) -> bool {
        let Some(wal) = &mut self.wal else {
            return false;
        };
        let flushed = wal.needs_flush() && wal.flush();
        self.metrics
            .wal_append_failures
            .fetch_add(wal.take_io_errors(), Ordering::Relaxed);
        let retry = wal.needs_flush();
        if flushed {
            self.drain_acks();
        }
        retry
    }

    fn on_event(&mut self, ev: ClusterEvent) {
        match ev {
            ClusterEvent::Snapshot(snap) => {
                self.snapshot_seen = true;
                if self.store.restore(&snap) {
                    self.metrics
                        .snapshots_installed
                        .fetch_add(1, Ordering::Relaxed);
                    // The WAL's lineage predates the installed state:
                    // checkpoint immediately so the (checkpoint, log)
                    // pair stays the authority for every later ack.
                    self.take_checkpoint();
                }
            }
            ClusterEvent::Formed(_) if !self.formed_seen => {
                self.formed_seen = true;
                // A durable rejoiner that was formed without a snapshot
                // kept its recovered state: the coordinator took the
                // state-transfer fast path.
                if self.wal.is_some() && self.recovered_ci > 0 && !self.snapshot_seen {
                    self.metrics
                        .snapshots_skipped
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            ClusterEvent::Delivery(Delivery::Cast { bytes, .. }) => {
                self.on_cast(bytes);
            }
            // Views, sends, stalls, fences: membership is the cluster
            // layer's business; the serving flag already reflects it.
            _ => {}
        }
    }

    /// Applies one ordered cast: every operation it carries, in order at
    /// consecutive commit indices, logged with one WAL append — or, if
    /// it does not parse, none of them. The operations are read where
    /// they lie in `bytes`, which the commit log then keeps.
    fn on_cast(&mut self, bytes: Vec<u8>) {
        let Some(cast) = CastView::parse(&bytes) else {
            // Every replica was delivered these bytes at this position:
            // one that cannot decode them has diverged from any that
            // can, and the least it owes is to say so.
            self.metrics
                .undecodable_casts
                .fetch_add(1, Ordering::Relaxed);
            self.trace
                .record(self.my_id, EventKind::KvUndecodable, bytes.len() as u64);
            return;
        };
        let n = cast.len() as u64;
        let first_ci = self.store.commit_index() + 1;
        let last_ci = first_ci + n - 1;
        // Only the submitter answers, so only it reads a GET's value.
        let mine = cast.submitter() == self.my_id;
        let mut results = Vec::with_capacity(if mine { cast.len() } else { 0 });
        results.extend(
            cast.ops()
                .filter_map(|(_, op, _)| self.store.apply_ref(op, mine)),
        );
        if mine {
            let (token, ..) = cast.ops().next().expect("a cast carries an op");
            self.await_ack.push_back((last_ci, token, results));
        }
        self.metrics.commits.fetch_add(n, Ordering::Relaxed);
        if let Some(wal) = &mut self.wal {
            // Write-ahead before ack: a record must be durable (or
            // superseded by a checkpoint) before the submitting client
            // hears the result.
            let records = (first_ci..).zip(cast.ops().map(|(_, _, op)| op));
            let (durable, len) = wal.append_encoded(records);
            self.metrics.wal_appends.fetch_add(n, Ordering::Relaxed);
            self.metrics
                .wal_bytes
                .fetch_add(len as u64, Ordering::Relaxed);
            self.metrics
                .wal_append_failures
                .fetch_add(wal.take_io_errors(), Ordering::Relaxed);
            if durable >= last_ci {
                // Group-commit boundary: everything up to `last_ci`
                // just became durable.
                self.trace.record(self.my_id, EventKind::WalAppend, last_ci);
            }
        }
        for ci in first_ci..=last_ci {
            self.trace.record(self.my_id, EventKind::KvCommit, ci);
        }
        self.log.push((first_ci, bytes));
        self.drain_acks();
        if self.wal.as_ref().is_some_and(|w| w.checkpoint_due()) {
            self.take_checkpoint();
        }
    }

    /// The commit log as `(commit index, operation)`, one per operation.
    fn decoded_log(&self) -> Vec<(u64, KvOp)> {
        let mut out = Vec::new();
        for (first_ci, bytes) in &self.log {
            let (_, ops) = decode_cast_batch(bytes).expect("only casts that parse are logged");
            out.extend((*first_ci..).zip(ops.into_iter().map(|(_, op)| op)));
        }
        out
    }

    /// Releases every held-back cast whose last record the durable
    /// frontier now covers (without a WAL: all of them). The frontier
    /// moves by whole casts — a WAL run is one cast's records — so a
    /// cast's acks go together. The table lock is held across each
    /// remove-then-hand-over: `submit_timeout` and the listener's
    /// connection writers rely on that being atomic with respect to
    /// their own withdrawal.
    fn drain_acks(&mut self) {
        let durable = match &self.wal {
            Some(wal) => wal.durable_ci(),
            None => u64::MAX,
        };
        if self.await_ack.front().is_none_or(|(ci, ..)| *ci > durable) {
            return;
        }
        let mut pending = self
            .pending
            .lock()
            .expect("kv pending table mutex poisoned");
        while self
            .await_ack
            .front()
            .is_some_and(|(ci, ..)| *ci <= durable)
        {
            let (last_ci, token, results) = self.await_ack.pop_front().expect("front checked");
            if let Some((n, done)) = pending.remove(&token) {
                // Counted and traced before the client can hear it, so a
                // client that has its answer finds it in both.
                self.metrics.responses.fetch_add(n, Ordering::Relaxed);
                for ci in last_ci + 1 - n..=last_ci {
                    self.trace.record(self.my_id, EventKind::KvResponse, ci);
                }
                done(token, results);
            }
        }
    }

    /// Snapshots the store into the alternate checkpoint slot and
    /// truncates the log; on success anything the log could not make
    /// durable is durable now, so held-back acks drain.
    fn take_checkpoint(&mut self) {
        let Some(wal) = &mut self.wal else { return };
        if let Ok(bytes) = wal.checkpoint_store(&self.store) {
            self.metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .checkpoint_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
            self.trace
                .record(self.my_id, EventKind::Checkpoint, self.store.commit_index());
            self.drain_acks();
        }
    }
}

/// The apply loop's own flight-recorder ring and its `kv` tag.
#[derive(Default)]
struct KvTrace(Option<(RingWriter, Tag)>);

impl KvTrace {
    fn record(&mut self, group: u32, kind: EventKind, aux: u64) {
        let Some((w, tag)) = &mut self.0 else {
            return;
        };
        w.record(&Event {
            t_ns: now_ns(),
            layer: *tag,
            kind,
            dir: Direction::Up,
            group,
            seqno: 0,
            ccp: CcpFailure::None,
            aux,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::encode_cast_batch;
    use crate::{MemDisk, StorageFaults, WalConfig};
    use ensemble_runtime::{FaultPlan, LoopbackHub};
    use ensemble_util::DetRng;
    use std::time::Instant;

    /// A three-replica group over fresh loopback hubs (control, data).
    fn group(seed: u64) -> (Vec<KvReplica>, LoopbackHub, LoopbackHub) {
        let control = LoopbackHub::with_faults(seed, FaultPlan::default());
        let data = LoopbackHub::with_faults(seed ^ 0x5EED, FaultPlan::default());
        let formers: Vec<_> = (0..3u32)
            .map(|i| {
                let ep = Endpoint::new(i);
                let (c, d) = (control.attach(ep), data.attach(ep));
                std::thread::spawn(move || {
                    KvReplica::form(
                        ep,
                        Endpoint::new(0),
                        KvConfig::new(3),
                        Box::new(c),
                        Box::new(d),
                    )
                })
            })
            .collect();
        let replicas = formers
            .into_iter()
            .map(|f| f.join().unwrap().expect("replica rendezvous completes"))
            .collect();
        (replicas, control, data)
    }

    fn await_that(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn sets(n: usize) -> Vec<KvOp> {
        (0..n)
            .map(|i| KvOp::Set(format!("k{i}").into_bytes(), vec![i as u8; i % 5]))
            .collect()
    }

    /// An apply loop with no node around it, to feed through an inbox.
    fn bare_loop(wal: Option<Wal>) -> ApplyLoop {
        ApplyLoop {
            my_id: 1,
            store: KvStore::new(),
            log: Vec::new(),
            pending: Arc::default(),
            metrics: Arc::default(),
            wal,
            await_ack: VecDeque::new(),
            recovered_ci: 0,
            snapshot_seen: false,
            formed_seen: false,
            trace: KvTrace::default(),
        }
    }

    fn cast_of(ops: &[KvOp]) -> Inbox {
        Inbox::Event(ClusterEvent::Delivery(Delivery::Cast {
            origin: 9,
            bytes: encode_cast_batch(9, 0, ops),
        }))
    }

    /// A random operation over `keys` keys, so that keys are present
    /// and absent in turn; a CAS expects the model's current value half
    /// of the time.
    fn random_op(rng: &mut DetRng, model: &KvStore, keys: u64) -> KvOp {
        let key = format!("k{}", rng.below(keys)).into_bytes();
        let mut value = vec![0u8; rng.below(40) as usize];
        rng.fill_bytes(&mut value);
        match rng.below(4) {
            0 => KvOp::Get(key),
            1 => KvOp::Set(key, value),
            2 => KvOp::Del(key),
            _ => {
                let expect = match rng.below(4) {
                    0 | 1 => model.peek(&key).map(<[u8]>::to_vec),
                    2 => None,
                    _ => Some(value.clone()),
                };
                KvOp::Cas {
                    key,
                    expect,
                    new: value,
                }
            }
        }
    }

    #[test]
    fn casts_applied_in_place_match_the_owned_path_and_recover_from_the_wal() {
        for seed in 0..8u64 {
            let mut rng = DetRng::new(seed);
            let disk = MemDisk::new(seed, StorageFaults::clean());
            let cfg = WalConfig {
                checkpoint_every: 64,
                sync_every: 8,
            };
            let mut wal = Wal::on_mem_disk(&disk, "r", cfg);
            wal.recover().expect("an empty disk recovers");
            let mut apply = bare_loop(Some(wal));
            let (answer, answered) = channel();
            let mut model = KvStore::new();
            let mut want = Vec::new();
            let mut token = 0u64;
            for _ in 0..60 {
                let n = 1 + rng.below(40);
                let ops: Vec<KvOp> = (0..n).map(|_| random_op(&mut rng, &model, 24)).collect();
                // Half of the casts are this replica's own: it answers
                // those, and only those.
                let submitter = if rng.below(2) == 0 { apply.my_id } else { 7 };
                let bytes = encode_cast_batch(submitter, token, &ops);
                let (_, decoded) = decode_cast_batch(&bytes).expect("own cast decodes");
                let results = decoded.iter().map(|(_, op)| model.apply(op)).collect();
                if submitter == apply.my_id {
                    want.push((token, results));
                    let answer = answer.clone();
                    let done: Completion = Box::new(move |t, r| answer.send((t, r)).unwrap());
                    apply.pending.lock().unwrap().insert(token, (n, done));
                }
                token += n;
                apply.on_cast(bytes);
                apply.on_drained();
            }
            assert_eq!(apply.store, model, "seed {seed}: the stores differ");
            assert_eq!(
                answered.try_iter().collect::<Vec<_>>(),
                want,
                "seed {seed}: the answers differ"
            );
            assert!(apply.metrics.checkpoints.load(Ordering::Relaxed) > 0);
            let rep = Wal::on_mem_disk(&disk, "r", cfg)
                .recover()
                .expect("recovers");
            assert_eq!(
                rep.store, model,
                "seed {seed}: the WAL rebuilds another store"
            );
        }
    }

    #[test]
    fn a_state_request_behind_n_casts_sees_all_n() {
        let (inbox, thread) = bare_loop(None).spawn().expect("spawn apply loop");
        let ops = sets(40);
        for op in &ops {
            inbox
                .send(cast_of(std::slice::from_ref(op)))
                .expect("loop runs");
        }
        assert_eq!(ask(&inbox, Inbox::Version), 40);
        let snap = ask(&inbox, Inbox::Snapshot);
        let mut copy = KvStore::new();
        assert!(copy.restore(&snap));
        assert_eq!(copy.commit_index(), 40);
        for op in &ops {
            let KvOp::Set(k, v) = op else { unreachable!() };
            assert_eq!(copy.peek(k), Some(&v[..]), "the snapshot holds every cast");
        }
        drop(inbox);
        thread.join().expect("loop exits cleanly");
    }

    #[test]
    fn a_stopped_loop_answers_state_requests_until_its_inbox_disconnects() {
        let (inbox, thread) = bare_loop(None).spawn().expect("spawn apply loop");
        for (i, op) in sets(5).iter().enumerate() {
            if i == 3 {
                inbox.send(Inbox::Stop { crash: true }).expect("loop runs");
            }
            inbox
                .send(cast_of(std::slice::from_ref(op)))
                .expect("loop runs");
        }
        // A cluster driver still running may ask after Stop.
        assert_eq!(ask(&inbox, Inbox::Version), 3, "no cast applied after Stop");
        assert_eq!(ask(&inbox, Inbox::Log).len(), 3);
        drop(inbox);
        thread
            .join()
            .expect("with its last sender gone, the loop exits");
    }

    #[test]
    fn a_crash_stop_leaves_the_group_commit_tail_unsynced_and_a_clean_one_syncs_it() {
        for crash in [true, false] {
            let disk = MemDisk::new(7, StorageFaults::clean());
            let mut wal = Wal::on_mem_disk(&disk, "r", KvConfig::new(3).wal);
            wal.recover().expect("an empty disk recovers");
            let (inbox, rx) = channel();
            for op in &sets(5) {
                inbox
                    .send(cast_of(std::slice::from_ref(op)))
                    .expect("queued");
            }
            inbox.send(Inbox::Stop { crash }).expect("queued");
            drop(inbox);
            // Run over an inbox that is already full: it never drains
            // before Stop, so Stop alone decides what the tail becomes.
            bare_loop(Some(wal)).run(rx);
            assert_eq!(disk.pending_len() > 0, crash, "crash: {crash}");
        }
    }

    #[test]
    fn shutdown_and_kill_answer_a_state_request_made_while_they_run() {
        let (mut replicas, _control, _data) = group(47);
        let front = replicas[0].front();
        assert_eq!(
            front.submit_timeout(&sets(1)[0], Duration::from_secs(5)),
            KvResult::Applied { ci: 1 }
        );
        for (i, crash) in [(2, true), (1, false), (0, false)] {
            let r = replicas.remove(i);
            await_that("the commit reached the replica", || {
                r.metrics().commits.load(Ordering::Relaxed) == 1
            });
            // Stands in for the cluster driver's provider: it holds a
            // sender and asks while the replica halts.
            let driver = r.inbox.clone();
            let asker = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                ask(&driver, Inbox::Version)
            });
            let t0 = Instant::now();
            if crash {
                r.kill();
            } else {
                r.shutdown();
            }
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "took {:?}",
                t0.elapsed()
            );
            assert_eq!(asker.join().expect("the request is answered"), 1);
        }
    }

    #[test]
    fn a_cast_truncated_inside_any_op_is_applied_by_no_replica() {
        let (replicas, _control, _data) = group(41);
        let front = replicas[1].front();
        let ops = sets(6);
        let whole = encode_cast_batch(front.id(), 1 << 40, &ops);
        // Cut inside the first, a middle and the last op.
        let cuts = [1, 3, 6].map(|k| encode_cast_batch(front.id(), 1 << 40, &ops[..k]).len() - 2);
        for cut in cuts {
            front.sender.cast(&whole[..cut]).expect("cast accepted");
        }
        let probe = KvOp::Set(b"after".to_vec(), b"1".to_vec());
        let result = front.submit_timeout(&probe, Duration::from_secs(5));
        // Ordered behind the three bad casts, and still the first commit.
        assert_eq!(result, KvResult::Applied { ci: 1 });
        for r in &replicas {
            await_that("a replica never saw the casts", || {
                r.metrics().undecodable_casts.load(Ordering::Relaxed) == 3
                    && r.metrics().commits.load(Ordering::Relaxed) == 1
            });
            assert_eq!(
                r.commit_log(),
                vec![(1, probe.clone())],
                "no op of a bad cast"
            );
        }
    }

    #[test]
    fn a_cast_is_answered_once_in_op_order_when_its_last_record_is_durable() {
        let disk = MemDisk::new(5, StorageFaults::clean());
        // Group commit waits for more records than the cast carries: only
        // the drained inbox's forced sync makes it durable.
        let cfg = WalConfig {
            checkpoint_every: 1 << 20,
            sync_every: 64,
        };
        let mut wal = Wal::on_mem_disk(&disk, "r", cfg);
        wal.recover().expect("an empty disk recovers");
        let mut apply = bare_loop(Some(wal));
        let (tx, rx) = channel();
        let synced = disk.clone();
        let done: Completion = Box::new(move |token, results| {
            // Runs under the table lock: what the disk holds unsynced now
            // is what a crash before the client hears back could lose.
            let unsynced = synced.pending_len();
            tx.send((token, unsynced, results))
                .expect("test is listening");
        });
        let token = 1 << 20;
        apply.pending.lock().unwrap().insert(token, (32, done));
        apply.on_cast(encode_cast_batch(apply.my_id, token, &sets(32)));
        assert!(disk.pending_len() > 0, "the cast is written, not synced");
        assert!(rx.try_recv().is_err(), "answered before it was durable");
        apply.on_drained();
        let (got_token, unsynced, results) = rx.try_recv().expect("answered at the sync");
        assert_eq!(got_token, token);
        assert_eq!(unsynced, 0, "answered with records unsynced");
        let want: Vec<KvResult> = (1..=32).map(|ci| KvResult::Applied { ci }).collect();
        assert_eq!(results, want, "one result per op, in op order");
        assert!(rx.try_recv().is_err(), "a second completion");
        assert!(apply.pending.lock().unwrap().is_empty());
        assert_eq!(apply.metrics.responses.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn a_withdrawn_cast_is_answered_by_nobody() {
        let (replicas, _control, data) = group(43);
        let front = replicas[2].front();
        let (tx, rx) = channel();
        let submit = |ops: &[KvOp]| {
            let tx = tx.clone();
            let done: Completion = Box::new(move |token, results| {
                tx.send((token, results)).expect("test is listening")
            });
            let mut cast = CastBuf::default();
            for op in ops {
                cast.push(op);
            }
            front.submit_batch(&mut cast, done).expect("serving")
        };
        // Cut the data plane only: nobody is suspected, the cast goes
        // nowhere until the heal, so the withdrawal cannot lose a race.
        data.split(vec![vec![0, 1], vec![2]]);
        let ops = sets(32);
        let withdrawn = submit(&ops[..16]);
        assert_eq!(front.pending_len(), 16, "operations, not casts");
        assert!(front.withdraw(withdrawn), "still pending");
        assert!(!front.withdraw(withdrawn), "withdrawn once");
        assert_eq!(front.pending_len(), 0);
        data.heal();
        // Ordered behind the withdrawn cast, which commits unobserved.
        let answered = submit(&ops[16..]);
        let (token, results) = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the second cast is answered");
        assert_eq!(token, answered);
        let want: Vec<KvResult> = (17..=32).map(|ci| KvResult::Applied { ci }).collect();
        assert_eq!(results, want);
        for r in &replicas {
            await_that("a replica never applied both casts", || {
                r.commit_index() == 32
            });
            let log: Vec<KvOp> = r.commit_log().into_iter().map(|(_, op)| op).collect();
            assert_eq!(log, ops);
        }
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "the withdrawn cast was answered"
        );
        assert_eq!(front.pending_len(), 0);
        assert_eq!(front.metrics().casts.load(Ordering::Relaxed), 2);
        assert_eq!(front.metrics().responses.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn a_loaded_replica_records_every_cluster_and_kv_event_it_attempts() {
        const CLIENTS: usize = 4;
        const PER_CLIENT: usize = 50;
        let (replicas, _control, _data) = group(0x0B5E);
        let fronts: Vec<ReplicaFront> = replicas.iter().map(|r| r.front()).collect();
        // The cluster driver heartbeats on its own ring while four
        // clients keep the apply loop busy on another.
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let front = fronts[0].clone();
                std::thread::spawn(move || {
                    for op in sets(PER_CLIENT) {
                        let r = front.submit_timeout(&op, Duration::from_secs(20));
                        assert!(matches!(r, KvResult::Applied { .. }), "client {c}: {r:?}");
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        let ops = (CLIENTS * PER_CLIENT) as u64;
        for (i, r) in replicas.iter().enumerate() {
            let (mut commits, mut responses, mut beats) = (0, 0, 0);
            // Each counter ticks just before its event is recorded: poll
            // until the drained events catch up with the counters. An
            // event lost on the way leaves a gap that never closes.
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                for e in r.node().trace_events() {
                    match (e.kind, e.dir) {
                        (EventKind::KvCommit, _) => commits += 1,
                        (EventKind::KvResponse, _) => responses += 1,
                        (EventKind::Heartbeat, Direction::Up) => beats += 1,
                        _ => {}
                    }
                }
                let heard = r
                    .node()
                    .metrics()
                    .heartbeats_received
                    .load(Ordering::Relaxed);
                let answered = r.metrics().responses.load(Ordering::Relaxed);
                if commits == ops && responses == answered && beats == heard && heard > 0 {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "replica {i} recorded {commits} of {ops} commits, {responses} of \
                     {answered} responses, {beats} of {heard} heartbeats"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            let mine = if i == 0 { ops } else { 0 };
            assert_eq!(responses, mine, "replica {i} answers only its own clients");
        }
    }
}
