//! One KV replica: a [`ClusterNode`] plus the apply loop.
//!
//! The replica proposes every client operation as a group cast and
//! applies casts to its [`KvStore`] strictly in delivery order — the
//! total order *is* the commit order. The replica that proposed an
//! operation recognizes its own cast coming back (submitter id + token)
//! and completes the waiting client with the `(commit index, result)`
//! the state machine computed.
//!
//! Threading: the apply loop owns the `ClusterNode` on a dedicated
//! thread. Everything other threads need — proposing casts, the serving
//! flag, the pending-completion table — travels through the cheaply
//! cloneable [`ReplicaFront`], so TCP connection workers and simulated
//! clients never touch the node itself.

use crate::config::KvConfig;
use crate::metrics::KvMetrics;
use crate::proto::{decode_cast_batch, encode_cast_batch, KvError, KvOp, KvResult};
use crate::store::KvStore;
use crate::wal::{RecoveryReport, Wal};
use ensemble_cluster::{ClusterError, ClusterEvent, ClusterNode, StateProvider};
use ensemble_event::ViewState;
use ensemble_obs::{now_ns, CcpFailure, Direction, Event, EventKind, Tag};
use ensemble_runtime::{Delivery, GroupSender, NodeObs, Transport};
use ensemble_util::Endpoint;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Requests the owner thread sends into the apply loop (which is the
/// only thread that may touch the `ClusterNode`).
enum Ctl {
    MetricsText(Sender<String>),
    View(Sender<ViewState>),
    /// Reply with `(commit index, snapshot)` only once the apply queue
    /// is drained. Sent by [`StoreProvider`] when the cluster driver
    /// builds a merge grant: the driver may have delivered casts the
    /// apply thread has not applied yet, and a snapshot taken mid-drain
    /// would be stale — the rejoiner would re-apply the gap and shift
    /// every later commit index. During a merge the group is wedged
    /// (flushed, no new casts), so "drained once" is "drained for good"
    /// and the reply is exact.
    Stable(Sender<(u64, Vec<u8>)>),
}

/// What the apply loop runs, once, with a request's result. It is called
/// with the pending table locked, so it must only hand the result on —
/// push it into a queue — and never block or submit.
pub(crate) type Completion = Box<dyn FnOnce(KvResult) + Send>;

/// Submitted operations awaiting their commit, by token.
type PendingTable = Arc<Mutex<HashMap<u64, Completion>>>;

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

    /// Proposes `op` into the total order; the receiver completes with
    /// the committed result (or an error if it never commits).
    pub fn submit(&self, op: &KvOp) -> Receiver<KvResult> {
        let (rx, _) = self.submit_tracked(op);
        rx
    }

    /// Like [`ReplicaFront::submit`], but also returns the pending-table
    /// token (when one was issued) so the caller can [`withdraw`] the
    /// operation if it stops waiting.
    ///
    /// [`withdraw`]: ReplicaFront::withdraw
    pub fn submit_tracked(&self, op: &KvOp) -> (Receiver<KvResult>, Option<u64>) {
        let (tx, rx) = channel();
        let done: Completion = Box::new(move |result| {
            let _ = tx.send(result);
        });
        let token = self.submit_batch(std::slice::from_ref(op), vec![done]);
        (rx, token)
    }

    /// Proposes `ops` as one cast — they commit at consecutive commit
    /// indices, in order — and has the apply loop hand the result of
    /// `ops[i]` to `done[i]`, which must only pass it on (see
    /// `Completion`). Each completion runs exactly once unless its
    /// operation is [`withdraw`]n first; a rejection (not serving, cast
    /// refused) runs them all before this returns. Returns the
    /// pending-table token of `ops[0]` — `ops[i]` holds that plus `i` —
    /// or `None` for "not serving".
    ///
    /// [`withdraw`]: ReplicaFront::withdraw
    pub(crate) fn submit_batch(&self, ops: &[KvOp], done: Vec<Completion>) -> Option<u64> {
        assert!(!ops.is_empty(), "a cast carries at least one operation");
        assert_eq!(ops.len(), done.len(), "one completion per operation");
        let n = ops.len() as u64;
        if !self.serving.load(Ordering::Relaxed) {
            self.metrics
                .rejected_not_serving
                .fetch_add(n, Ordering::Relaxed);
            for done in done {
                done(KvResult::Err(KvError::NotServing));
            }
            return None;
        }
        let first = self.next_token.fetch_add(n, Ordering::Relaxed);
        self.lock_pending().extend((first..).zip(done));
        self.metrics.requests.fetch_add(n, Ordering::Relaxed);
        self.metrics.casts.fetch_add(1, Ordering::Relaxed);
        if self
            .sender
            .cast(&encode_cast_batch(self.id, first, ops))
            .is_err()
        {
            let refused: Vec<Completion> = {
                let mut pending = self.lock_pending();
                (first..first + n)
                    .filter_map(|token| pending.remove(&token))
                    .collect()
            };
            for done in refused {
                done(KvResult::Err(KvError::Closed));
            }
        }
        Some(first)
    }

    fn lock_pending(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Completion>> {
        self.pending
            .lock()
            .expect("kv pending table mutex poisoned")
    }

    /// Withdraws a pending operation the caller no longer waits on.
    ///
    /// Returns `true` if the entry was still pending (a later commit
    /// goes unobserved — but perfectly linearized). Returns `false` if
    /// the commit already completed it; the apply loop completes
    /// entries while holding the table lock, so in that case the result
    /// is guaranteed to be sitting in the submit receiver (or wherever
    /// else the operation's completion puts it).
    pub fn withdraw(&self, token: u64) -> bool {
        self.lock_pending().remove(&token).is_some()
    }

    /// Operations submitted here and neither completed nor withdrawn.
    pub fn pending_len(&self) -> usize {
        self.lock_pending().len()
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
    log: Arc<Mutex<Vec<(u64, KvOp)>>>,
    ctl_tx: Sender<Ctl>,
    stop: Arc<AtomicBool>,
    crashed: Arc<AtomicBool>,
    apply: Option<std::thread::JoinHandle<()>>,
}

/// The cluster-facing state provider: snapshots the store and reports
/// its commit index as the state version (the merge-grant fast path's
/// resume hint).
///
/// The driver thread calls this while the apply thread may still be
/// draining delivered casts, so a direct store read can lag the flush
/// point. Once the apply loop runs, requests rendezvous with it via
/// [`Ctl::Stable`]; before it runs (rendezvous at form time) the store
/// is touched by no one else and a direct read is exact.
struct StoreProvider {
    store: Arc<Mutex<KvStore>>,
    ctl_tx: Sender<Ctl>,
    loop_running: Arc<AtomicBool>,
}

impl StoreProvider {
    /// `(commit index, snapshot)` at a point where the apply thread has
    /// drained everything delivered so far.
    fn stable(&mut self) -> (u64, Vec<u8>) {
        if self.loop_running.load(Ordering::Acquire) {
            let (tx, rx) = channel();
            if self.ctl_tx.send(Ctl::Stable(tx)).is_ok() {
                if let Ok(reply) = rx.recv_timeout(Duration::from_secs(5)) {
                    return reply;
                }
            }
        }
        let s = self.store.lock().expect("kv store mutex poisoned");
        (s.commit_index(), s.snapshot())
    }
}

impl StateProvider for StoreProvider {
    fn snapshot(&mut self) -> Vec<u8> {
        self.stable().1
    }

    fn version(&mut self) -> u64 {
        self.stable().0
    }
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
        let recovered_ci = store.commit_index();
        let store = Arc::new(Mutex::new(store));
        let (ctl_tx, ctl_rx) = channel();
        let loop_running = Arc::new(AtomicBool::new(false));
        let provider: Box<dyn StateProvider> = Box::new(StoreProvider {
            store: Arc::clone(&store),
            ctl_tx: ctl_tx.clone(),
            loop_running: Arc::clone(&loop_running),
        });
        let node = ClusterNode::form(ep, seed, cfg.cluster, control, data, Some(provider))?;

        let front = ReplicaFront {
            id: ep.id(),
            sender: node.sender(),
            serving: node.serving_flag(),
            pending: Arc::new(Mutex::new(HashMap::new())),
            next_token: Arc::new(AtomicU64::new(0)),
            metrics,
        };
        let log = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let crashed = Arc::new(AtomicBool::new(false));
        let loop_ = ApplyLoop {
            my_id: ep.id(),
            node,
            store,
            log: Arc::clone(&log),
            pending: Arc::clone(&front.pending),
            metrics: Arc::clone(&front.metrics),
            ctl_rx,
            stop: Arc::clone(&stop),
            wal,
            await_ack: VecDeque::new(),
            recovered_ci,
            snapshot_seen: false,
            formed_seen: false,
            crashed: Arc::clone(&crashed),
            loop_running,
            stable_reqs: Vec::new(),
        };
        let apply = std::thread::Builder::new()
            .name(format!("ensemble-kv-{}", ep.id()))
            .spawn(move || loop_.run())
            .map_err(|e| ClusterError::Runtime(format!("spawn apply loop: {e}")))?;
        Ok((
            KvReplica {
                ep,
                front,
                log,
                ctl_tx,
                stop,
                crashed,
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
    /// checker's per-replica feed.
    pub fn commit_log(&self) -> Vec<(u64, KvOp)> {
        self.log
            .lock()
            .expect("kv commit log mutex poisoned")
            .clone()
    }

    /// The most recently installed view (asks the apply loop).
    pub fn view(&self) -> Option<ViewState> {
        let (tx, rx) = channel();
        self.ctl_tx.send(Ctl::View(tx)).ok()?;
        rx.recv_timeout(Duration::from_secs(2)).ok()
    }

    /// Runtime + cluster + KV metrics in Prometheus text exposition
    /// format (asks the apply loop, which owns the node).
    pub fn metrics_text(&self) -> String {
        let (tx, rx) = channel();
        if self.ctl_tx.send(Ctl::MetricsText(tx)).is_err() {
            return self.front.metrics.render();
        }
        rx.recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| self.front.metrics.render())
    }

    /// Stops the apply loop and the underlying cluster member.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.apply.take() {
            let _ = t.join();
        }
    }

    /// Simulates a crash-stop: tears the replica down like
    /// [`KvReplica::shutdown`] but *without* the courtesy WAL flush, so
    /// whatever the storage medium had not made durable is lost exactly
    /// as in a power cut. Crash harnesses pair this with
    /// [`crate::MemDisk::crash`] to also tear the medium's volatile
    /// buffers.
    pub fn kill(mut self) {
        self.crashed.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.apply.take() {
            let _ = t.join();
        }
    }
}

impl Drop for KvReplica {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.apply.take() {
            let _ = t.join();
        }
    }
}

struct ApplyLoop {
    my_id: u32,
    node: ClusterNode,
    store: Arc<Mutex<KvStore>>,
    log: Arc<Mutex<Vec<(u64, KvOp)>>>,
    pending: PendingTable,
    metrics: Arc<KvMetrics>,
    ctl_rx: Receiver<Ctl>,
    stop: Arc<AtomicBool>,
    /// Durable mode: every commit is WAL-appended before its ack.
    wal: Option<Wal>,
    /// This replica's own operations, applied and not yet acknowledged:
    /// held until the WAL's durable frontier covers them, when there is
    /// a WAL (commit index, pending-table token, result).
    await_ack: VecDeque<(u64, u64, KvResult)>,
    /// Commit index recovered at startup (0 = cold start).
    recovered_ci: u64,
    /// A state snapshot arrived (used to spot the skip fast path).
    snapshot_seen: bool,
    /// The Formed event was observed.
    formed_seen: bool,
    /// Crash-stop teardown: skip the final courtesy flush.
    crashed: Arc<AtomicBool>,
    /// Published for [`StoreProvider`]: once true, stable-state requests
    /// must rendezvous with this loop instead of reading the store.
    loop_running: Arc<AtomicBool>,
    /// Stable-state requests answered at the next queue drain.
    stable_reqs: Vec<Sender<(u64, Vec<u8>)>>,
}

impl ApplyLoop {
    fn run(mut self) {
        let obs = self.node.obs_arc();
        let shard = self.node.aux_obs_shard();
        let tag = obs.recorder.register("kv");
        self.loop_running.store(true, Ordering::Release);
        if self.wal.is_some() {
            self.record(&obs, shard, tag, EventKind::Recovery, self.recovered_ci);
        }
        // Opportunistic group commit: while acks are held for a partial
        // batch, poll instead of parking so the sync runs the moment
        // the event queue drains. After one forced-flush attempt the
        // poll reverts to a parked wait, so an injected fsync failure
        // retries at the tick cadence instead of spinning.
        let mut quick = false;
        while !self.stop.load(Ordering::Relaxed) {
            while let Ok(ctl) = self.ctl_rx.try_recv() {
                match ctl {
                    Ctl::MetricsText(tx) => {
                        let mut text = self.node.metrics_text();
                        text.push_str(&self.metrics.render());
                        let _ = tx.send(text);
                    }
                    Ctl::View(tx) => {
                        let _ = tx.send(self.node.view());
                    }
                    Ctl::Stable(tx) => {
                        self.stable_reqs.push(tx);
                    }
                }
            }
            let timeout = if quick {
                Duration::ZERO
            } else {
                Duration::from_millis(2)
            };
            match self.node.recv_timeout(timeout) {
                Some(ev) => {
                    self.on_event(ev, &obs, shard, tag);
                    quick = !self.await_ack.is_empty();
                }
                None => {
                    // Idle tick: force-sync a partial group-commit batch
                    // and retry records stuck behind an injected short
                    // write or fsync failure, then release any acks the
                    // repaired frontier now covers.
                    if let Some(wal) = &mut self.wal {
                        let flushed = wal.needs_flush() && wal.flush();
                        let errs = wal.take_io_errors();
                        if errs > 0 {
                            self.metrics
                                .wal_append_failures
                                .fetch_add(errs, Ordering::Relaxed);
                        }
                        if flushed {
                            self.drain_acks(&obs, shard, tag);
                        }
                    }
                    // The queue is drained: everything delivered so far
                    // is applied, so a stable-state reply is exact.
                    self.answer_stable();
                    quick = false;
                }
            }
        }
        // Make whatever the medium will accept durable before the
        // thread dies — unless this teardown simulates a crash, where
        // losing the unsynced tail is exactly the point.
        if !self.crashed.load(Ordering::Relaxed) {
            if let Some(wal) = &mut self.wal {
                let _ = wal.flush();
            }
        }
        // Don't leave a driver mid-grant hanging on its timeout: answer
        // outstanding (and just-arrived) stable requests with what we
        // have before the channel closes.
        self.loop_running.store(false, Ordering::Release);
        while let Ok(ctl) = self.ctl_rx.try_recv() {
            if let Ctl::Stable(tx) = ctl {
                self.stable_reqs.push(tx);
            }
        }
        self.answer_stable();
    }

    /// Replies to every pending stable-state request with the store as
    /// it stands. Call only when the apply queue is drained (or the
    /// loop is exiting and no better answer will ever come).
    fn answer_stable(&mut self) {
        if self.stable_reqs.is_empty() {
            return;
        }
        let (ci, snap) = {
            let s = self.store.lock().expect("kv store mutex poisoned");
            (s.commit_index(), s.snapshot())
        };
        for tx in self.stable_reqs.drain(..) {
            let _ = tx.send((ci, snap.clone()));
        }
    }

    fn on_event(&mut self, ev: ClusterEvent, obs: &NodeObs, shard: usize, tag: Tag) {
        match ev {
            ClusterEvent::Snapshot(snap) => {
                self.snapshot_seen = true;
                let restored = self
                    .store
                    .lock()
                    .expect("kv store mutex poisoned")
                    .restore(&snap);
                if restored {
                    self.metrics
                        .snapshots_installed
                        .fetch_add(1, Ordering::Relaxed);
                    // The WAL's lineage predates the installed state:
                    // checkpoint immediately so the (checkpoint, log)
                    // pair stays the authority for every later ack.
                    self.take_checkpoint(obs, shard, tag);
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
                self.on_cast(&bytes, obs, shard, tag);
            }
            // Views, sends, stalls, fences: membership is the cluster
            // layer's business; the serving flag already reflects it.
            _ => {}
        }
    }

    /// Applies one ordered cast: every operation it carries, in order at
    /// consecutive commit indices, logged with one WAL append — or, if
    /// it does not decode, none of them.
    fn on_cast(&mut self, bytes: &[u8], obs: &NodeObs, shard: usize, tag: Tag) {
        let Some((submitter, ops)) = decode_cast_batch(bytes) else {
            // Every replica was delivered these bytes at this position:
            // one that cannot decode them has diverged from any that
            // can, and the least it owes is to say so.
            self.metrics
                .undecodable_casts
                .fetch_add(1, Ordering::Relaxed);
            self.record(
                obs,
                shard,
                tag,
                EventKind::KvUndecodable,
                bytes.len() as u64,
            );
            return;
        };
        let n = ops.len() as u64;
        let (first_ci, results): (u64, Vec<KvResult>) = {
            let mut store = self.store.lock().expect("kv store mutex poisoned");
            let first_ci = store.commit_index() + 1;
            (
                first_ci,
                ops.iter().map(|(_, op)| store.apply(op)).collect(),
            )
        };
        let last_ci = first_ci + n - 1;
        self.metrics.commits.fetch_add(n, Ordering::Relaxed);
        if let Some(wal) = &mut self.wal {
            // Write-ahead before ack: a record must be durable (or
            // superseded by a checkpoint) before the submitting client
            // hears the result.
            let records = (first_ci..).zip(ops.iter().map(|(_, op)| op));
            let (durable, len) = wal.append_batch(records);
            let errs = wal.take_io_errors();
            self.metrics.wal_appends.fetch_add(n, Ordering::Relaxed);
            self.metrics
                .wal_bytes
                .fetch_add(len as u64, Ordering::Relaxed);
            if errs > 0 {
                self.metrics
                    .wal_append_failures
                    .fetch_add(errs, Ordering::Relaxed);
            }
            if durable >= last_ci {
                // Group-commit boundary: everything up to `last_ci`
                // just became durable.
                self.record(obs, shard, tag, EventKind::WalAppend, last_ci);
            }
        }
        let mine = submitter == self.my_id;
        {
            let mut log = self.log.lock().expect("kv commit log mutex poisoned");
            for (ci, ((token, op), result)) in (first_ci..).zip(ops.into_iter().zip(results)) {
                log.push((ci, op));
                self.record(obs, shard, tag, EventKind::KvCommit, ci);
                if mine {
                    self.await_ack.push_back((ci, token, result));
                }
            }
        }
        self.drain_acks(obs, shard, tag);
        if self.wal.as_ref().is_some_and(|w| w.checkpoint_due()) {
            self.take_checkpoint(obs, shard, tag);
        }
    }

    /// Releases every held-back ack the durable frontier now covers
    /// (without a WAL: all of them). The table lock is held across each
    /// remove-then-hand-over: `submit_timeout` and the listener's
    /// connection writers rely on that being atomic with respect to
    /// their own withdrawal.
    fn drain_acks(&mut self, obs: &NodeObs, shard: usize, tag: Tag) {
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
            let (ci, token, result) = self.await_ack.pop_front().expect("front checked");
            if let Some(done) = pending.remove(&token) {
                done(result);
                self.metrics.responses.fetch_add(1, Ordering::Relaxed);
                self.record(obs, shard, tag, EventKind::KvResponse, ci);
            }
        }
    }

    /// Snapshots the store into the alternate checkpoint slot and
    /// truncates the log; on success anything the log could not make
    /// durable is durable now, so held-back acks drain.
    fn take_checkpoint(&mut self, obs: &NodeObs, shard: usize, tag: Tag) {
        let Some(wal) = &mut self.wal else { return };
        let (ci, written) = {
            let s = self.store.lock().expect("kv store mutex poisoned");
            (s.commit_index(), wal.checkpoint_store(&s))
        };
        if let Ok(bytes) = written {
            self.metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .checkpoint_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
            self.record(obs, shard, tag, EventKind::Checkpoint, ci);
            self.drain_acks(obs, shard, tag);
        }
    }

    fn record(&self, obs: &NodeObs, shard: usize, tag: Tag, kind: EventKind, aux: u64) {
        if !obs.enabled() {
            return;
        }
        obs.recorder.record(
            shard,
            &Event {
                t_ns: now_ns(),
                layer: tag,
                kind,
                dir: Direction::Up,
                group: self.my_id,
                seqno: 0,
                ccp: CcpFailure::None,
                aux,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_runtime::{FaultPlan, LoopbackHub};
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
    fn withdrawing_one_op_of_a_batch_leaves_the_others_answered_once() {
        let (replicas, _control, data) = group(43);
        let front = replicas[2].front();
        // Cut the data plane only: nobody is suspected, the cast goes
        // nowhere until the heal, so the withdrawal cannot lose a race.
        data.split(vec![vec![0, 1], vec![2]]);
        let ops = sets(32);
        let (tx, rx) = channel();
        let done: Vec<Completion> = (0..ops.len())
            .map(|i| {
                let tx = tx.clone();
                Box::new(move |result| tx.send((i, result)).expect("test is listening"))
                    as Completion
            })
            .collect();
        let first = front.submit_batch(&ops, done).expect("serving");
        assert_eq!(front.pending_len(), 32);
        assert_eq!(front.metrics().casts.load(Ordering::Relaxed), 1);
        assert!(front.withdraw(first + 7), "still pending");
        data.heal();
        let mut answered: Vec<(usize, KvResult)> = (0..31)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(20))
                    .expect("31 answers")
            })
            .collect();
        answered.sort_by_key(|(i, _)| *i);
        // The withdrawn op committed like the rest, unobserved: the
        // others sit at consecutive commit indices around its gap.
        let want: Vec<(usize, KvResult)> = (0..32)
            .filter(|&i| i != 7)
            .map(|i| (i, KvResult::Applied { ci: i as u64 + 1 }))
            .collect();
        assert_eq!(answered, want);
        assert_eq!(front.pending_len(), 0);
        for r in &replicas {
            await_that("a replica never applied the batch", || {
                r.commit_log().len() == 32
            });
            let log: Vec<KvOp> = r.commit_log().into_iter().map(|(_, op)| op).collect();
            assert_eq!(log, ops);
        }
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "a second answer"
        );
        assert_eq!(front.metrics().responses.load(Ordering::Relaxed), 31);
    }
}
