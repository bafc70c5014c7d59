//! The two KV workloads: three replicas in one process, one TCP listener
//! each, and two `KvClient`s in closed loop — one operation at a time
//! (`kv-seq`) or batches of 32 on a durable group (`kv-pipe-durable`).

use crate::gen::{KvGen, KvMix};
use crate::harness::{
    gen_thread, Bracket, Phase, RuntimeCounts, ThreadTally, Until, ATTEMPTED, OP_TIMEOUT,
};
use crate::procfs;
use crate::report::Values;
use crate::span::SpanLog;
use crate::stats;
use crate::wrap::{CountingTransport, StorageCounters, TimingStorage, TransportCounters};
use ensemble_kv::{
    KvClient, KvConfig, KvLinearizabilityChecker, KvListener, KvOp, KvReplica, KvResult, MemDisk,
    StorageFaults, Wal,
};
use ensemble_runtime::{LoopbackHub, Transport};
use ensemble_util::Endpoint;
use std::net::SocketAddr;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replicas in the group.
pub const REPLICAS: usize = 3;
/// Client threads (and connections): one per core of the reference box.
pub const CLIENTS: usize = 2;

/// Each client sleeps a seeded time, uniform below this, before every
/// call, so that requests reach the listener at every phase of its 2 ms
/// polls and of the kernel's timer tick. A client that sends the moment
/// its reply arrives locks onto those grids instead: every call then
/// takes a whole number of ticks, and which number hangs on microseconds.
pub const THINK_MAX: Duration = Duration::from_millis(4);

/// What distinguishes `kv-seq` from `kv-pipe-durable`.
pub struct KvSpec {
    /// Form the replicas on a WAL over a fault-free `MemDisk`.
    pub durable: bool,
    /// Operations per client call: 1 uses `KvClient::call`, more uses
    /// `KvClient::pipeline`.
    pub depth: usize,
    /// Operation mix.
    pub mix: KvMix,
    /// Keys, all preloaded through the service before the run.
    pub keys: u64,
    /// Bytes per value.
    pub value_len: usize,
    /// Operations each client sends, and awaits, before the measured
    /// phase.
    pub warmup: u64,
    /// Confine the run to one CPU (`harness::hold_one_cpu`).
    pub one_cpu: bool,
}

/// Latency-bound: depth-1 calls, mostly reads, no WAL; a fifth of one
/// core, so it runs on one.
pub const SEQ: KvSpec = KvSpec {
    durable: false,
    depth: 1,
    mix: KvMix {
        get: 80,
        set: 20,
        cas: 0,
        del: 0,
    },
    keys: 1024,
    value_len: 64,
    warmup: 100,
    one_cpu: true,
};

/// Work-bound: batches of 32, mostly writes, WAL and checkpoints
/// at the service's defaults (a 4096 × 256-byte store is a 1 MiB
/// snapshot per checkpoint).
pub const PIPE_DURABLE: KvSpec = KvSpec {
    durable: true,
    depth: 32,
    mix: KvMix {
        get: 10,
        set: 60,
        cas: 20,
        del: 10,
    },
    keys: 4096,
    value_len: 256,
    warmup: 512,
    one_cpu: false,
};

/// What the wrappers of a traced system have counted.
#[derive(Default)]
struct Counters {
    data: Arc<TransportCounters>,
    control: Arc<TransportCounters>,
    storage: Arc<StorageCounters>,
}

/// One client connection with its input stream and everything it has
/// seen complete (the linearizability checker's feed).
struct Client {
    kv: KvClient,
    gen: KvGen,
    done: Vec<(KvOp, KvResult)>,
}

/// A formed, preloaded, warmed-up replica group with its clients.
pub struct KvSystem {
    spec: &'static KvSpec,
    replicas: Vec<KvReplica>,
    listeners: Vec<KvListener>,
    clients: Vec<Client>,
    counters: Option<Counters>,
    /// Wall time of the three concurrent `KvReplica::form*` calls.
    pub form_ms: f64,
}

impl KvSystem {
    /// Forms the group over two fresh loopback hubs, binds a listener
    /// per replica, loads the keyspace through client 0 and runs the
    /// warm-up. With `traced`, every transport and every WAL medium is
    /// wrapped to count what passes.
    pub fn setup(spec: &'static KvSpec, seed: u64, traced: bool) -> KvSystem {
        let control = LoopbackHub::new(seed);
        let data = LoopbackHub::new(seed ^ 0x5EED);
        let counters = traced.then(Counters::default);
        type Pick = fn(&Counters) -> &Arc<TransportCounters>;
        let wrap = |t: Box<dyn Transport>, pick: Pick| match &counters {
            Some(c) => CountingTransport::wrap(t, pick(c)),
            None => t,
        };
        let seed_ep = Endpoint::new(0);
        let t_form = Instant::now();
        let formers: Vec<_> = (0..REPLICAS as u32)
            .map(|i| {
                let ep = Endpoint::new(i);
                let c = wrap(Box::new(control.attach(ep)), |c| &c.control);
                let d = wrap(Box::new(data.attach(ep)), |c| &c.data);
                let cfg = KvConfig::new(REPLICAS);
                let wal = spec.durable.then(|| {
                    let disk = MemDisk::new(seed.wrapping_add(i as u64), StorageFaults::clean());
                    match &counters {
                        Some(c) => Wal::new(
                            TimingStorage::wrap(disk.open("r.log"), &c.storage),
                            TimingStorage::wrap(disk.open("r.ckpt-a"), &c.storage),
                            TimingStorage::wrap(disk.open("r.ckpt-b"), &c.storage),
                            cfg.wal,
                        ),
                        None => Wal::on_mem_disk(&disk, "r", cfg.wal),
                    }
                });
                // Rendezvous blocks until all three have said hello.
                std::thread::spawn(move || match wal {
                    Some(wal) => {
                        KvReplica::form_durable(ep, seed_ep, cfg, c, d, wal).map(|(r, _)| r)
                    }
                    None => KvReplica::form(ep, seed_ep, cfg, c, d),
                })
            })
            .collect();
        let replicas: Vec<KvReplica> = formers
            .into_iter()
            .map(|f| {
                f.join()
                    .expect("former thread")
                    .expect("replica group forms")
            })
            .collect();
        let form_ms = t_form.elapsed().as_secs_f64() * 1e3;

        let listeners: Vec<KvListener> = replicas
            .iter()
            .map(|r| {
                KvListener::start(r.front(), "127.0.0.1:0", (&KvConfig::new(REPLICAS)).into())
                    .expect("bind a loopback listener")
            })
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.addr()).collect();

        let clients = (0..CLIENTS)
            .map(|c| {
                // Client c starts at replica c, so the two connections
                // land on different replicas' listeners.
                let mut order = addrs.clone();
                order.rotate_left(c % REPLICAS);
                Client {
                    kv: KvClient::new(order, OP_TIMEOUT),
                    gen: KvGen::new(seed, c as u64, spec.keys, spec.value_len, spec.mix),
                    done: Vec::new(),
                }
            })
            .collect();
        let mut sys = KvSystem {
            spec,
            replicas,
            listeners,
            clients,
            counters,
            form_ms,
        };

        let loader = &mut sys.clients[0];
        for batch in loader.gen.preload().chunks(32) {
            std::thread::sleep(loader.gen.think(THINK_MAX));
            let results = loader.kv.pipeline(batch).expect("preload batch commits");
            loader.done.extend(batch.iter().cloned().zip(results));
        }
        let tallies = sys.drive(Until::Count(spec.warmup), None);
        assert!(
            tallies.iter().all(|t| t.failed == 0),
            "warm-up operations failed"
        );
        sys
    }

    /// Runs the closed loop for `dur`; returns the phase and the in-run
    /// layer metrics.
    pub fn measure(&mut self, dur: Duration, spans: Option<&mut SpanLog>) -> (Phase, Values) {
        let before = self.layer_snapshot();
        let bracket = Bracket::open();
        let tallies = self.drive(Until::Deadline(bracket.t0 + dur), spans);
        let phase = bracket.close(tallies);
        let after = self.layer_snapshot();
        let layer = in_run_metrics(&phase, &before, &after);
        (phase, layer)
    }

    /// Both clients in closed loop, one thread each, blocking in
    /// `KvClient`'s socket reads.
    fn drive(&mut self, until: Until, spans: Option<&mut SpanLog>) -> Vec<ThreadTally> {
        let spec = self.spec;
        let t0 = Instant::now();
        let traced = spans.is_some();
        let (tallies, logs): (Vec<ThreadTally>, Vec<SpanLog>) = std::thread::scope(|s| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    gen_thread(&format!("kv{c}"))
                        .spawn_scoped(s, move || client_loop(c, client, spec, until, t0, traced))
                        .expect("spawn client")
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread"))
                .unzip()
        });
        if let Some(all) = spans {
            logs.into_iter().for_each(|l| all.absorb(l));
        }
        tallies
    }

    /// Latency probes on the traced system, after its measured phase:
    /// the same operations through `ReplicaFront` directly (the commit
    /// wait alone) and through one `KvClient` (the TCP plane on top).
    pub fn probe_planes(&mut self, spans: &mut SpanLog) -> Values {
        const PROBES: usize = 150;
        let front = self.replicas[0].front();
        let client = &mut self.clients[0];
        let (mut submit_ns, mut wait_ns, mut call_ns) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..PROBES {
            let op = client.gen.next_op();
            let id = (1 << 40) | i as u64;
            let whole = spans.open("kv.ReplicaFront.submit_timeout", None, id);
            let (rx, _token) =
                spans.time("kv.ReplicaFront.submit_tracked", Some(whole), id, || {
                    front.submit_tracked(&op)
                });
            let result = spans.time("kv.ReplicaFront.wait", Some(whole), id, || {
                rx.recv_timeout(OP_TIMEOUT)
            });
            spans.close(whole);
            let s = spans.spans();
            submit_ns.push(s[whole + 1].duration_ns() as f64);
            wait_ns.push(s[whole].duration_ns() as f64);
            if let Ok(r) = result {
                client.done.push((op, r));
            }
        }
        for i in PROBES..2 * PROBES {
            let op = client.gen.next_op();
            let id = (1 << 40) | i as u64;
            std::thread::sleep(client.gen.think(THINK_MAX));
            let result = spans.time("kv.KvClient.call", None, id, || client.kv.call(&op));
            let call = spans.spans().last().expect("just recorded");
            call_ns.push(call.duration_ns() as f64);
            if let Ok(r) = result {
                client.done.push((op, r));
            }
        }
        let mut v = Values::new();
        let (wait, call) = (stats::median(&wait_ns), stats::median(&call_ns));
        v.insert("kv.front.submit_ns", stats::median(&submit_ns));
        v.insert("kv.front.wait_p50_us", wait / 1e3);
        v.insert("kv.tcp.call_p50_us", call / 1e3);
        v.insert("kv.tcp.plane_overhead_us", (call - wait) / 1e3);
        v
    }

    /// Checks the outputs — every replica holds the identical commit
    /// log, and the linearizability checker finds nothing wrong with
    /// what the clients saw — then stops listeners and replicas.
    pub fn verify_and_teardown(self) -> bool {
        // A commit is acknowledged by its own replica first; give the
        // other two a moment to apply the tail.
        let deadline = Instant::now() + OP_TIMEOUT;
        let commits = |r: &KvReplica| r.metrics().commits.load(Relaxed);
        while self
            .replicas
            .windows(2)
            .any(|w| commits(&w[0]) != commits(&w[1]))
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        let logs: Vec<_> = self.replicas.iter().map(|r| r.commit_log()).collect();
        let mut correct = logs.windows(2).all(|w| w[0] == w[1]);
        if !correct {
            eprintln!("benchmark: replicas' commit logs differ");
        }
        let mut checker = KvLinearizabilityChecker::new();
        for (replica, log) in logs.into_iter().enumerate() {
            for (ci, op) in log {
                checker.on_commit(replica as u32, ci, op);
            }
        }
        for client in self.clients {
            for (op, result) in client.done {
                checker.on_response(op, result);
            }
        }
        let violations = checker.finish();
        for v in violations.iter().take(10) {
            eprintln!("benchmark: linearizability violation: {v}");
        }
        correct &= violations.is_empty();
        self.listeners.into_iter().for_each(|l| l.shutdown());
        self.replicas.into_iter().for_each(|r| r.shutdown());
        correct
    }

    /// Counters of every layer below the clients, summed over replicas.
    fn layer_snapshot(&self) -> LayerSnapshot {
        let mut s = LayerSnapshot::default();
        for r in &self.replicas {
            let text = r.metrics_text();
            let rt = &mut s.runtime;
            rt.spurious_wakeups += series_sum(&text, "ensemble_spurious_wakeups_total", "");
            rt.retransmits += series_sum(&text, "ensemble_retransmits_total", "");
            rt.bypass_hits += series_sum(&text, "ensemble_bypass_total", "result=\"hit\"");
            rt.bypass_misses += series_sum(&text, "ensemble_bypass_total", "result=\"miss\"");
            rt.defer_flushes += series_sum(&text, "ensemble_defer_flushes_total", "");
            s.views_installed += series_sum(&text, "ensemble_cluster_views_installed_total", "");
            let m = r.metrics();
            s.timeouts += m.timeouts.load(Relaxed);
            s.rejected += m.rejected_not_serving.load(Relaxed);
        }
        let m0 = self.replicas[0].metrics();
        s.commits = m0.commits.load(Relaxed);
        s.checkpoints = m0.checkpoints.load(Relaxed);
        s.redirects = self.clients.iter().map(|c| c.kv.redirects()).sum();
        if let Some(c) = &self.counters {
            (s.runtime.sent_msgs, s.runtime.sent_bytes) = c.data.snapshot();
            s.control_msgs = c.control.snapshot().0;
            s.storage = c.storage.snapshot();
        }
        s
    }
}

fn client_loop(
    c: usize,
    client: &mut Client,
    spec: &KvSpec,
    until: Until,
    t0: Instant,
    traced: bool,
) -> (ThreadTally, SpanLog) {
    let cpu0 = procfs::thread_cpu_s();
    let mut tally = ThreadTally::default();
    let mut spans = SpanLog::new();
    let mut sent = 0u64;
    while until.more(sent) {
        let batch: Vec<KvOp> = (0..spec.depth).map(|_| client.gen.next_op()).collect();
        sent += batch.len() as u64;
        tally.attempted += batch.len() as u64;
        ATTEMPTED.fetch_add(batch.len() as u64, Relaxed);
        let id = ((c as u64) << 32) | (sent / spec.depth as u64);
        let span = traced.then(|| {
            let name = if spec.depth == 1 {
                "kv.KvClient.call"
            } else {
                "kv.KvClient.pipeline"
            };
            spans.open(name, None, id)
        });
        std::thread::sleep(client.gen.think(THINK_MAX));
        let begun = Instant::now();
        // `call` is `pipeline` of one; the client retries and redirects
        // inside, bounded by OP_TIMEOUT per attempt.
        let results = client.kv.pipeline(&batch);
        let now = Instant::now();
        if let Some(span) = span {
            spans.close(span);
        }
        // A batch's replies reach the caller together, when `pipeline`
        // returns: that is each operation's send → reply time.
        let lat = now.duration_since(begun);
        match results {
            Ok(results) => {
                for (op, r) in batch.into_iter().zip(results) {
                    if matches!(r, KvResult::Err(_)) {
                        tally.failed += 1;
                    } else {
                        tally.complete(t0, now, lat);
                        client.done.push((op, r));
                    }
                }
            }
            Err(_) => tally.failed += batch.len() as u64,
        }
    }
    tally.cpu_s = procfs::thread_cpu_s() - cpu0;
    (tally, spans)
}

#[derive(Default)]
struct LayerSnapshot {
    runtime: RuntimeCounts,
    views_installed: u64,
    timeouts: u64,
    rejected: u64,
    commits: u64,
    checkpoints: u64,
    redirects: u64,
    control_msgs: u64,
    storage: (u64, u64, u64, u64),
}

fn in_run_metrics(phase: &Phase, a: &LayerSnapshot, b: &LayerSnapshot) -> Values {
    let ops = phase.completed().max(1) as f64;
    let replicas = REPLICAS as f64;
    let mut v = Values::new();
    b.runtime.metrics_since(&a.runtime, ops, &mut v);
    v.insert(
        "cluster.heartbeats_per_s",
        (b.control_msgs - a.control_msgs) as f64 / phase.wall_s.max(1e-9),
    );
    v.insert("cluster.views_installed", b.views_installed as f64);
    // Storage figures are per replica: every replica logs every commit.
    let appends = (b.storage.0 - a.storage.0) as f64;
    let syncs = (b.storage.2 - a.storage.2) as f64;
    v.insert("kv.storage.appends_per_op", appends / replicas / ops);
    v.insert(
        "kv.storage.ops_per_sync",
        if syncs > 0.0 { appends / syncs } else { 0.0 },
    );
    v.insert(
        "kv.storage.bytes_per_op",
        (b.storage.1 - a.storage.1) as f64 / replicas / ops,
    );
    v.insert(
        "kv.storage.busy_share",
        (b.storage.3 - a.storage.3) as f64 / 1e9 / replicas / phase.wall_s.max(1e-9),
    );
    v.insert(
        "kv.wal.checkpoints_per_kop",
        (b.checkpoints - a.checkpoints) as f64 * 1e3 / ops,
    );
    v.insert("kv.client.redirects", (b.redirects - a.redirects) as f64);
    v.insert("kv.replica.commits", (b.commits - a.commits) as f64);
    v.insert("kv.replica.timeouts", (b.timeouts - a.timeouts) as f64);
    v.insert("kv.replica.rejected", (b.rejected - a.rejected) as f64);
    v
}

/// Sum of the samples of series `name` in Prometheus text `text` whose
/// label set contains `label` (`""` matches all).
pub fn series_sum(text: &str, name: &str, label: &str) -> u64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(['{', ' ']))
                && l.contains(label)
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

/// Self-tests: `cargo test` and `--selftest` both run them.
pub mod checks {
    use super::*;

    crate::checks! {
        fn series_sum_matches_name_exactly_and_labels_loosely() {
            let text = "# TYPE ensemble_bypass_total counter\n\
                        ensemble_bypass_total{shard=\"0\",result=\"hit\"} 5\n\
                        ensemble_bypass_total{shard=\"1\",result=\"hit\"} 7\n\
                        ensemble_bypass_total{shard=\"0\",result=\"miss\"} 2\n\
                        ensemble_bypass_total_extra 100\n\
                        ensemble_retransmits_total 3\n";
            assert_eq!(series_sum(text, "ensemble_bypass_total", "result=\"hit\""), 12);
            assert_eq!(series_sum(text, "ensemble_bypass_total", ""), 14);
            assert_eq!(series_sum(text, "ensemble_retransmits_total", ""), 3);
            assert_eq!(series_sum(text, "ensemble_absent_total", ""), 0);
        }
    }
}
