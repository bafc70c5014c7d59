//! `kv_load`: the deterministic end-to-end load generator and
//! linearizability gate for the replicated KV service.
//!
//! Forms a replica group over seeded loopback hubs, drives N simulated
//! clients (straight into [`ReplicaFront`]s) and M real TCP clients
//! (through a [`KvListener`] per replica), optionally runs a seeded
//! split → minority-stall → heal → merge partition schedule underneath
//! the load, and then replays the whole execution — every replica's
//! commit log, every client's completions — through the
//! [`KvLinearizabilityChecker`].
//!
//! With `--crash` the replicas are formed *durably* on fault-injecting
//! [`MemDisk`]s ([`StorageFaults::lossy`]: short writes, fsync
//! failures, torn tails, bit flips) and a seeded schedule of
//! crash/restart cycles runs under the load: a non-seed replica is
//! killed without warning, its disk torn mid-write, and the replica is
//! restarted on a reincarnated endpoint — recovering from its own
//! checkpoint + WAL tail and rejoining through the merge path. Every
//! recovery feeds the checker's recovery invariants (no acked write
//! lost, recovered commit index monotonic), and the run ends with a
//! final crash of every replica plus a double-recovery determinism
//! check: replaying the same log twice must yield byte-identical state.
//!
//! Emits `BENCH_kv_e2e.json` (ops/sec, p50/p99 latency, and in crash
//! mode the durability counters) and exits nonzero if the checker finds
//! a violation — which makes this binary double as the CI
//! linearizability *and* crash-recovery gate.
//!
//! ```text
//! kv_load [--replicas N] [--sim-clients N] [--tcp-clients N]
//!         [--ops N] [--seed S] [--chaos] [--crash]
//!         [--crash-cycles N] [--out PATH]
//! ```

use ensemble_kv::{
    KvClient, KvConfig, KvError, KvLinearizabilityChecker, KvListener, KvMetrics, KvOp, KvReplica,
    KvResult, MemDisk, ReplicaFront, StorageFaults, Wal,
};
use ensemble_obs::{Histogram, Json};
use ensemble_runtime::{FaultPlan, LoopbackHub};
use ensemble_util::{DetRng, Endpoint};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

struct Args {
    replicas: usize,
    sim_clients: usize,
    tcp_clients: usize,
    ops: usize,
    seed: u64,
    chaos: bool,
    chaos_rounds: u32,
    crash: bool,
    crash_cycles: u32,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        replicas: 3,
        sim_clients: 100,
        tcp_clients: 2,
        ops: 20,
        seed: 42,
        chaos: false,
        chaos_rounds: 2,
        crash: false,
        crash_cycles: 8,
        out: "BENCH_kv_e2e.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |what: &str| it.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match flag.as_str() {
            "--replicas" => args.replicas = grab("--replicas").parse().expect("--replicas: usize"),
            "--sim-clients" => {
                args.sim_clients = grab("--sim-clients").parse().expect("--sim-clients: usize")
            }
            "--tcp-clients" => {
                args.tcp_clients = grab("--tcp-clients").parse().expect("--tcp-clients: usize")
            }
            "--ops" => args.ops = grab("--ops").parse().expect("--ops: usize"),
            "--seed" => args.seed = grab("--seed").parse().expect("--seed: u64"),
            "--chaos" => args.chaos = true,
            "--chaos-rounds" => {
                args.chaos_rounds = grab("--chaos-rounds").parse().expect("--chaos-rounds: u32")
            }
            "--crash" => args.crash = true,
            "--crash-cycles" => {
                args.crash_cycles = grab("--crash-cycles").parse().expect("--crash-cycles: u32")
            }
            "--out" => args.out = grab("--out"),
            other => panic!("unknown flag: {other}"),
        }
    }
    assert!(args.replicas >= 2, "--replicas must be at least 2");
    assert!(
        !(args.chaos && args.crash),
        "--chaos and --crash are separate schedules; run them in separate invocations"
    );
    args
}

/// The live replica set: slots are replaced in place when a crashed
/// replica restarts, so clients always reach the current incarnation.
type Replicas = Arc<Mutex<Vec<Option<KvReplica>>>>;
type Fronts = Arc<RwLock<Vec<ReplicaFront>>>;
type Checker = Arc<Mutex<KvLinearizabilityChecker>>;
/// Commit logs of dead incarnations, archived for the final replay.
type LogArchive = Arc<Mutex<Vec<(u32, Vec<(u64, KvOp)>)>>>;

/// Durability counters summed across every replica incarnation (a
/// crashed incarnation's counters are harvested before it is dropped).
#[derive(Default)]
struct Totals {
    wal_appends: u64,
    wal_bytes: u64,
    wal_append_failures: u64,
    checkpoints: u64,
    torn_tail_records: u64,
    snapshot_skips: u64,
}

/// Flips the schedule-done flag when dropped — *including* on unwind,
/// so a panicking schedule thread releases the clients instead of
/// leaving them generating load forever (the join in main then
/// propagates the panic).
struct DoneGuard(Arc<AtomicBool>);

impl Drop for DoneGuard {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn harvest(m: &KvMetrics, t: &mut Totals) {
    t.wal_appends += m.wal_appends.load(Ordering::Relaxed);
    t.wal_bytes += m.wal_bytes.load(Ordering::Relaxed);
    t.wal_append_failures += m.wal_append_failures.load(Ordering::Relaxed);
    t.checkpoints += m.checkpoints.load(Ordering::Relaxed);
    t.torn_tail_records += m.torn_tail_records.load(Ordering::Relaxed);
    t.snapshot_skips += m.snapshots_skipped.load(Ordering::Relaxed);
}

/// Draws the next operation for one client. Writes dominate so the
/// checker has real history to bite on; keys collide across clients on
/// purpose (a 64-key space) so CAS races actually race.
fn next_op(rng: &mut DetRng, client: usize) -> KvOp {
    let key = format!("key-{}", rng.below(64)).into_bytes();
    let val = format!("c{client}-{}", rng.next_u64() & 0xffff).into_bytes();
    match rng.below(100) {
        0..=44 => KvOp::Set(key, val),
        45..=69 => KvOp::Get(key),
        70..=89 => KvOp::Cas {
            key,
            // Blind CAS on a contended key space: most fail, some win,
            // and the replay proves each verdict matched the state.
            expect: if rng.chance(0.5) {
                None
            } else {
                Some(val.clone())
            },
            new: val,
        },
        _ => KvOp::Del(key),
    }
}

/// One simulated client: submits straight into replica fronts,
/// redirecting away from a replica that is stalled, slow, or dead — the
/// same policy [`KvClient`] applies over TCP. Completions feed the
/// shared checker immediately, attributed to the serving replica slot,
/// so a later recovery of that slot is checked against what it acked.
fn run_sim_client(
    client: usize,
    fronts: &Fronts,
    checker: &Checker,
    ops: usize,
    seed: u64,
    hist: &Histogram,
    sched_done: &AtomicBool,
) -> (u64, u64) {
    let mut rng = DetRng::new(seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(client as u64 + 1)));
    let nfronts = fronts.read().expect("front table poisoned").len();
    let mut cur = client % nfronts;
    let mut ok = 0u64;
    let mut redirects = 0u64;
    let timeout = Duration::from_secs(2);
    let mut done = 0;
    // Keep generating until the quota is met AND the chaos/crash
    // schedule has finished: the faults must actually run under load.
    while done < ops || !sched_done.load(Ordering::Relaxed) {
        done += 1;
        let op = next_op(&mut rng, client);
        // At-least-once with redirect: an op that fails on one replica
        // is resubmitted to the next; the completion we keep is the one
        // commit this client actually observed.
        for _attempt in 0..nfronts * 2 {
            let front = fronts.read().expect("front table poisoned")[cur].clone();
            let t0 = Instant::now();
            let result = front.submit_timeout(&op, timeout);
            match result {
                KvResult::Err(KvError::NotServing | KvError::Timeout | KvError::Closed) => {
                    cur = (cur + 1) % nfronts;
                    redirects += 1;
                }
                r => {
                    hist.record(t0.elapsed().as_nanos() as u64);
                    ok += 1;
                    checker
                        .lock()
                        .expect("checker poisoned")
                        .on_response_at(cur as u32, op, r);
                    break;
                }
            }
        }
    }
    (ok, redirects)
}

/// A TCP client thinks for a seeded time, uniform below this many
/// microseconds, before every batch (the repo benchmark's clients do
/// the same).
const THINK_MAX_US: u64 = 4_000;

/// One real TCP client: pipelines batches through [`KvClient`] against
/// every replica's listener, thinking up to [`THINK_MAX_US`] between
/// them. The redirecting client hides which replica
/// served each completion, so responses feed the checker unattributed.
fn run_tcp_client(
    client: usize,
    addrs: Vec<std::net::SocketAddr>,
    checker: &Checker,
    ops: usize,
    seed: u64,
    hist: &Histogram,
    sched_done: &AtomicBool,
) -> (u64, u64) {
    let mut rng = DetRng::new(seed ^ (0xD1B54A32D192ED03u64.wrapping_mul(client as u64 + 1)));
    // A stream of its own, so that thinking does not shift the operations.
    let mut think = DetRng::new(seed ^ (0xA076_1D64_78BD_642Fu64.wrapping_mul(client as u64 + 1)));
    let mut kv = KvClient::new(addrs, Duration::from_secs(2));
    let batch_size = 8;
    let mut ok = 0u64;
    let mut done = 0;
    while done < ops || !sched_done.load(Ordering::Relaxed) {
        // A client that sends the moment its reply arrives offers more
        // load every time the server gets faster; the gates are about
        // faults under load, not about saturation.
        std::thread::sleep(Duration::from_micros(think.below(THINK_MAX_US)));
        let n = batch_size.min(ops.saturating_sub(done).max(1));
        let batch: Vec<KvOp> = (0..n).map(|_| next_op(&mut rng, 10_000 + client)).collect();
        let t0 = Instant::now();
        if let Ok(results) = kv.pipeline(&batch) {
            // Whole-batch latency amortized per op — the pipelining
            // is the point of the measurement.
            let per_op = (t0.elapsed().as_nanos() as u64) / n as u64;
            let mut c = checker.lock().expect("checker poisoned");
            for (op, r) in batch.into_iter().zip(results) {
                hist.record(per_op);
                if !matches!(r, KvResult::Err(_)) {
                    ok += 1;
                    c.on_response(op, r);
                }
            }
        }
        done += n;
    }
    (ok, kv.redirects())
}

/// Waits until `cond` holds or panics after `what` fails to materialize
/// within the deadline.
fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let until = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < until, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The seeded chaos schedule: split both planes with the seed (the
/// total-order coordinator) in the majority, hold until the minority
/// stalls, heal, and hold until every replica serves again. Runs
/// exactly `rounds` rounds; the clients keep the load up until it is
/// done (see `sched_done`).
fn run_chaos(control: &LoopbackHub, data: &LoopbackHub, fronts: &Fronts, rounds: u32) -> u32 {
    let n = fronts.read().expect("front table poisoned").len();
    let minority_len = (n - 1) / 2; // strictly less than quorum
    let majority: Vec<u32> = (0..(n - minority_len) as u32).collect();
    let minority: Vec<u32> = ((n - minority_len) as u32..n as u32).collect();
    let serving = |i: usize| fronts.read().expect("front table poisoned")[i].is_serving();
    for round in 0..rounds {
        std::thread::sleep(Duration::from_millis(150));
        println!(
            "kv_load: chaos round {}: splitting {:?} | {:?}",
            round + 1,
            majority,
            minority
        );
        let groups = vec![majority.clone(), minority.clone()];
        control.split(groups.clone());
        data.split(groups);
        wait_for(
            "minority replicas to stall",
            Duration::from_secs(20),
            || minority.iter().all(|&id| !serving(id as usize)),
        );
        // Let the load run against the degraded group for a while.
        std::thread::sleep(Duration::from_millis(250));
        control.heal();
        data.heal();
        wait_for(
            "healed group to serve everywhere",
            Duration::from_secs(30),
            || (0..n).all(serving),
        );
        println!("kv_load: chaos round {}: healed and serving", round + 1);
    }
    rounds
}

/// The seeded crash schedule: every cycle kills one non-seed replica
/// without warning (no WAL flush), tears its disk's unsynced tail, lets
/// the survivors absorb the loss under load, then restarts the replica
/// on a reincarnated endpoint. The restart recovers from the replica's
/// own checkpoint + WAL tail and rejoins through the merge path; its
/// recovered commit index feeds the checker's recovery invariants.
#[allow(clippy::too_many_arguments)]
fn run_crash(
    control: &LoopbackHub,
    data: &LoopbackHub,
    replicas: &Replicas,
    fronts: &Fronts,
    disks: &[MemDisk],
    checker: &Checker,
    logs: &LogArchive,
    totals: &Mutex<Totals>,
    cycles: u32,
) -> u32 {
    let n = disks.len();
    for cycle in 0..cycles {
        std::thread::sleep(Duration::from_millis(150));
        // Rotate over the non-seed replicas; the seed stays up so the
        // survivors always hold quorum and the rendezvous stays alive.
        let t = 1 + (cycle as usize % (n - 1));
        let victim = replicas.lock().expect("replica table poisoned")[t]
            .take()
            .expect("slot occupied between cycles");
        harvest(
            victim.metrics(),
            &mut totals.lock().expect("totals poisoned"),
        );
        logs.lock()
            .expect("log archive poisoned")
            .push((victim.endpoint().id(), victim.commit_log()));
        let old_ep = victim.endpoint();
        victim.kill();
        println!(
            "kv_load: crash cycle {}: killed replica {t} with {} unsynced bytes",
            cycle + 1,
            disks[t].pending_len()
        );
        disks[t].crash();
        // Survivors serve the load degraded until they have suspected
        // the dead incarnation and installed the shrunk view. Restarting
        // earlier risks the coordinator folding the not-yet-suspected
        // corpse into the rejoin merge flush, which then waits on a
        // dead member's flush ack.
        wait_for(
            "survivors to evict the dead incarnation",
            Duration::from_secs(30),
            || {
                let table = replicas.lock().expect("replica table poisoned");
                table.iter().flatten().all(|r| {
                    r.view()
                        .map(|v| !v.members.contains(&old_ep))
                        .unwrap_or(false)
                })
            },
        );
        std::thread::sleep(Duration::from_millis(200));
        // Restart under a supervisor's policy: a rejoin that misses the
        // form deadline (the loaded group was too busy to merge in
        // time) is retried under a fresh incarnation, like a crashing
        // service being restarted again. Recovery itself is read-only,
        // so re-running it is free of side effects.
        let mut reborn = old_ep.reincarnate();
        let mut attempt = 0;
        let (replica, report) = loop {
            attempt += 1;
            let (c, d) = (control.attach(reborn), data.attach(reborn));
            let mut cfg = KvConfig::new(n);
            // A loaded 1-core box can stretch the merge well past the
            // default 10s form deadline.
            cfg.cluster.join_deadline = Duration::from_secs(30);
            cfg.cluster.form_timeout = Duration::from_secs(30);
            let wal = Wal::on_mem_disk(&disks[t], &format!("r{t}"), cfg.wal);
            match KvReplica::form_durable(
                reborn,
                Endpoint::new(0),
                cfg,
                Box::new(c),
                Box::new(d),
                wal,
            ) {
                Ok(ok) => break ok,
                Err(e) if attempt < 5 => {
                    println!(
                        "kv_load: crash cycle {}: rejoin attempt {attempt} failed ({e}); retrying",
                        cycle + 1
                    );
                    reborn = reborn.reincarnate();
                }
                Err(e) => panic!("restarted replica never rejoined after {attempt} attempts: {e}"),
            }
        };
        println!(
            "kv_load: crash cycle {}: replica {t} recovered to ci {} \
             ({} replayed, {} torn tail records), rejoining",
            cycle + 1,
            report.recovered_ci(),
            report.replayed,
            report.torn_tail_records
        );
        checker
            .lock()
            .expect("checker poisoned")
            .on_recovery(t as u32, report.recovered_ci());
        fronts.write().expect("front table poisoned")[t] = replica.front();
        replicas.lock().expect("replica table poisoned")[t] = Some(replica);
        wait_for(
            "restarted replica to rejoin and serve",
            Duration::from_secs(60),
            || fronts.read().expect("front table poisoned")[t].is_serving(),
        );
    }
    cycles
}

fn main() {
    let args = parse_args();
    let seed_ep = Endpoint::new(0);
    let control = LoopbackHub::with_faults(args.seed, FaultPlan::default());
    let data = LoopbackHub::with_faults(args.seed ^ 0x5EED, FaultPlan::default());

    println!(
        "kv_load: {} replicas, {} sim + {} tcp clients, {} ops each, seed {}{}{}",
        args.replicas,
        args.sim_clients,
        args.tcp_clients,
        args.ops,
        args.seed,
        if args.chaos { ", chaos on" } else { "" },
        if args.crash { ", crash on" } else { "" }
    );

    // In crash mode every replica is durable: its own fault-injecting
    // in-memory disk holds the WAL and both checkpoint slots. Group
    // commit (sync_every) keeps a partial batch unsynced under load, so
    // a crash regularly lands on a non-empty tail and the torn /
    // bit-flipped tail paths actually run in every gate.
    let faults = StorageFaults {
        short_write_p: 0.05,
        fsync_fail_p: 0.1,
        torn_tail_p: 0.9,
        bit_flip_p: 0.25,
    };
    let disks: Vec<MemDisk> = (0..args.replicas)
        .map(|i| {
            MemDisk::new(
                args.seed.wrapping_add(i as u64).wrapping_mul(0x2545F491),
                faults,
            )
        })
        .collect();

    // Form the replica group (rendezvous blocks, so each former gets a
    // thread, exactly like the cluster harnesses).
    let mut formers = Vec::new();
    for i in 0..args.replicas as u32 {
        let ep = Endpoint::new(i);
        let (c, d) = (control.attach(ep), data.attach(ep));
        let cfg = KvConfig::new(args.replicas);
        let durable = args.crash.then(|| disks[i as usize].clone());
        formers.push(std::thread::spawn(move || match durable {
            Some(disk) => {
                let wal = Wal::on_mem_disk(&disk, &format!("r{i}"), cfg.wal);
                KvReplica::form_durable(ep, seed_ep, cfg, Box::new(c), Box::new(d), wal)
                    .map(|(r, _)| r)
            }
            None => KvReplica::form(ep, seed_ep, cfg, Box::new(c), Box::new(d)),
        }));
    }
    let replicas: Vec<Option<KvReplica>> = formers
        .into_iter()
        .map(|f| Some(f.join().unwrap().expect("replica rendezvous completes")))
        .collect();
    let fronts: Fronts = Arc::new(RwLock::new(
        replicas
            .iter()
            .map(|r| r.as_ref().expect("just formed").front())
            .collect(),
    ));
    let replicas: Replicas = Arc::new(Mutex::new(replicas));
    println!("kv_load: group formed, all replicas serving");

    // One TCP listener per replica — best-effort: a sandbox that denies
    // loopback binds downgrades the run to simulated clients only.
    let mut listeners = Vec::new();
    let mut addrs = Vec::new();
    let mut tcp_clients = args.tcp_clients;
    if tcp_clients > 0 {
        let table = fronts.read().expect("front table poisoned").clone();
        for front in table {
            match KvListener::start(front, "127.0.0.1:0", (&KvConfig::new(args.replicas)).into()) {
                Ok(l) => {
                    addrs.push(l.addr());
                    listeners.push(l);
                }
                Err(e) => {
                    println!("kv_load: TCP bind failed ({e}); skipping TCP clients");
                    tcp_clients = 0;
                    break;
                }
            }
        }
    }

    let hist = Arc::new(Histogram::new());
    let checker: Checker = Arc::new(Mutex::new(KvLinearizabilityChecker::new()));
    let logs: LogArchive = Arc::new(Mutex::new(Vec::new()));
    let totals: Arc<Mutex<Totals>> = Arc::new(Mutex::new(Totals::default()));
    // Flips to true once the chaos/crash schedule completes; clients
    // keep the load up until then, so the faults always run under
    // traffic.
    let sched_done = Arc::new(AtomicBool::new(!(args.chaos || args.crash)));
    let chaos = args.chaos.then(|| {
        let control = control.clone();
        let data = data.clone();
        let fronts = Arc::clone(&fronts);
        let done = Arc::clone(&sched_done);
        let rounds = args.chaos_rounds;
        std::thread::spawn(move || {
            let _done = DoneGuard(done);
            run_chaos(&control, &data, &fronts, rounds)
        })
    });
    let crash = args.crash.then(|| {
        let control = control.clone();
        let data = data.clone();
        let replicas = Arc::clone(&replicas);
        let fronts = Arc::clone(&fronts);
        let disks = disks.clone();
        let checker = Arc::clone(&checker);
        let logs = Arc::clone(&logs);
        let totals = Arc::clone(&totals);
        let done = Arc::clone(&sched_done);
        let cycles = args.crash_cycles;
        std::thread::spawn(move || {
            let _done = DoneGuard(done);
            run_crash(
                &control, &data, &replicas, &fronts, &disks, &checker, &logs, &totals, cycles,
            )
        })
    });

    // The measured load phase.
    let t0 = Instant::now();
    let mut clients = Vec::new();
    for c in 0..args.sim_clients {
        let fronts = Arc::clone(&fronts);
        let checker = Arc::clone(&checker);
        let hist = Arc::clone(&hist);
        let done = Arc::clone(&sched_done);
        let (ops, seed) = (args.ops, args.seed);
        clients.push(std::thread::spawn(move || {
            run_sim_client(c, &fronts, &checker, ops, seed, &hist, &done)
        }));
    }
    for c in 0..tcp_clients {
        let addrs = addrs.clone();
        let checker = Arc::clone(&checker);
        let hist = Arc::clone(&hist);
        let done = Arc::clone(&sched_done);
        let (ops, seed) = (args.ops, args.seed);
        clients.push(std::thread::spawn(move || {
            run_tcp_client(c, addrs, &checker, ops, seed, &hist, &done)
        }));
    }
    let mut ok_ops = 0u64;
    let mut redirects = 0u64;
    for c in clients {
        let (ok, rd) = c.join().expect("client thread completes");
        ok_ops += ok;
        redirects += rd;
    }
    let elapsed = t0.elapsed();

    let chaos_rounds = chaos
        .map(|t| t.join().expect("chaos thread completes"))
        .unwrap_or(0);
    let crash_cycles = crash
        .map(|t| t.join().expect("crash thread completes"))
        .unwrap_or(0);
    control.heal();
    data.heal();
    wait_for(
        "all replicas serving after load",
        Duration::from_secs(30),
        || {
            fronts
                .read()
                .expect("front table poisoned")
                .iter()
                .all(|f| f.is_serving())
        },
    );

    // Quiesce: parked minority casts replay after the merge; wait until
    // every replica's commit count stops moving before snapshotting logs.
    let mut last: Vec<usize> = Vec::new();
    wait_for("commit logs to quiesce", Duration::from_secs(30), || {
        let now: Vec<usize> = replicas
            .lock()
            .expect("replica table poisoned")
            .iter()
            .map(|r| r.as_ref().map(|r| r.commit_log().len()).unwrap_or(0))
            .collect();
        let stable = now == last;
        last = now;
        std::thread::sleep(Duration::from_millis(50));
        stable
    });

    // One replica's full exposition — runtime + cluster + KV series —
    // so CI can grep the ensemble_kv_* counters from this run. Printed
    // before teardown: the final crash pass below consumes the replicas.
    {
        let table = replicas.lock().expect("replica table poisoned");
        let r0 = table[0].as_ref().expect("seed replica alive");
        println!("{}", r0.metrics_text());
    }

    // Harvest every surviving incarnation: counters, then commit logs
    // into the archive alongside the crashed incarnations'.
    let final_replicas: Vec<KvReplica> = replicas
        .lock()
        .expect("replica table poisoned")
        .iter_mut()
        .map(|slot| slot.take().expect("slot occupied after quiesce"))
        .collect();
    {
        let mut t = totals.lock().expect("totals poisoned");
        let mut l = logs.lock().expect("log archive poisoned");
        for r in &final_replicas {
            harvest(r.metrics(), &mut t);
            l.push((r.endpoint().id(), r.commit_log()));
        }
    }

    // In crash mode, end the run the hard way: kill every replica, tear
    // its disk, and recover *twice* — the two replays must agree byte
    // for byte (deterministic recovery), and the recovered index feeds
    // the checker one last time.
    if args.crash {
        for l in listeners.drain(..) {
            l.shutdown();
        }
        for (t, r) in final_replicas.into_iter().enumerate() {
            r.kill();
            disks[t].crash();
            let cfg = KvConfig::new(args.replicas);
            let mut w1 = Wal::on_mem_disk(&disks[t], &format!("r{t}"), cfg.wal);
            let r1 = w1.recover().expect("final recovery never panics");
            let mut w2 = Wal::on_mem_disk(&disks[t], &format!("r{t}"), cfg.wal);
            let r2 = w2.recover().expect("recovery is repeatable");
            assert_eq!(
                r1.store.snapshot(),
                r2.store.snapshot(),
                "replica {t}: two replays of the same log diverged"
            );
            assert_eq!(r1.recovered_ci(), r2.recovered_ci());
            checker
                .lock()
                .expect("checker poisoned")
                .on_recovery(t as u32, r1.recovered_ci());
        }
    } else {
        for r in final_replicas {
            r.shutdown();
        }
    }

    // Replay the whole execution against the linearizability spec.
    let mut checker = Arc::try_unwrap(checker)
        .unwrap_or_else(|_| panic!("checker still shared after clients joined"))
        .into_inner()
        .expect("checker poisoned");
    for (id, log) in logs.lock().expect("log archive poisoned").drain(..) {
        for (ci, op) in log {
            checker.on_commit(id, ci, op);
        }
    }
    let total_commits = checker.commits();
    let recoveries = checker.recoveries();
    let violations = checker.finish();

    let totals = totals.lock().expect("totals poisoned");
    let s = hist.summary();
    let ops_per_sec = if elapsed.as_secs_f64() > 0.0 {
        ok_ops as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    let json = Json::obj(vec![
        ("bench", Json::Str("kv_e2e".into())),
        ("replicas", Json::Int(args.replicas as i64)),
        ("sim_clients", Json::Int(args.sim_clients as i64)),
        ("tcp_clients", Json::Int(tcp_clients as i64)),
        ("seed", Json::Int(args.seed as i64)),
        ("chaos_rounds", Json::Int(chaos_rounds as i64)),
        ("crash_cycles", Json::Int(crash_cycles as i64)),
        ("recoveries", Json::Int(recoveries as i64)),
        ("wal_appends", Json::Int(totals.wal_appends as i64)),
        ("wal_bytes", Json::Int(totals.wal_bytes as i64)),
        (
            "wal_append_failures",
            Json::Int(totals.wal_append_failures as i64),
        ),
        ("checkpoints", Json::Int(totals.checkpoints as i64)),
        (
            "torn_tail_records",
            Json::Int(totals.torn_tail_records as i64),
        ),
        ("snapshot_skips", Json::Int(totals.snapshot_skips as i64)),
        ("ops_total", Json::Int(ok_ops as i64)),
        ("commits_total", Json::Int(total_commits as i64)),
        ("redirects", Json::Int(redirects as i64)),
        ("elapsed_ns", Json::Int(elapsed.as_nanos() as i64)),
        ("ops_per_sec", Json::Num(ops_per_sec)),
        ("p50_ns", Json::Int(s.p50 as i64)),
        ("p90_ns", Json::Int(s.p90 as i64)),
        ("p99_ns", Json::Int(s.p99 as i64)),
        ("max_ns", Json::Int(s.max as i64)),
        ("violations", Json::Int(violations.len() as i64)),
    ]);
    std::fs::write(&args.out, json.render()).expect("write benchmark json");
    println!(
        "kv_load: {ok_ops} ops in {:.2}s = {:.0} ops/sec, p50 {} ns, p99 {} ns, \
         {total_commits} commits, {redirects} redirects, {chaos_rounds} chaos rounds, \
         {crash_cycles} crash cycles, {recoveries} recoveries",
        elapsed.as_secs_f64(),
        ops_per_sec,
        s.p50,
        s.p99,
    );
    println!("kv_load: wrote {}", args.out);

    for l in listeners {
        l.shutdown();
    }

    if violations.is_empty() {
        println!("kv_load: linearizability check PASSED");
    } else {
        println!("kv_load: linearizability check FAILED:");
        for v in violations.iter().take(20) {
            println!("  {v}");
        }
        std::process::exit(1);
    }
}
