//! The replicated KV service end to end: a 3-replica group over seeded
//! loopback hubs, concurrent clients, one partition → stall → heal →
//! merge round underneath them, and an offline linearizability replay
//! of everything that happened.
//!
//! This supersedes the old `replicated_kv` example: instead of a
//! simulated stack applying `SET` casts, it drives the real
//! `ensemble-kv` service — commit indices, CAS verdicts, minority
//! stalls and all — and exits nonzero if the replay finds a violation.
//!
//! ```sh
//! cargo run --example kv_demo            # deterministic, loopback only
//! cargo run --example kv_demo -- --tcp   # also serve real TCP clients
//! cargo run --example kv_demo -- --crash # durable WALs + crash episode
//! ```
//!
//! `--tcp` is best-effort: a sandbox that denies loopback binds logs
//! the downgrade and continues with simulated clients only. `--crash`
//! forms the replicas durably (one fault-injecting in-memory disk
//! each) and replaces the partition round with a crash-stop episode:
//! replica 2 is killed without a WAL flush, its disk torn, and the
//! replica restarted from its own checkpoint + log tail, rejoining
//! through the merge path — the replay then also checks the recovery
//! invariants (no acked write lost, recovered commit index monotonic).

use ensemble_kv::{
    KvClient, KvConfig, KvError, KvLinearizabilityChecker, KvListener, KvOp, KvReplica, KvResult,
    MemDisk, ReplicaFront, StorageFaults, Wal,
};
use ensemble_runtime::{FaultPlan, LoopbackHub};
use ensemble_util::{DetRng, Endpoint};
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const CLIENTS: usize = 8;
const OPS_PER_CLIENT: usize = 40;
const SEED: u64 = 42;

fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let until = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < until, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn next_op(rng: &mut DetRng, client: usize) -> KvOp {
    let key = format!("key-{}", rng.below(16)).into_bytes();
    let val = format!("c{client}-{}", rng.next_u64() & 0xffff).into_bytes();
    match rng.below(100) {
        0..=49 => KvOp::Set(key, val),
        50..=74 => KvOp::Get(key),
        75..=89 => KvOp::Cas {
            key,
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

fn run_client(client: usize, fronts: &[ReplicaFront]) -> Vec<(KvOp, KvResult)> {
    let mut rng = DetRng::new(SEED ^ (0x9E3779B97F4A7C15u64.wrapping_mul(client as u64 + 1)));
    let mut cur = client % fronts.len();
    let mut responses = Vec::with_capacity(OPS_PER_CLIENT);
    for _ in 0..OPS_PER_CLIENT {
        let op = next_op(&mut rng, client);
        let mut result = KvResult::Err(KvError::Closed);
        for _attempt in 0..fronts.len() * 2 {
            result = fronts[cur].submit_timeout(&op, Duration::from_secs(2));
            match result {
                KvResult::Err(KvError::NotServing) | KvResult::Err(KvError::Timeout) => {
                    cur = (cur + 1) % fronts.len();
                }
                _ => break,
            }
        }
        responses.push((op, result));
    }
    responses
}

fn main() {
    let tcp = std::env::args().any(|a| a == "--tcp");
    let crash = std::env::args().any(|a| a == "--crash");
    let control = LoopbackHub::with_faults(SEED, FaultPlan::default());
    let data = LoopbackHub::with_faults(SEED ^ 0x5EED, FaultPlan::default());
    let seed_ep = Endpoint::new(0);

    // One fault-injecting in-memory disk per replica (`--crash` only):
    // a reincarnated replica reopens the disk its predecessor died on.
    let disks: Vec<MemDisk> = (0..REPLICAS as u64)
        .map(|i| MemDisk::new(SEED ^ i, StorageFaults::lossy()))
        .collect();

    println!(
        "kv_demo: forming a {REPLICAS}-replica group{}",
        if crash { " (durable WALs)" } else { "" }
    );
    let mut formers = Vec::new();
    for i in 0..REPLICAS as u32 {
        let ep = Endpoint::new(i);
        let (c, d) = (control.attach(ep), data.attach(ep));
        let cfg = KvConfig::new(REPLICAS);
        let disk = crash.then(|| disks[i as usize].clone());
        formers.push(std::thread::spawn(move || match disk {
            Some(disk) => {
                let wal = Wal::on_mem_disk(&disk, &format!("r{i}"), cfg.wal);
                KvReplica::form_durable(ep, seed_ep, cfg, Box::new(c), Box::new(d), wal)
                    .map(|(r, _)| r)
            }
            None => KvReplica::form(ep, seed_ep, cfg, Box::new(c), Box::new(d)),
        }));
    }
    let mut replicas: Vec<KvReplica> = formers
        .into_iter()
        .map(|f| f.join().unwrap().expect("replica rendezvous completes"))
        .collect();
    let fronts: Vec<ReplicaFront> = replicas.iter().map(|r| r.front()).collect();

    // Best-effort TCP plane.
    let mut listeners = Vec::new();
    if tcp {
        for r in &replicas {
            match KvListener::start(r.front(), "127.0.0.1:0", (&KvConfig::new(REPLICAS)).into()) {
                Ok(l) => listeners.push(l),
                Err(e) => {
                    println!("kv_demo: TCP bind denied ({e}); loopback clients only");
                    listeners.clear();
                    break;
                }
            }
        }
    }

    // Phase 1: concurrent load against the healthy group.
    println!("kv_demo: {CLIENTS} clients, {OPS_PER_CLIENT} ops each");
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let fronts = fronts.clone();
        clients.push(std::thread::spawn(move || run_client(c, &fronts)));
    }
    let mut responses: Vec<(KvOp, KvResult)> = Vec::new();
    for c in clients {
        responses.extend(c.join().expect("client joins"));
    }

    // A real TCP client alongside, if the plane came up.
    if !listeners.is_empty() {
        let addrs = listeners.iter().map(|l| l.addr()).collect();
        let mut kv = KvClient::new(addrs, Duration::from_secs(2));
        let ops: Vec<KvOp> = (0..16)
            .map(|i| KvOp::Set(format!("tcp-{i}").into_bytes(), b"over-the-wire".to_vec()))
            .collect();
        match kv.pipeline(&ops) {
            Ok(results) => {
                println!("kv_demo: TCP client pipelined {} ops", results.len());
                responses.extend(ops.into_iter().zip(results));
            }
            Err(e) => println!("kv_demo: TCP client failed ({e:?}); continuing"),
        }
    }

    // Phase 2a (`--crash`): crash-stop replica 2 mid-run — no WAL
    // flush, disk torn like a power cut — then restart it from its own
    // checkpoint + log tail on a reincarnated endpoint.
    let mut archived: Vec<(u32, Vec<(u64, KvOp)>)> = Vec::new();
    let mut recovery: Option<(u32, u64)> = None;
    if crash {
        println!("kv_demo: crash-stopping replica 2 (no WAL flush, disk torn)");
        let victim = replicas.remove(2);
        let old_ep = victim.endpoint();
        archived.push((old_ep.id(), victim.commit_log()));
        victim.kill();
        disks[2].crash();
        wait_for(
            "survivors evict the dead incarnation",
            Duration::from_secs(30),
            || {
                replicas.iter().all(|r| {
                    let v = r.view();
                    v.nmembers() == REPLICAS - 1 && !v.members.contains(&old_ep)
                })
            },
        );
        let reborn = old_ep.reincarnate();
        let (c, d) = (control.attach(reborn), data.attach(reborn));
        let mut cfg = KvConfig::new(REPLICAS);
        cfg.cluster.join_deadline = Duration::from_secs(30);
        cfg.cluster.form_timeout = Duration::from_secs(30);
        let wal = Wal::on_mem_disk(&disks[2], "r2", cfg.wal);
        let (replica, report) =
            KvReplica::form_durable(reborn, seed_ep, cfg, Box::new(c), Box::new(d), wal)
                .expect("restarted replica rejoins");
        println!(
            "kv_demo: replica 2 recovered to commit index {} ({} torn tail record(s)) and rejoined",
            report.recovered_ci(),
            report.torn_tail_records
        );
        recovery = Some((old_ep.id(), report.recovered_ci()));
        wait_for("reborn replica serves", Duration::from_secs(30), || {
            replica.is_serving()
        });
        let op = KvOp::Set(b"after-recovery".to_vec(), b"reborn-commits".to_vec());
        let r = replica.submit_timeout(&op, Duration::from_secs(5));
        assert!(
            !matches!(r, KvResult::Err(_)),
            "the reborn replica serves writes again"
        );
        responses.push((op, r));
        replicas.insert(2, replica);
    } else {
        // Phase 2b: partition the minority away, watch it stall, heal,
        // and watch the group merge back to full strength.
        println!("kv_demo: splitting replica 2 into a minority");
        let groups = vec![vec![0u32, 1], vec![2u32]];
        control.split(groups.clone());
        data.split(groups);
        wait_for("minority stall", Duration::from_secs(20), || {
            !fronts[2].is_serving()
        });
        println!("kv_demo: minority stalled (refusing writes, not diverging)");
        let op = KvOp::Set(b"during-partition".to_vec(), b"majority-commits".to_vec());
        let r = fronts[0].submit_timeout(&op, Duration::from_secs(2));
        assert!(
            !matches!(r, KvResult::Err(_)),
            "the majority keeps committing through the partition"
        );
        responses.push((op, r));
        control.heal();
        data.heal();
        wait_for("post-heal serving", Duration::from_secs(30), || {
            fronts.iter().all(|f| f.is_serving())
        });
        println!("kv_demo: healed — all replicas serving again");
    }

    // Quiesce, then replay the whole run through the checker.
    let mut last: Vec<usize> = Vec::new();
    wait_for("commit logs quiesce", Duration::from_secs(30), || {
        let now: Vec<usize> = replicas.iter().map(|r| r.commit_log().len()).collect();
        let stable = now == last;
        last = now;
        std::thread::sleep(Duration::from_millis(50));
        stable
    });
    let mut checker = KvLinearizabilityChecker::new();
    for (id, log) in archived {
        for (ci, op) in log {
            checker.on_commit(id, ci, op);
        }
    }
    if let Some((id, ci)) = recovery {
        checker.on_recovery(id, ci);
    }
    for r in &replicas {
        let id = r.endpoint().id();
        for (ci, op) in r.commit_log() {
            checker.on_commit(id, ci, op);
        }
    }
    let committed = responses
        .into_iter()
        .filter(|(_, r)| !matches!(r, KvResult::Err(_)));
    let mut completions = 0usize;
    for (op, r) in committed {
        checker.on_response(op, r);
        completions += 1;
    }
    let commits = checker.commits();
    let violations = checker.finish();

    for l in listeners {
        l.shutdown();
    }
    println!("kv_demo: {commits} commits across replicas, {completions} client completions");
    if violations.is_empty() {
        println!("kv_demo: linearizability check PASSED");
    } else {
        eprintln!("kv_demo: linearizability VIOLATED:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
