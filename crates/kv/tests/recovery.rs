//! Crash/restart recovery through the real replica path.
//!
//! Both tests form a three-replica durable group on fault-injecting
//! [`MemDisk`]s, kill a replica without ceremony ([`KvReplica::kill`]:
//! no courtesy WAL flush), tear the disk ([`MemDisk::crash`]), and
//! restart the replica on a reincarnated endpoint from the same disk.
//! They differ in what the disk does to the WAL:
//!
//! * **Quiet crash** — the group quiesced and the WAL fully synced
//!   before the kill, so recovery reproduces the exact group state and
//!   the rejoin Hello's resume hint makes the coordinator *skip* the
//!   snapshot (state-transfer fast path, visible as the rejoiner's
//!   `snapshots_skipped` metric).
//! * **Torn crash** — the victim's disk fails every fsync, so its whole
//!   WAL rides the volatile buffer and the crash tears it to a seeded
//!   prefix. Recovery lands strictly behind the group, the hint does
//!   not cover the coordinator's version, and the rejoiner catches up
//!   by snapshot transfer (`snapshots_installed`).
//!
//! Both shapes run twice: on a small store, where checkpoints go by
//! record count, and on one whose snapshot outweighs
//! `checkpoint_every` records of log, where the WAL's byte rule holds
//! the next checkpoint back and recovery replays a tail longer than
//! `checkpoint_every`.
//!
//! Either way the run must end with every replica applying the same
//! operations at the same commit indices and the offline
//! linearizability replay (including the recovery invariants) clean.

use ensemble_kv::proto::{encode_request, put_frame};
use ensemble_kv::{
    KvClient, KvConfig, KvLinearizabilityChecker, KvListener, KvOp, KvReplica, KvResult, MemDisk,
    RecoveryReport, StorageFaults, Wal,
};
use ensemble_runtime::{FaultPlan, LoopbackHub};
use ensemble_util::Endpoint;
use std::io::Write;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const VICTIM: usize = 2;
const OPS: u64 = 40;

fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let until = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < until, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Replica `i`'s WAL on `disks[i]`; with `slot_disk`, the checkpoint
/// slots live there instead (a victim whose log never syncs but whose
/// checkpoints do).
fn open_wal(disks: &[MemDisk], slot_disk: Option<&MemDisk>, i: usize, cfg: &KvConfig) -> Wal {
    let slots = slot_disk.unwrap_or(&disks[i]);
    Wal::new(
        Box::new(disks[i].open(&format!("r{i}.log"))),
        Box::new(slots.open(&format!("r{i}.ckpt-a"))),
        Box::new(slots.open(&format!("r{i}.ckpt-b"))),
        cfg.wal,
    )
}

/// Forms the durable group, one WAL per replica on its own disk
/// (`victim_slots`: see [`open_wal`]).
fn form_group(
    control: &LoopbackHub,
    data: &LoopbackHub,
    disks: &[MemDisk],
    victim_slots: Option<&MemDisk>,
    cfg: &KvConfig,
) -> Vec<KvReplica> {
    let seed_ep = Endpoint::new(0);
    let mut formers = Vec::new();
    for i in 0..REPLICAS {
        let ep = Endpoint::new(i as u32);
        let (c, d) = (control.attach(ep), data.attach(ep));
        let cfg = cfg.clone();
        let wal = open_wal(disks, victim_slots.filter(|_| i == VICTIM), i, &cfg);
        formers.push(std::thread::spawn(move || {
            KvReplica::form_durable(ep, seed_ep, cfg, Box::new(c), Box::new(d), wal).map(|(r, _)| r)
        }));
    }
    formers
        .into_iter()
        .map(|f| f.join().unwrap().expect("replica rendezvous completes"))
        .collect()
}

/// Commits `n` Sets through `front`-replica 0 and waits until every
/// live replica has applied them.
fn push_ops(replicas: &[&KvReplica], n: u64, from_ci: u64) {
    push_sets(replicas, n, from_ci, 8, 0);
}

/// [`push_ops`] over `keys` keys with values padded to `value_len`.
fn push_sets(replicas: &[&KvReplica], n: u64, from_ci: u64, keys: u64, value_len: usize) {
    let front = replicas[0].front();
    for i in 0..n {
        let mut value = format!("v{}", from_ci + i).into_bytes();
        value.resize(value.len().max(value_len), b'.');
        let op = KvOp::Set(format!("key-{}", i % keys).into_bytes(), value);
        if let KvResult::Err(e) = front.submit_timeout(&op, Duration::from_secs(5)) {
            panic!("set {} rejected: {e:?}", from_ci + i);
        }
    }
    wait_for(
        "all replicas apply the batch",
        Duration::from_secs(20),
        || replicas.iter().all(|r| r.commit_index() >= from_ci + n),
    );
}

/// Kills the victim, waits for the survivors to evict its incarnation,
/// and restarts it from its own disk (`victim_slots`: see [`open_wal`]).
/// Returns the reborn replica and what its recovery found.
fn crash_and_restart(
    control: &LoopbackHub,
    data: &LoopbackHub,
    disks: &[MemDisk],
    victim_slots: Option<&MemDisk>,
    victim: KvReplica,
    survivors: &[&KvReplica],
) -> (KvReplica, RecoveryReport) {
    let old_ep = victim.endpoint();
    victim.kill();
    disks[VICTIM].crash();
    if let Some(slots) = victim_slots {
        slots.crash();
    }
    // Restarting earlier risks the coordinator folding the
    // not-yet-suspected corpse into the rejoin merge flush.
    wait_for(
        "survivors evict the dead incarnation",
        Duration::from_secs(30),
        || {
            survivors.iter().all(|r| {
                let v = r.view();
                v.nmembers() == REPLICAS - 1 && !v.members.contains(&old_ep)
            })
        },
    );
    let reborn = old_ep.reincarnate();
    let (c, d) = (control.attach(reborn), data.attach(reborn));
    let mut cfg = KvConfig::new(REPLICAS);
    cfg.cluster.form_timeout = Duration::from_secs(30);
    let wal = open_wal(disks, victim_slots, VICTIM, &cfg);
    let (replica, report) =
        KvReplica::form_durable(reborn, Endpoint::new(0), cfg, Box::new(c), Box::new(d), wal)
            .expect("restarted replica rejoins");
    wait_for("reborn replica serves", Duration::from_secs(30), || {
        replica.is_serving()
    });
    (replica, report)
}

/// Replays the whole execution — the survivors' logs, the victim's
/// pre-crash log, the reborn instance's log, and the recovery itself —
/// through the linearizability checker.
fn replay_clean(
    survivors: &[&KvReplica],
    pre_crash: Vec<(u64, KvOp)>,
    reborn: &KvReplica,
    recovered_ci: u64,
) {
    let checker = KvLinearizabilityChecker::new();
    replay_clean_with(checker, survivors, pre_crash, reborn, recovered_ci);
}

/// [`replay_clean`] on a checker that already holds what the victim's
/// clients were told before the crash.
fn replay_clean_with(
    mut checker: KvLinearizabilityChecker,
    survivors: &[&KvReplica],
    pre_crash: Vec<(u64, KvOp)>,
    reborn: &KvReplica,
    recovered_ci: u64,
) {
    for r in survivors {
        let id = r.endpoint().id();
        for (ci, op) in r.commit_log() {
            checker.on_commit(id, ci, op);
        }
    }
    let victim_id = reborn.endpoint().id();
    for (ci, op) in pre_crash {
        checker.on_commit(victim_id, ci, op);
    }
    checker.on_recovery(victim_id, recovered_ci);
    for (ci, op) in reborn.commit_log() {
        checker.on_commit(victim_id, ci, op);
    }
    let violations = checker.finish();
    assert!(
        violations.is_empty(),
        "recovery violations:\n{}",
        violations.join("\n")
    );
}

#[test]
fn quiet_crash_recovers_exactly_and_skips_the_snapshot() {
    let control = LoopbackHub::with_faults(11, FaultPlan::default());
    let data = LoopbackHub::with_faults(11 ^ 0x5EED, FaultPlan::default());
    let disks: Vec<MemDisk> = (0..REPLICAS as u64)
        .map(|i| MemDisk::new(11 ^ i, StorageFaults::clean()))
        .collect();
    let mut replicas = form_group(&control, &data, &disks, None, &KvConfig::new(REPLICAS));

    let all: Vec<&KvReplica> = replicas.iter().collect();
    push_ops(&all, OPS, 0);
    drop(all);
    // A drained inbox force-flushes the group-commit tail; once the
    // victim's disk has no volatile bytes the WAL covers all OPS
    // records and the crash can destroy nothing.
    wait_for("victim WAL fully synced", Duration::from_secs(10), || {
        disks[VICTIM].pending_len() == 0
    });

    let victim = replicas.remove(VICTIM);
    let pre_crash = victim.commit_log();
    let survivors: Vec<&KvReplica> = replicas.iter().collect();
    let (reborn, report) = crash_and_restart(&control, &data, &disks, None, victim, &survivors);
    let recovered_ci = report.recovered_ci();

    // Recovery reproduced the exact pre-crash state from the local log
    // alone, so the rejoin took the state-transfer fast path: the
    // resume hint covered the coordinator's version and no snapshot
    // crossed the wire.
    assert_eq!(recovered_ci, OPS, "quiet crash loses nothing");
    wait_for("fast path recorded", Duration::from_secs(10), || {
        reborn
            .metrics()
            .snapshots_skipped
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    });
    assert_eq!(
        reborn
            .metrics()
            .snapshots_installed
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "a caught-up rejoiner must not be shipped a snapshot"
    );

    // The reborn member participates fully in post-rejoin traffic.
    let group: Vec<&KvReplica> = replicas.iter().chain(std::iter::once(&reborn)).collect();
    push_ops(&group, 10, OPS);
    replay_clean(&survivors, pre_crash, &reborn, recovered_ci);
}

#[test]
fn torn_crash_recovers_a_prefix_and_catches_up_by_snapshot() {
    let control = LoopbackHub::with_faults(23, FaultPlan::default());
    let data = LoopbackHub::with_faults(23 ^ 0x5EED, FaultPlan::default());
    // The victim's disk fails every fsync, so its entire WAL stays in
    // the volatile buffer; the crash then tears it to a seeded prefix.
    let disks: Vec<MemDisk> = (0..REPLICAS)
        .map(|i| {
            let faults = if i == VICTIM {
                StorageFaults {
                    fsync_fail_p: 1.0,
                    torn_tail_p: 1.0,
                    ..StorageFaults::clean()
                }
            } else {
                StorageFaults::clean()
            };
            MemDisk::new(23 ^ i as u64, faults)
        })
        .collect();
    let mut replicas = form_group(&control, &data, &disks, None, &KvConfig::new(REPLICAS));

    let all: Vec<&KvReplica> = replicas.iter().collect();
    push_ops(&all, OPS, 0);
    drop(all);
    assert!(
        disks[VICTIM].pending_len() > 0,
        "every fsync failed, the victim's WAL must be volatile"
    );

    let victim = replicas.remove(VICTIM);
    let pre_crash = victim.commit_log();
    let survivors: Vec<&KvReplica> = replicas.iter().collect();
    let (reborn, report) = crash_and_restart(&control, &data, &disks, None, victim, &survivors);
    let recovered_ci = report.recovered_ci();

    // The torn WAL recovers only a prefix, the resume hint falls short
    // of the coordinator's version, and the grant ships the full map.
    assert!(
        recovered_ci < OPS,
        "torn tail must lose records (recovered {recovered_ci} of {OPS})"
    );
    wait_for(
        "snapshot transfer recorded",
        Duration::from_secs(10),
        || {
            reborn
                .metrics()
                .snapshots_installed
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        },
    );

    let group: Vec<&KvReplica> = replicas.iter().chain(std::iter::once(&reborn)).collect();
    push_ops(&group, 10, OPS);
    replay_clean(&survivors, pre_crash, &reborn, recovered_ci);
}

/// Both crash shapes on a store whose snapshot (56 of 64 keys hold
/// 1 KiB) outweighs `checkpoint_every` = 256 of the small records that follow
/// it: after the checkpoint at record 256 the WAL's byte rule holds the
/// next one back, so the crash finds 300 records past the slot.
fn big_store_crash(seed: u64, torn: bool) {
    const LOAD: u64 = 64;
    const CKPT_AT: u64 = 256;
    const TAIL: u64 = 300;
    let control = LoopbackHub::with_faults(seed, FaultPlan::default());
    let data = LoopbackHub::with_faults(seed ^ 0x5EED, FaultPlan::default());
    // Torn: the victim's log fails every fsync (all of it stays
    // volatile and tears) while its slots, on a disk of their own,
    // checkpoint normally.
    let disks: Vec<MemDisk> = (0..REPLICAS)
        .map(|i| {
            let faults = if torn && i == VICTIM {
                StorageFaults {
                    fsync_fail_p: 1.0,
                    torn_tail_p: 1.0,
                    ..StorageFaults::clean()
                }
            } else {
                StorageFaults::clean()
            };
            MemDisk::new(seed ^ i as u64, faults)
        })
        .collect();
    let slot_disk = torn.then(|| MemDisk::new(seed ^ 0x510, StorageFaults::clean()));
    let mut replicas = form_group(
        &control,
        &data,
        &disks,
        slot_disk.as_ref(),
        &KvConfig::new(REPLICAS),
    );
    let all: Vec<&KvReplica> = replicas.iter().collect();
    let metrics = all[VICTIM].metrics();
    push_sets(&all, LOAD, 0, LOAD, 1024);
    push_ops(&all, CKPT_AT - LOAD, LOAD);
    // Joining installed the seed's empty state with a checkpoint of its
    // own, so the count-rule one is told apart by its size (the small
    // sets overwrote 8 of the 64 big values).
    wait_for("the count-rule checkpoint", Duration::from_secs(10), || {
        metrics.checkpoint_bytes.load(Relaxed) >= (LOAD - 8) * 1024
    });
    let checkpoints = metrics.checkpoints.load(Relaxed);
    push_ops(&all, TAIL, CKPT_AT);
    assert_eq!(
        metrics.checkpoints.load(Relaxed),
        checkpoints,
        "{TAIL} small records do not outweigh a 56 KiB snapshot"
    );
    drop(all);
    if !torn {
        wait_for("victim WAL fully synced", Duration::from_secs(10), || {
            disks[VICTIM].pending_len() == 0
        });
    }

    let victim = replicas.remove(VICTIM);
    let pre_crash = victim.commit_log();
    let survivors: Vec<&KvReplica> = replicas.iter().collect();
    let (reborn, report) = crash_and_restart(
        &control,
        &data,
        &disks,
        slot_disk.as_ref(),
        victim,
        &survivors,
    );
    assert_eq!(report.checkpoint_ci, CKPT_AT);
    let recovered_ci = report.recovered_ci();
    if torn {
        assert!(
            (CKPT_AT..CKPT_AT + TAIL).contains(&recovered_ci),
            "the slot holds, the torn log loses records (recovered {recovered_ci})"
        );
        wait_for(
            "snapshot transfer recorded",
            Duration::from_secs(10),
            || reborn.metrics().snapshots_installed.load(Relaxed) >= 1,
        );
    } else {
        assert_eq!(report.replayed, TAIL, "the whole tail past the slot");
        assert_eq!(recovered_ci, CKPT_AT + TAIL, "quiet crash loses nothing");
        wait_for("fast path recorded", Duration::from_secs(10), || {
            reborn.metrics().snapshots_skipped.load(Relaxed) >= 1
        });
        assert_eq!(reborn.metrics().snapshots_installed.load(Relaxed), 0);
    }

    let group: Vec<&KvReplica> = replicas.iter().chain(std::iter::once(&reborn)).collect();
    push_ops(&group, 10, CKPT_AT + TAIL);
    replay_clean(&survivors, pre_crash, &reborn, recovered_ci);
}

#[test]
fn quiet_crash_under_the_byte_rule_replays_a_long_tail_and_skips_the_snapshot() {
    big_store_crash(31, false);
}

#[test]
fn torn_crash_under_the_byte_rule_falls_back_to_the_slot_and_catches_up() {
    big_store_crash(37, true);
}

/// Pipelined batches through the victim's own listener, so that its WAL
/// receives each cast's records as one run and its clients' acks are
/// what recovery is held to. The victim's log never syncs (the whole of
/// it is a volatile tail); its slots, on a disk of their own, do, and a
/// checkpoint every 64 records is what releases the acks.
#[test]
fn torn_crash_inside_a_batch_run_loses_no_acknowledged_op() {
    const BATCH: u64 = 64;
    const ACKED_BATCHES: u64 = 3;
    const TAIL: u64 = 32;
    let seed = 41;
    let control = LoopbackHub::with_faults(seed, FaultPlan::default());
    let data = LoopbackHub::with_faults(seed ^ 0x5EED, FaultPlan::default());
    let disks: Vec<MemDisk> = (0..REPLICAS)
        .map(|i| {
            let faults = if i == VICTIM {
                StorageFaults {
                    fsync_fail_p: 1.0,
                    torn_tail_p: 1.0,
                    ..StorageFaults::clean()
                }
            } else {
                StorageFaults::clean()
            };
            MemDisk::new(seed ^ i as u64, faults)
        })
        .collect();
    let slot_disk = MemDisk::new(seed ^ 0x510, StorageFaults::clean());
    let mut cfg = KvConfig::new(REPLICAS);
    cfg.wal.checkpoint_every = BATCH;
    let mut replicas = form_group(&control, &data, &disks, Some(&slot_disk), &cfg);
    let listener = match KvListener::start(replicas[VICTIM].front(), "127.0.0.1:0", (&cfg).into()) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("skipping batch recovery test: bind denied ({e})");
            return;
        }
    };
    let set = |i: u64| {
        KvOp::Set(
            format!("key-{}", i % 16).into_bytes(),
            format!("v{i}").into_bytes(),
        )
    };

    // Each call is one write of 64 frames: one cast, one run of 64
    // records, and the checkpoint it makes due acknowledges all of it.
    let victim_id = replicas[VICTIM].endpoint().id();
    let metrics = replicas[VICTIM].metrics();
    let mut checker = KvLinearizabilityChecker::new();
    let mut kv = KvClient::new(vec![listener.addr()], Duration::from_secs(10));
    for batch in 0..ACKED_BATCHES {
        let ops: Vec<KvOp> = (batch * BATCH..(batch + 1) * BATCH).map(set).collect();
        let results = kv.pipeline(&ops).expect("batch is acknowledged");
        for (op, result) in ops.into_iter().zip(results) {
            assert!(!matches!(result, KvResult::Err(_)), "{result:?}");
            checker.on_response_at(victim_id, op, result);
        }
    }
    let acked = ACKED_BATCHES * BATCH;
    assert!(
        metrics.casts.load(Relaxed) < acked / 4,
        "the batches travelled op by op"
    );
    // One more batch that nothing acknowledges: a run of records past
    // the last checkpoint, all of it volatile.
    let mut raw = std::net::TcpStream::connect(listener.addr()).expect("connect");
    let mut frames = Vec::new();
    for i in acked..acked + TAIL {
        put_frame(&mut frames, &encode_request(i, &set(i)));
    }
    raw.write_all(&frames).expect("tail written");
    let all: Vec<&KvReplica> = replicas.iter().collect();
    wait_for(
        "the tail commits everywhere",
        Duration::from_secs(20),
        || all.iter().all(|r| r.commit_index() == acked + TAIL),
    );
    drop(all);
    assert!(disks[VICTIM].pending_len() > 0, "the tail must be volatile");
    drop(raw);
    listener.shutdown();

    let victim = replicas.remove(VICTIM);
    let pre_crash = victim.commit_log();
    let survivors: Vec<&KvReplica> = replicas.iter().collect();
    let (reborn, report) = crash_and_restart(
        &control,
        &data,
        &disks,
        Some(&slot_disk),
        victim,
        &survivors,
    );
    // The slot holds every acknowledged op; of the torn run a prefix.
    let recovered_ci = report.recovered_ci();
    assert_eq!(report.checkpoint_ci, acked);
    assert_eq!(recovered_ci, acked + report.replayed);
    assert!(recovered_ci <= acked + TAIL);

    let group: Vec<&KvReplica> = replicas.iter().chain(std::iter::once(&reborn)).collect();
    push_ops(&group, 10, acked + TAIL);
    replay_clean_with(checker, &survivors, pre_crash, &reborn, recovered_ci);
}
