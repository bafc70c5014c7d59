//! The TCP client plane over real sockets: pipelining, per-request
//! timeouts, redirect away from a stalled minority replica, and the
//! event-driven request path (no hop between commit and reply waits on a
//! timer; an idle plane does not wake).
//!
//! Every test binds `127.0.0.1:0`; a sandbox that denies loopback binds
//! downgrades each test to a logged skip rather than a failure.

use ensemble_kv::proto::{decode_response, encode_request, put_frame, read_frame};
use ensemble_kv::{
    KvClient, KvConfig, KvError, KvListener, KvOp, KvReplica, KvResult, ListenerConfig,
};
use ensemble_runtime::{FaultPlan, LoopbackHub};
use ensemble_util::Endpoint;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::time::{Duration, Instant};

/// Forms an n-replica group over fresh loopback hubs and starts one TCP
/// listener per replica. `None` means the sandbox denied the bind.
fn group(
    n: usize,
    seed: u64,
) -> Option<(Vec<KvReplica>, Vec<KvListener>, LoopbackHub, LoopbackHub)> {
    let control = LoopbackHub::with_faults(seed, FaultPlan::default());
    let data = LoopbackHub::with_faults(seed ^ 0x5EED, FaultPlan::default());
    let seed_ep = Endpoint::new(0);
    let mut formers = Vec::new();
    for i in 0..n as u32 {
        let ep = Endpoint::new(i);
        let (c, d) = (control.attach(ep), data.attach(ep));
        let cfg = KvConfig::new(n);
        formers.push(std::thread::spawn(move || {
            KvReplica::form(ep, seed_ep, cfg, Box::new(c), Box::new(d))
        }));
    }
    let replicas: Vec<KvReplica> = formers
        .into_iter()
        .map(|f| f.join().unwrap().expect("replica rendezvous completes"))
        .collect();
    let mut listeners = Vec::new();
    for r in &replicas {
        match KvListener::start(r.front(), "127.0.0.1:0", (&KvConfig::new(n)).into()) {
            Ok(l) => listeners.push(l),
            Err(e) => {
                eprintln!("skipping TCP plane test: bind denied ({e})");
                return None;
            }
        }
    }
    Some((replicas, listeners, control, data))
}

#[test]
fn pipelined_batch_completes_in_order() {
    let Some((_replicas, listeners, _c, _d)) = group(3, 7) else {
        return;
    };
    let addrs = listeners.iter().map(|l| l.addr()).collect();
    let mut kv = KvClient::new(addrs, Duration::from_secs(5));
    // One pipelined batch: writes, reads, a delete, and a CAS whose
    // verdict depends on the write that precedes it in the pipeline.
    let ops = vec![
        KvOp::Set(b"a".to_vec(), b"1".to_vec()),
        KvOp::Set(b"b".to_vec(), b"2".to_vec()),
        KvOp::Get(b"a".to_vec()),
        KvOp::Cas {
            key: b"a".to_vec(),
            expect: Some(b"1".to_vec()),
            new: b"3".to_vec(),
        },
        KvOp::Get(b"a".to_vec()),
        KvOp::Del(b"b".to_vec()),
        KvOp::Get(b"b".to_vec()),
    ];
    let results = kv.pipeline(&ops).expect("batch completes");
    assert_eq!(results.len(), ops.len());
    assert!(matches!(&results[2], KvResult::Value { value: Some(v), .. } if v == b"1"));
    assert!(matches!(&results[3], KvResult::Cas { ok: true, .. }));
    assert!(matches!(&results[4], KvResult::Value { value: Some(v), .. } if v == b"3"));
    assert!(matches!(&results[6], KvResult::Value { value: None, .. }));
    for l in listeners {
        l.shutdown();
    }
}

#[test]
fn client_redirects_away_from_stalled_minority() {
    let Some((_replicas, listeners, control, data)) = group(3, 11) else {
        return;
    };
    let fronts: Vec<_> = _replicas.iter().map(|r| r.front()).collect();
    // Split replica 2 off; put its address FIRST so the client starts
    // on the stalled replica and must redirect to commit.
    let groups = vec![vec![0u32, 1], vec![2u32]];
    control.split(groups.clone());
    data.split(groups);
    let deadline = Instant::now() + Duration::from_secs(20);
    while fronts[2].is_serving() {
        assert!(Instant::now() < deadline, "minority never stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let addrs = vec![
        listeners[2].addr(),
        listeners[0].addr(),
        listeners[1].addr(),
    ];
    let mut kv = KvClient::new(addrs, Duration::from_secs(5));
    let r = kv.set(b"k", b"v").expect("commits after redirecting");
    assert!(r > 0, "committed op carries a commit index");
    assert!(kv.redirects() > 0, "the stalled replica forced a redirect");
    control.heal();
    data.heal();
    for l in listeners {
        l.shutdown();
    }
}

#[test]
fn per_request_timeout_fails_fast_when_nothing_serves() {
    let Some((_replicas, listeners, control, data)) = group(3, 13) else {
        return;
    };
    let fronts: Vec<_> = _replicas.iter().map(|r| r.front()).collect();
    // Cut every replica off from every other: nobody holds quorum, so
    // no operation can commit anywhere.
    let groups = vec![vec![0u32], vec![1u32], vec![2u32]];
    control.split(groups.clone());
    data.split(groups);
    let deadline = Instant::now() + Duration::from_secs(20);
    while fronts.iter().any(|f| f.is_serving()) {
        assert!(Instant::now() < deadline, "replicas never all stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let addrs = listeners.iter().map(|l| l.addr()).collect();
    let mut kv = KvClient::new(addrs, Duration::from_millis(300));
    let t0 = Instant::now();
    let r = kv.set(b"k", b"v");
    assert!(r.is_err(), "no quorum anywhere, the call must fail");
    // Bounded by: per-request timeout × (every replica tried twice),
    // plus scheduling slack. The point is it fails, not hangs.
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "failure was not fast: {:?}",
        t0.elapsed()
    );
    control.heal();
    data.heal();
    for l in listeners {
        l.shutdown();
    }
}

/// Cuts replica 2 off from the other two on both hubs.
fn isolate_replica_2(control: &LoopbackHub, data: &LoopbackHub) {
    let groups = vec![vec![0u32, 1], vec![2u32]];
    control.split(groups.clone());
    data.split(groups);
}

/// Writes SETs with request ids `ids` to `stream` as one buffer.
fn send_sets(stream: &mut TcpStream, ids: std::ops::Range<u64>) {
    let mut batch = Vec::new();
    for id in ids {
        let op = KvOp::Set(format!("k{id}").into_bytes(), b"v".to_vec());
        put_frame(&mut batch, &encode_request(id, &op));
    }
    stream.write_all(&batch).expect("requests written");
}

/// Polls until `cond` holds; panics with `what` after `limit`.
fn await_that(limit: Duration, what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + limit;
    while !cond() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Reads `n` response frames off `stream`, as `(req_id, result)`.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<(u64, KvResult)> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (0..n)
        .map(|i| {
            let frame = read_frame(stream)
                .unwrap_or_else(|e| panic!("response {i} of {n}: {e}"))
                .unwrap_or_else(|| panic!("closed after {i} of {n} responses"));
            decode_response(&frame).expect("response decodes")
        })
        .collect()
}

#[test]
fn frames_written_together_travel_as_one_cast_and_commit_contiguously() {
    let Some((replicas, listeners, _c, _d)) = group(3, 41) else {
        return;
    };
    let metrics = replicas[1].metrics();
    let mut stream = TcpStream::connect(listeners[1].addr()).expect("connect");
    // A depth-1 call first: its reader is parked in `read` when the
    // batch arrives, and one request is one cast.
    send_sets(&mut stream, 0..1);
    let warm = read_responses(&mut stream, 1);
    assert!(matches!(warm[0], (0, KvResult::Applied { ci: 1 })));
    assert_eq!(metrics.casts.load(Relaxed), 1);
    // 32 frames, one `write`: one segment on loopback, one `read`.
    send_sets(&mut stream, 1..33);
    let mut got = read_responses(&mut stream, 32);
    assert_eq!(metrics.casts.load(Relaxed), 2, "the batch was split");
    assert_eq!(metrics.requests.load(Relaxed), 33);
    got.sort_by_key(|(req_id, _)| *req_id);
    // Request order is commit order, without a gap.
    let want: Vec<(u64, KvResult)> = (1..33)
        .map(|id| (id, KvResult::Applied { ci: id + 1 }))
        .collect();
    assert_eq!(got, want);
    for l in listeners {
        l.shutdown();
    }
}

#[test]
fn a_batch_over_the_depth_bound_is_submitted_in_bound_sized_casts() {
    let Some((replicas, listeners, _c, _d)) = group(3, 43) else {
        return;
    };
    let depth = 4;
    let cfg = ListenerConfig {
        pipeline_depth: depth,
        ..(&KvConfig::new(3)).into()
    };
    let narrow = KvListener::start(replicas[1].front(), "127.0.0.1:0", cfg).expect("bind");
    let metrics = replicas[1].metrics();
    // Submitted and not yet completed is at most submitted and not yet
    // written, which is what the bound limits.
    let (stop, worst) = (AtomicBool::new(false), AtomicU64::new(0));
    let got = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Relaxed) {
                // Read in this order, what happens in between can only
                // make the difference smaller: never a false alarm.
                let requests = metrics.requests.load(Relaxed);
                let open = requests.saturating_sub(metrics.responses.load(Relaxed));
                worst.fetch_max(open, Relaxed);
            }
        });
        let mut stream = TcpStream::connect(narrow.addr()).expect("connect");
        send_sets(&mut stream, 0..32);
        // A reader that parked with part of the read still unsubmitted
        // would wait for room that only those requests can make.
        let got = read_responses(&mut stream, 32);
        stop.store(true, Relaxed);
        got
    });
    let mut ids: Vec<u64> = got.iter().map(|(req_id, _)| *req_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..32).collect::<Vec<u64>>(), "each answered once");
    assert!(got
        .iter()
        .all(|(_, r)| matches!(r, KvResult::Applied { .. })));
    let casts = metrics.casts.load(Relaxed);
    assert!(casts >= 32 / depth as u64, "{casts} casts carried 32 ops");
    assert!(worst.load(Relaxed) <= depth as u64, "{worst:?} in flight");
    narrow.shutdown();
    for l in listeners {
        l.shutdown();
    }
}

#[test]
fn a_batch_sent_to_a_stalled_replica_is_refused_op_by_op() {
    let Some((replicas, listeners, control, data)) = group(3, 47) else {
        return;
    };
    let front = replicas[2].front();
    isolate_replica_2(&control, &data);
    await_that(Duration::from_secs(20), "minority never stalled", || {
        !front.is_serving()
    });
    let mut stream = TcpStream::connect(listeners[2].addr()).expect("connect");
    send_sets(&mut stream, 0..32);
    let mut got = read_responses(&mut stream, 32);
    got.sort_by_key(|(req_id, _)| *req_id);
    let want: Vec<(u64, KvResult)> = (0..32)
        .map(|id| (id, KvResult::Err(KvError::NotServing)))
        .collect();
    assert_eq!(got, want);
    let metrics = replicas[2].metrics();
    assert_eq!(metrics.rejected_not_serving.load(Relaxed), 32);
    assert_eq!(metrics.casts.load(Relaxed), 0, "nothing was proposed");
    assert_eq!(front.pending_len(), 0);
    control.heal();
    data.heal();
    for l in listeners {
        l.shutdown();
    }
}

#[test]
fn a_connection_dropped_with_a_batch_in_flight_empties_the_pending_table() {
    let Some((replicas, listeners, _control, data)) = group(3, 53) else {
        return;
    };
    let front = replicas[2].front();
    let metrics = replicas[2].metrics();
    let mut stream = TcpStream::connect(listeners[2].addr()).expect("connect");
    // The data plane only: replica 2 keeps serving and accepts the
    // batch, whose cast reaches nobody until the heal.
    data.split(vec![vec![0, 1], vec![2]]);
    send_sets(&mut stream, 0..32);
    await_that(Duration::from_secs(5), "batch was not accepted", || {
        front.pending_len() == 32
    });
    assert_eq!(metrics.casts.load(Relaxed), 1);
    drop(stream);
    await_that(
        Duration::from_secs(5),
        "entries outlived the client",
        || front.pending_len() == 0,
    );
    // The cast still commits, everywhere, and finds nobody waiting.
    data.heal();
    await_that(Duration::from_secs(20), "the batch never committed", || {
        replicas.iter().all(|r| r.commit_log().len() == 32)
    });
    assert_eq!(metrics.responses.load(Relaxed), 0);
    assert_eq!(metrics.timeouts.load(Relaxed), 0);
    for l in listeners {
        l.shutdown();
    }
}

#[test]
fn depth_one_call_does_not_wait_for_a_timer() {
    let Some((_replicas, listeners, _c, _d)) = group(3, 17) else {
        return;
    };
    let addrs = listeners.iter().map(|l| l.addr()).collect();
    let mut kv = KvClient::new(addrs, Duration::from_secs(5));
    kv.set(b"warm", b"up").expect("first call commits");
    let mut lat: Vec<Duration> = (0..200u32)
        .map(|i| {
            let t0 = Instant::now();
            kv.set(b"k", &i.to_le_bytes()).expect("call commits");
            t0.elapsed()
        })
        .collect();
    lat.sort();
    // A plane that finds commits by a socket time-out cannot go below two
    // timer ticks (4 ms at HZ = 250) however idle the machine.
    assert!(
        lat[100] < Duration::from_millis(3),
        "median depth-1 call took {:?}",
        lat[100]
    );
    for l in listeners {
        l.shutdown();
    }
}

#[test]
fn pipeline_beyond_the_depth_bound_completes() {
    let Some((_replicas, listeners, _c, _d)) = group(3, 19) else {
        return;
    };
    let addrs = listeners.iter().map(|l| l.addr()).collect();
    let mut kv = KvClient::new(addrs, Duration::from_secs(10));
    // Three times what the reader may have unanswered: it must park at
    // the bound and be woken by the writer, twice over.
    let n = 3 * KvConfig::new(3).pipeline_depth;
    let ops: Vec<KvOp> = (0..n)
        .flat_map(|i| {
            let key = format!("k{i}").into_bytes();
            [KvOp::Set(key.clone(), key.clone()), KvOp::Get(key)]
        })
        .take(n)
        .collect();
    let results = kv.pipeline(&ops).expect("batch completes");
    assert_eq!(results.len(), n);
    for (op, r) in ops.iter().zip(&results) {
        match (op, r) {
            (KvOp::Set(..), KvResult::Applied { ci }) => assert!(*ci > 0),
            (KvOp::Get(k), KvResult::Value { value, .. }) => assert_eq!(value.as_ref(), Some(k)),
            other => panic!("wrong result shape: {other:?}"),
        }
    }
    assert_eq!(kv.redirects(), 0);
    for l in listeners {
        l.shutdown();
    }
}

#[test]
fn uncommitted_request_times_out_once_and_stays_answered() {
    let Some((replicas, listeners, control, data)) = group(3, 23) else {
        return;
    };
    let timeout = KvConfig::new(3).request_timeout;
    let metrics = replicas[2].metrics();
    let mut stream = TcpStream::connect(listeners[2].addr()).expect("connect");
    stream.set_read_timeout(Some(timeout * 3)).unwrap();
    // Cut the replica off *after* connecting and submit before its
    // failure detector notices: the request is accepted, its cast never
    // reaches the sequencer, and no commit comes.
    isolate_replica_2(&control, &data);
    let t0 = Instant::now();
    send_sets(&mut stream, 1..2);
    let frame = read_frame(&mut stream).unwrap().expect("a response");
    let waited = t0.elapsed();
    assert_eq!(
        decode_response(&frame),
        Some((1, KvResult::Err(KvError::Timeout)))
    );
    assert!(
        waited >= timeout && waited < timeout + Duration::from_millis(500),
        "answered after {waited:?}"
    );
    assert_eq!(metrics.requests.load(Relaxed), 1, "it was accepted");
    assert_eq!(metrics.timeouts.load(Relaxed), 1);

    control.heal();
    data.heal();
    let front = replicas[2].front();
    await_that(Duration::from_secs(20), "replica 2 never resumed", || {
        front.is_serving()
    });
    // Whatever became of the old cast, request 1 is answered: the next
    // frame on this socket is request 2's, and nothing follows it.
    send_sets(&mut stream, 2..3);
    let frame = read_frame(&mut stream).unwrap().expect("a response");
    let (req_id, _) = decode_response(&frame).expect("decodes");
    assert_eq!(req_id, 2);
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    assert!(read_frame(&mut stream).is_err(), "an unasked-for frame");
    assert_eq!(metrics.timeouts.load(Relaxed), 1);
    for l in listeners {
        l.shutdown();
    }
}

#[test]
fn dropped_connection_leaves_nothing_behind() {
    let Some((replicas, listeners, control, data)) = group(3, 29) else {
        return;
    };
    let cfg = KvConfig::new(3);
    let metrics = replicas[2].metrics();
    // More connections than the pool has workers, each abandoned with
    // requests that can never commit: if a reader or writer outlived its
    // client, the later ones would never be served.
    let conns = cfg.listener_pool as u64 + 2;
    let mut open: Vec<TcpStream> = (0..cfg.listener_pool)
        .map(|_| TcpStream::connect(listeners[2].addr()).expect("connect"))
        .collect();
    isolate_replica_2(&control, &data);
    for c in 0..conns {
        let mut stream = open
            .pop()
            .unwrap_or_else(|| TcpStream::connect(listeners[2].addr()).expect("connect"));
        send_sets(&mut stream, 0..5);
        await_that(Duration::from_secs(1), "requests were not accepted", || {
            metrics.requests.load(Relaxed) == 5 * (c + 1)
        });
        drop(stream);
    }
    // Abandoned, not timed out: both halves left when the client did and
    // withdrew what was pending, instead of waiting out the deadlines.
    std::thread::sleep(cfg.request_timeout + Duration::from_millis(500));
    assert_eq!(metrics.timeouts.load(Relaxed), 0);
    assert_eq!(metrics.responses.load(Relaxed), 0);
    assert_eq!(metrics.requests.load(Relaxed), 5 * conns);
    control.heal();
    data.heal();
    let t0 = Instant::now();
    for l in listeners {
        l.shutdown();
    }
    assert!(t0.elapsed() < Duration::from_secs(1), "a thread lingered");
}

#[test]
fn shutdown_with_an_idle_connection_is_prompt() {
    let Some((_replicas, listeners, _c, _d)) = group(3, 31) else {
        return;
    };
    let addrs: Vec<_> = listeners.iter().map(|l| l.addr()).collect();
    let mut kv = KvClient::new(addrs, Duration::from_secs(5));
    kv.set(b"k", b"v").expect("commits");
    // `kv` keeps its connection to the first listener open and silent.
    for l in listeners {
        let t0 = Instant::now();
        l.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "shutdown took {:?}",
            t0.elapsed()
        );
    }
    assert!(kv.set(b"k", b"v").is_err(), "nothing listens any more");
}

#[test]
fn idle_plane_does_not_wake_and_a_call_wakes_it_thrice() {
    let Some((replicas, listeners, _c, _d)) = group(3, 37) else {
        return;
    };
    let addrs = listeners.iter().map(|l| l.addr()).collect();
    let mut kv = KvClient::new(addrs, Duration::from_secs(5));
    kv.set(b"warm", b"up").expect("first call commits");
    let wakeups = || replicas[0].metrics().listener_wakeups.load(Relaxed);
    let idle = wakeups();
    assert!(idle > 0, "accepting and serving the first call woke it");
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(wakeups(), idle, "an open, silent connection woke a thread");
    kv.set(b"k", b"v").expect("commits");
    // The reader for the request, the writer for the submission and for
    // the commit; the two writer wake-ups merge when the commit is quick.
    let cost = wakeups() - idle;
    assert!((2..=4).contains(&cost), "one call cost {cost} wake-ups");
    for l in listeners {
        l.shutdown();
    }
}
