//! Per-layer costs measured from outside: each figure times one public
//! function of one crate, on one thread, with nothing else running.
//!
//! Iteration counts are fixed, not time-boxed, so the work behind a
//! figure is the same on every commit. Each figure is the median of
//! [`BATCHES`] batches.

use crate::gen::{KvGen, KvMix};
use crate::report::Values;
use crate::span::SpanLog;
use crate::stats;
use ensemble_bench::{
    bench_cfg, bench_ctx, engine, gen_mach_packets, gen_wire_msgs, hand, mach, payload, up_cast_of,
    Kind, STACK_10,
};
use ensemble_event::{DnEvent, Msg, Payload, ViewState};
use ensemble_ir::models::Case;
use ensemble_kv::proto::{
    decode_cast, decode_request, decode_response, encode_cast, encode_request, encode_response,
};
use ensemble_kv::wal::crc32;
use ensemble_kv::{KvOp, KvStore, MemDisk, StorageFaults, Wal, WalConfig};
use ensemble_layers::{LayerConfig, STACK_VSYNC};
use ensemble_obs::Histogram;
use ensemble_runtime::{Action, Delivery, GroupCore, LoopbackHub, Node, RuntimeConfig, Transport};
use ensemble_stack::EngineKind;
use ensemble_synth::{synthesize, BypassOutput};
use ensemble_transport::{marshal, unmarshal, CompressedHdr, Dest, Packet};
use ensemble_util::{Rank, Time};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
/// Calls per batch for sub-microsecond functions.
const N: usize = 2000;

/// Median over [`BATCHES`] batches of the nanoseconds one call of `f`
/// takes, `n` calls a batch after one untimed batch. `f` gets a running
/// index so that it can consume pre-generated inputs in sequence; it
/// runs `(BATCHES + 1) * n` times.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    (0..n).for_each(&mut f);
    let per_batch: Vec<f64> = (1..=BATCHES)
        .map(|b| {
            let t0 = Instant::now();
            for i in b * n..(b + 1) * n {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    stats::median(&per_batch)
}

/// Calls [`ns_per_call`] makes.
const fn calls(n: usize) -> usize {
    (BATCHES + 1) * n
}

/// Median wall time of `f` over `reps` runs, nanoseconds.
fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&v)
}

/// `stack.*`: the interpreted and the functional engine, 4-byte casts
/// through the 10-layer stack, and the interpreted engine through the
/// service's 16-layer virtual-synchrony stack.
fn stack(v: &mut Values) {
    let cases: [(&[&'static str], Kind, &'static str, &'static str); 3] = [
        (STACK_10, Kind::Imp, "stack.imp.dn_ns", "stack.imp.up_ns"),
        (STACK_10, Kind::Func, "stack.func.dn_ns", "stack.func.up_ns"),
        (
            STACK_VSYNC,
            Kind::Imp,
            "stack.imp.vsync_dn_ns",
            "stack.imp.vsync_up_ns",
        ),
    ];
    for (names, kind, dn, up) in cases {
        let body = payload(4);
        let mut sender = engine(names, kind, 0);
        v.insert(
            dn,
            ns_per_call(N, |_| {
                let ev = DnEvent::Cast(Msg::data(body.clone()));
                black_box(sender.inject_dn(Time::ZERO, ev));
            }),
        );
        let msgs = gen_wire_msgs(names, calls(N), 4, false);
        let mut receiver = engine(names, kind, 1);
        v.insert(
            up,
            ns_per_call(N, |i| {
                black_box(receiver.inject_up(Time::ZERO, up_cast_of(msgs[i].clone())));
            }),
        );
    }
}

/// `synth.*` and `hand.*`: the synthesized bypass of the 10-layer stack
/// (whole public call: CCP, state update, compressed encode or decode),
/// its CCP alone, the synthesis itself, and the hand-written 4-layer
/// bypass for comparison.
fn synth(v: &mut Values) {
    let body = payload(4);
    let mut sender = mach(STACK_10, 0);
    v.insert(
        "synth.mach.dn_ns",
        ns_per_call(N, |i| {
            black_box(sender.dn_cast(&body));
            // The runtime drains deferred work in batches of 64.
            if i % 64 == 63 {
                sender.drain_deferred();
            }
        }),
    );
    let pkts = gen_mach_packets(STACK_10, calls(N), 4, false);
    let mut receiver = mach(STACK_10, 1);
    v.insert(
        "synth.mach.up_ns",
        ns_per_call(N, |i| {
            let out = receiver.up_cast(0, &pkts[i]);
            debug_assert!(matches!(out, BypassOutput::Done { .. }));
            black_box(out);
            if i % 64 == 63 {
                receiver.drain_deferred();
            }
        }),
    );
    let mut ccp = mach(STACK_10, 0);
    v.insert(
        "synth.ccp_ns",
        ns_per_call(N, |_| {
            black_box(ccp.bench_ccp(Case::DnCast, 1, 4));
        }),
    );
    v.insert(
        "synth.synthesize_ms",
        median_ns(3, || {
            synthesize(STACK_10, &bench_ctx(0)).expect("synthesis")
        }) / 1e6,
    );

    let mut h_send = hand(0);
    v.insert(
        "hand.dn_ns",
        ns_per_call(N, |i| {
            black_box(h_send.dn_cast(&body));
            if i % 64 == 63 {
                h_send.drain_deferred();
            }
        }),
    );
    let mut h_gen = hand(0);
    let h_pkts: Vec<Vec<u8>> = (0..calls(N))
        .map(|_| match h_gen.dn_cast(&body) {
            ensemble_hand::HandOutput::Wire { bytes, .. } => bytes,
            other => panic!("hand bypass did not produce wire bytes: {other:?}"),
        })
        .collect();
    let mut h_recv = hand(1);
    v.insert(
        "hand.up_ns",
        ns_per_call(N, |i| {
            black_box(h_recv.up_cast(0, &h_pkts[i]));
        }),
    );
}

/// `transport.*` and `event.*`: generic marshaling of one 10-layer wire
/// message against the compressed header the bypass uses, and the copy a
/// 4096-byte payload costs on its way in and out.
fn transport(v: &mut Values) {
    let wire = gen_wire_msgs(STACK_10, 1, 4, false).remove(0);
    let bytes = marshal(&wire);
    v.insert(
        "transport.marshal_ns",
        ns_per_call(N, |_| {
            black_box(marshal(black_box(&wire)));
        }),
    );
    v.insert(
        "transport.unmarshal_ns",
        ns_per_call(N, |_| {
            black_box(unmarshal(black_box(&bytes)).expect("own bytes unmarshal"));
        }),
    );
    let pkt = gen_mach_packets(STACK_10, 1, 4, false).remove(0);
    let (hdr, body) = CompressedHdr::decode(&pkt).expect("own packet decodes");
    let body = body.to_vec();
    v.insert(
        "transport.compressed_encode_ns",
        ns_per_call(N, |_| {
            black_box(hdr.encode(black_box(&body)));
        }),
    );
    v.insert(
        "transport.compressed_decode_ns",
        ns_per_call(N, |_| {
            black_box(CompressedHdr::decode(black_box(&pkt)).expect("own packet decodes"));
        }),
    );
    v.insert("transport.wire_bytes_generic", bytes.len() as f64);
    v.insert("transport.wire_bytes_compressed", pkt.len() as f64);
    let big = vec![0xABu8; 4096];
    v.insert(
        "event.payload_copy_4k_ns",
        ns_per_call(N, |_| {
            black_box(Payload::from_slice(black_box(&big)).gather());
        }),
    );
}

/// A group of sans-IO [`GroupCore`]s wired back to back on one thread:
/// whatever one transmits is handed to its addressees' `deliver_packet`
/// until nobody has anything left to say. Timer requests are dropped —
/// nothing is ever lost here, so no retransmission is ever due.
struct CoreNet {
    cores: Vec<GroupCore>,
    tick: u64,
}

/// What one cast cost on a [`CoreNet`].
#[derive(Default, Clone, Copy)]
struct CastCost {
    cast_ns: u64,
    deliver_ns: u64,
    delivers: u64,
    actions: u64,
}

impl CoreNet {
    fn new(names: &[&'static str], members: usize, cfg: LayerConfig) -> CoreNet {
        let vs = ViewState::initial(members);
        let mut net = CoreNet {
            cores: Vec::new(),
            tick: 0,
        };
        let mut boot = Vec::new();
        for r in 0..members {
            let (core, actions) = GroupCore::new(
                names,
                vs.for_rank(Rank(r as u16)),
                EngineKind::Imp,
                cfg.clone(),
                Time::ZERO,
            )
            .expect("stack builds");
            net.cores.push(core);
            boot.extend(transmits(actions));
        }
        net.pump(boot, &mut CastCost::default());
        net
    }

    fn install_bypass(&mut self) {
        for c in &mut self.cores {
            c.install_bypass().expect("bypass synthesizes");
        }
    }

    fn now(&mut self) -> Time {
        self.tick += 1_000;
        Time(self.tick)
    }

    /// Member 0 casts `payload`; every packet that causes is delivered,
    /// and every packet *that* causes, until the group is quiet.
    fn cast(&mut self, payload: &[u8]) -> CastCost {
        let mut cost = CastCost::default();
        let now = self.now();
        let t0 = Instant::now();
        let actions = self.cores[0].cast(now, payload);
        cost.cast_ns = t0.elapsed().as_nanos() as u64;
        cost.actions = actions.len() as u64;
        self.pump(transmits(actions), &mut cost);
        cost
    }

    fn pump(&mut self, mut pending: Vec<Packet>, cost: &mut CastCost) {
        while let Some(pkt) = pending.pop() {
            for i in 0..self.cores.len() {
                let ep = self.cores[i].endpoint();
                let addressed = match pkt.dst {
                    Dest::Cast => ep != pkt.src,
                    Dest::Point(dst) => ep == dst,
                };
                if !addressed {
                    continue;
                }
                let now = self.now();
                let t0 = Instant::now();
                let actions = self.cores[i].deliver_packet(now, pkt.clone());
                cost.deliver_ns += t0.elapsed().as_nanos() as u64;
                cost.delivers += 1;
                cost.actions += actions.len() as u64;
                // Depth-first keeps one sender's packets in order.
                let mut more = transmits(actions);
                more.reverse();
                pending.extend(more);
            }
        }
    }
}

fn transmits(actions: Vec<Action>) -> Vec<Packet> {
    actions
        .into_iter()
        .filter_map(|a| match a {
            Action::Transmit(p) => Some(p),
            _ => None,
        })
        .collect()
}

/// Layer configuration for the sans-IO figures: real fragment size,
/// windows pushed out so that the steady state never hits a slow path.
fn core_cfg() -> LayerConfig {
    LayerConfig {
        frag_max: 1400,
        ..bench_cfg()
    }
}

/// Median per-cast cost over `n` casts of `len` bytes on `net`.
fn core_costs(net: &mut CoreNet, len: usize, n: usize) -> (f64, f64, f64) {
    let body = vec![0xABu8; len];
    for _ in 0..n / 10 {
        net.cast(&body);
    }
    let costs: Vec<CastCost> = (0..n).map(|_| net.cast(&body)).collect();
    let med = |f: fn(&CastCost) -> f64| stats::median(&costs.iter().map(f).collect::<Vec<_>>());
    (
        med(|c| c.cast_ns as f64),
        med(|c| c.deliver_ns as f64 / c.delivers.max(1) as f64),
        costs.iter().map(|c| c.actions as f64).sum::<f64>() / n as f64,
    )
}

/// `runtime.core.*`: the per-group state machine with no threads, no
/// queues and no clock — what a cast and a delivery cost before the
/// runtime adds its hand-offs.
fn runtime_core(v: &mut Values) {
    let mut plain = CoreNet::new(STACK_10, 2, core_cfg());
    let (cast, deliver, actions) = core_costs(&mut plain, 4, N);
    v.insert("runtime.core.cast_ns", cast);
    v.insert("runtime.core.deliver_ns", deliver);
    v.insert("runtime.core.actions_per_cast", actions);
    let (cast_4k, _, _) = core_costs(&mut plain, 4096, N);
    v.insert("runtime.core.cast_4k_ns", cast_4k);
    let mut fast = CoreNet::new(STACK_10, 2, core_cfg());
    fast.install_bypass();
    let (cast, deliver, _) = core_costs(&mut fast, 4, N);
    v.insert("runtime.core.cast_bypass_ns", cast);
    v.insert("runtime.core.deliver_bypass_ns", deliver);
}

/// `runtime.hub.*`, `runtime.node.*` and `obs.*`: one datagram through
/// the loopback hub on one thread; one depth-1 cast from `GroupHandle`
/// to the peer's `recv_timeout`, which is one shard-worker wake-up each
/// way; one histogram sample.
fn runtime_node(v: &mut Values) {
    let hub = LoopbackHub::new(1);
    let vs = ViewState::initial(2);
    let mut a = hub.attach(vs.members[0]);
    let mut b = hub.attach(vs.members[1]);
    let pkt = Packet::point(vs.members[0], vs.members[1], vec![0xAB; 64]);
    v.insert(
        "runtime.hub.send_recv_ns",
        ns_per_call(N, |_| {
            a.send(&pkt).expect("hub accepts");
            black_box(b.try_recv().expect("hub delivers"));
        }),
    );

    let hub = LoopbackHub::new(2);
    let mut node = Node::new(RuntimeConfig::default());
    let mut join = |r: u16| {
        node.join(
            STACK_10,
            vs.for_rank(Rank(r)),
            EngineKind::Imp,
            LayerConfig::default(),
            Box::new(hub.attach(vs.members[r as usize])),
        )
        .expect("join")
    };
    let (ga, gb) = (join(0), join(1));
    let mut hops = Vec::with_capacity(N);
    for i in 0..N + N / 10 {
        let t0 = Instant::now();
        ga.cast(&(i as u32).to_le_bytes()).expect("cast");
        loop {
            match gb.recv_timeout(Duration::from_secs(5)) {
                Some(Delivery::Cast { .. }) => break,
                Some(_) => continue,
                None => panic!("depth-1 cast was lost on a clean hub"),
            }
        }
        if i >= N / 10 {
            hops.push(t0.elapsed().as_nanos() as f64);
        }
        while ga.try_recv().is_some() {}
    }
    v.insert("runtime.node.hop_us", stats::median(&hops) / 1e3);
    node.shutdown();

    let hist = Histogram::new();
    v.insert(
        "obs.hist_record_ns",
        ns_per_call(N, |i| hist.record(black_box(i as u64 * 37))),
    );
}

/// Every per-layer figure that needs no running system and no workload
/// sizes: the substrate all four workloads stand on.
pub fn substrate() -> Values {
    let mut v = Values::new();
    stack(&mut v);
    synth(&mut v);
    transport(&mut v);
    runtime_core(&mut v);
    runtime_node(&mut v);
    v
}

/// `kv.proto.*`, `kv.store.*` and `kv.wal.*` at one KV workload's key
/// and value sizes and operation mix.
pub fn kv_layers(keys: u64, value_len: usize, mix: KvMix) -> Values {
    let mut v = Values::new();
    let mut gen = KvGen::new(0xBE7C, 0, keys, value_len, mix);
    let preload = gen.preload();
    let ops: Vec<KvOp> = (0..calls(N)).map(|_| gen.next_op()).collect();

    // Wire protocol, over the workload's own operations.
    let reqs: Vec<Vec<u8>> = ops.iter().map(|op| encode_request(7, op)).collect();
    let casts: Vec<Vec<u8>> = ops.iter().map(|op| encode_cast(1, 7, op)).collect();
    v.insert(
        "kv.proto.encode_request_ns",
        ns_per_call(N, |i| {
            black_box(encode_request(i as u64, &ops[i]));
        }),
    );
    v.insert(
        "kv.proto.decode_request_ns",
        ns_per_call(N, |i| {
            black_box(decode_request(&reqs[i]).expect("own request decodes"));
        }),
    );
    v.insert(
        "kv.proto.encode_cast_ns",
        ns_per_call(N, |i| {
            black_box(encode_cast(1, i as u64, &ops[i]));
        }),
    );
    v.insert(
        "kv.proto.decode_cast_ns",
        ns_per_call(N, |i| {
            black_box(decode_cast(&casts[i]).expect("own cast decodes"));
        }),
    );

    // State machine: apply the mix to a loaded store; the results feed
    // the response codec.
    let mut store = KvStore::new();
    for op in &preload {
        store.apply(op);
    }
    let mut results = Vec::with_capacity(ops.len());
    v.insert(
        "kv.store.apply_ns",
        ns_per_call(N, |i| results.push(store.apply(&ops[i]))),
    );
    let resps: Vec<Vec<u8>> = results.iter().map(|r| encode_response(7, r)).collect();
    v.insert(
        "kv.proto.encode_response_ns",
        ns_per_call(N, |i| {
            black_box(encode_response(i as u64, &results[i]));
        }),
    );
    v.insert(
        "kv.proto.decode_response_ns",
        ns_per_call(N, |i| {
            black_box(decode_response(&resps[i]).expect("own response decodes"));
        }),
    );
    v.insert(
        "kv.store.snapshot_us",
        median_ns(BATCHES, || store.snapshot()) / 1e3,
    );

    // Write-ahead log on a clean in-memory disk at the service's group
    // commit; checkpoints held off so that the log reaches 10 k records.
    let cfg = WalConfig {
        sync_every: 32,
        checkpoint_every: u64::MAX,
    };
    let disk = MemDisk::new(1, StorageFaults::clean());
    let mut wal = Wal::on_mem_disk(&disk, "w", cfg);
    wal.recover().expect("empty disk recovers");
    let mut ci = 0u64;
    v.insert(
        "kv.wal.append_ns",
        ns_per_call(N, |i| {
            ci += 1;
            black_box(wal.append(ci, &ops[i]));
        }),
    );
    // A forced flush of a half-full group-commit batch.
    let flushes: Vec<f64> = (0..BATCHES)
        .map(|_| {
            for op in &ops[..16] {
                ci += 1;
                wal.append(ci, op);
            }
            let t0 = Instant::now();
            black_box(wal.flush());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    v.insert("kv.wal.flush_us", stats::median(&flushes) / 1e3);
    v.insert(
        "kv.wal.recover_ms",
        median_ns(3, || {
            Wal::on_mem_disk(&disk, "w", cfg)
                .recover()
                .expect("clean log recovers")
        }) / 1e6,
    );
    let snapshot = store.snapshot();
    v.insert(
        "kv.wal.checkpoint_us",
        median_ns(3, || wal.checkpoint(ci, &snapshot).expect("clean disk")) / 1e3,
    );
    let buf = vec![0x5Au8; 64 * 1024];
    v.insert(
        "kv.wal.crc32_ns_per_kib",
        median_ns(BATCHES, || crc32(black_box(&buf))) / 64.0,
    );
    v
}

/// Median round trip of a 64-byte frame over a bare loopback TCP
/// connection (`TCP_NODELAY`, blocking reads): the floor under any
/// `kv.tcp.*` figure.
pub fn tcp_rtt_floor_us() -> f64 {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_nodelay(true).expect("nodelay");
        let mut buf = [0u8; 64];
        while s.read_exact(&mut buf).is_ok() {
            if s.write_all(&buf).is_err() {
                break;
            }
        }
    });
    let mut s = std::net::TcpStream::connect(addr).expect("connect loopback");
    s.set_nodelay(true).expect("nodelay");
    let mut buf = [0x5Au8; 64];
    let mut rtts = Vec::with_capacity(N);
    for i in 0..N + N / 10 {
        let t0 = Instant::now();
        s.write_all(&buf).expect("write");
        s.read_exact(&mut buf).expect("read");
        if i >= N / 10 {
            rtts.push(t0.elapsed().as_nanos() as f64);
        }
    }
    drop(s);
    echo.join().expect("echo thread");
    stats::median(&rtts) / 1e3
}

/// `budget.*`: one KV operation replayed on one thread through every
/// stage's public function, each stage a child span of the operation —
/// the computing a request needs, with none of the waiting. Returns the
/// median of the operations' attributed time, microseconds.
///
/// The group stage is a three-member [`CoreNet`] on the service's stack
/// and engine: `GroupCore::cast` at the submitting replica, then
/// `deliver_packet` for every packet that cast causes anywhere in the
/// group (the data packet at both peers, and whatever they answer).
pub fn budget(keys: u64, value_len: usize, mix: KvMix, durable: bool, spans: &mut SpanLog) -> f64 {
    const OPS: usize = 1000;
    let mut gen = KvGen::new(0xB0D6, 0, keys, value_len, mix);
    let mut store = KvStore::new();
    for op in gen.preload() {
        store.apply(&op);
    }
    let service = ensemble_kv::KvConfig::new(3);
    let cfg = LayerConfig {
        // Windows out of the way, as in `core_cfg`; everything else as
        // the service runs it.
        pt2pt_window: 1 << 40,
        mflow_window: 1 << 40,
        ..service.cluster.layers.clone()
    };
    let mut net = CoreNet::new(service.cluster.stack, 3, cfg);
    let disk = MemDisk::new(2, StorageFaults::clean());
    let mut wal = Wal::on_mem_disk(&disk, "b", service.wal);
    wal.recover().expect("empty disk recovers");

    let mut attributed = Vec::with_capacity(OPS);
    for i in 0..OPS + OPS / 10 {
        let op = gen.next_op();
        let id = (2 << 40) | i as u64;
        let first = spans.spans().len();
        let whole = spans.open("budget.op", None, id);
        let p = Some(whole);
        let req = spans.time("kv.proto.encode_request", p, id, || encode_request(id, &op));
        let (_, op) = spans.time("kv.proto.decode_request", p, id, || {
            decode_request(&req).expect("own request decodes")
        });
        let cast = spans.time("kv.proto.encode_cast", p, id, || encode_cast(0, id, &op));
        // The group: cast at member 0, deliveries wherever they fall.
        let t_cast = ensemble_obs::now_ns();
        let cost = net.cast(&cast);
        let t_end = ensemble_obs::now_ns();
        spans.push(
            "runtime.GroupCore.cast",
            t_cast,
            t_cast + cost.cast_ns,
            p,
            id,
        );
        // The deliveries are several calls with the pump's routing in
        // between; one span of their summed time stands for them.
        let after_cast = (t_end - t_cast).saturating_sub(cost.cast_ns);
        spans.push(
            "runtime.GroupCore.deliver_packet",
            t_end - cost.deliver_ns.min(after_cast),
            t_end,
            p,
            id,
        );
        let (_, _, op) = spans.time("kv.proto.decode_cast", p, id, || {
            decode_cast(&cast).expect("own cast decodes")
        });
        let result = spans.time("kv.KvStore.apply", p, id, || store.apply(&op));
        if durable {
            let ci = store.commit_index();
            spans.time("kv.Wal.append", p, id, || wal.append(ci, &op));
        }
        let resp = spans.time("kv.proto.encode_response", p, id, || {
            encode_response(id, &result)
        });
        spans.time("kv.proto.decode_response", p, id, || {
            black_box(decode_response(&resp).expect("own response decodes"))
        });
        spans.close(whole);
        if i >= OPS / 10 {
            let stages = &spans.spans()[first + 1..];
            attributed.push(stages.iter().map(|s| s.duration_ns()).sum::<u64>() as f64);
        }
    }
    stats::median(&attributed) / 1e3
}
