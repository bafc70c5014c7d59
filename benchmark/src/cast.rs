//! The two cast workloads: one member of a two-member group multicasts
//! through the real runtime (shard workers, loopback hub, wake-ups) and
//! the other receives, closed loop with a fixed window in flight.

use crate::gen::CastInputs;
use crate::harness::{
    gen_thread, Bracket, Phase, RuntimeCounts, ThreadTally, Until, ATTEMPTED, OP_TIMEOUT,
};
use crate::procfs;
use crate::report::Values;
use crate::span::SpanLog;
use crate::wrap::{CountingTransport, TransportCounters};
use ensemble_event::ViewState;
use ensemble_layers::{LayerConfig, STACK_10};
use ensemble_obs::now_ns;
use ensemble_runtime::{Delivery, GroupHandle, LoopbackHub, Node, RuntimeConfig, Transport};
use ensemble_stack::EngineKind;
use ensemble_util::Rank;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What distinguishes `cast-small` from `cast-large`.
pub struct CastSpec {
    /// Payload bytes per cast.
    pub payload_len: usize,
    /// Casts in flight.
    pub window: u32,
    /// Install the synthesized MACH bypass on both members.
    pub bypass: bool,
    /// Casts sent, and awaited, before the measured phase.
    pub warmup: u32,
    /// Layer configuration of both members.
    pub layers: fn() -> LayerConfig,
}

/// The paper's measurement configuration: "the outcome of the CCP checks
/// is always the choice to run the bypass code". Flow-control windows and
/// the stability threshold are pushed beyond any run, because a cast
/// whose CCP fails takes the engine, the bypass's own sequence state then
/// never advances, and every later CCP fails too: with the defaults the
/// fast path carries the first 15 casts of a run and nothing after. The
/// window in flight is the harness's alone; timers and fragment size
/// stay at their defaults.
fn ccp_always_holds() -> LayerConfig {
    LayerConfig {
        pt2pt_window: 1 << 40,
        mflow_window: 1 << 40,
        collect_every: 1 << 40,
        ..LayerConfig::default()
    }
}

/// The paper's headline configuration: 4-byte casts over the 10-layer
/// stack with the bypass installed.
pub const SMALL: CastSpec = CastSpec {
    payload_len: 4,
    window: 64,
    bypass: true,
    warmup: 400_000,
    layers: ccp_always_holds,
};

/// 4096-byte casts (three fragments at `frag_max` 1400) through the
/// interpreted engine, with the default windows: flow-control credits
/// and stability rounds run as they do in the service.
pub const LARGE: CastSpec = CastSpec {
    payload_len: 4096,
    window: 16,
    bypass: false,
    warmup: 45_000,
    layers: LayerConfig::default,
};

/// One in every this many casts gets its spans recorded in a traced run
/// (all of them would be gigabytes).
const SPAN_SAMPLE: u32 = 64;

/// A formed two-member group, warmed up.
pub struct CastSystem {
    spec: &'static CastSpec,
    node: Node,
    a: GroupHandle,
    b: GroupHandle,
    inputs: CastInputs,
    next_seq: u32,
    counters: Option<Arc<TransportCounters>>,
}

impl CastSystem {
    /// Builds the group — hub, node, two joins, the bypass if the spec
    /// has one — and sends the warm-up casts through it. With `traced`,
    /// both members' transports are wrapped to count datagrams.
    pub fn setup(spec: &'static CastSpec, seed: u64, traced: bool) -> CastSystem {
        let hub = LoopbackHub::new(seed);
        let vs = ViewState::initial(2);
        let counters = traced.then(|| Arc::new(TransportCounters::default()));
        let mut node = Node::new(RuntimeConfig::default());
        let mut join = |rank: u16| {
            let ep = vs.members[rank as usize];
            let mut transport: Box<dyn Transport> = Box::new(hub.attach(ep));
            if let Some(c) = &counters {
                transport = CountingTransport::wrap(transport, c);
            }
            node.join(
                STACK_10,
                vs.for_rank(Rank(rank)),
                EngineKind::Imp,
                (spec.layers)(),
                transport,
            )
            .expect("join the two-member group")
        };
        let (a, b) = (join(0), join(1));
        if spec.bypass {
            a.install_bypass().expect("synthesize member 0's bypass");
            b.install_bypass().expect("synthesize member 1's bypass");
        }
        let mut sys = CastSystem {
            spec,
            node,
            a,
            b,
            inputs: CastInputs::new(seed, spec.payload_len),
            next_seq: 0,
            counters,
        };
        let (tallies, correct) = sys.drive(Until::Count(spec.warmup.into()), None);
        assert!(
            correct && tallies.iter().all(|t| t.failed == 0),
            "warm-up casts were lost or reordered"
        );
        sys
    }

    /// Runs the closed loop for `dur` and returns the phase, whether
    /// every cast arrived exactly once, in order and intact, and the
    /// in-run layer metrics (when traced).
    pub fn measure(&mut self, dur: Duration, spans: Option<&mut SpanLog>) -> (Phase, bool, Values) {
        let before = self.counts();
        let bracket = Bracket::open();
        let (tallies, correct) = self.drive(Until::Deadline(bracket.t0 + dur), spans);
        let phase = bracket.close(tallies);
        let mut layer = Values::new();
        let ops = phase.completed().max(1) as f64;
        self.counts().metrics_since(&before, ops, &mut layer);
        (phase, correct, layer)
    }

    /// The node's own counters and, when traced, the transport wrapper's.
    fn counts(&self) -> RuntimeCounts {
        let node = self.node.stats().totals();
        let (sent_msgs, sent_bytes) = self.counters.as_ref().map_or((0, 0), |c| c.snapshot());
        RuntimeCounts {
            spurious_wakeups: node.spurious_wakeups,
            bypass_hits: node.bypass_hits,
            bypass_misses: node.bypass_misses,
            retransmits: node.retransmits,
            defer_flushes: node.defer_flushes,
            sent_msgs,
            sent_bytes,
        }
    }

    /// Stops the shard workers and joins them.
    pub fn teardown(mut self) {
        self.node.shutdown();
    }

    /// The closed loop. The sender thread spends a credit per cast,
    /// blocking for more when it runs out, stamps the cast's slot, and
    /// casts; the receiver thread blocks on member 1's deliveries,
    /// checks each against the inputs, and hands credits back. Neither
    /// thread ever polls.
    fn drive(&mut self, until: Until, spans: Option<&mut SpanLog>) -> (Vec<ThreadTally>, bool) {
        let spec = self.spec;
        let window = spec.window as usize;
        // Send stamp and cast-return time of the cast in each window
        // slot; the credit protocol keeps a slot from being reused
        // before its delivery was seen.
        let sent_at: Vec<AtomicU64> = (0..window).map(|_| AtomicU64::new(0)).collect();
        let cast_end: Vec<AtomicU64> = (0..window).map(|_| AtomicU64::new(0)).collect();
        let (credit_tx, credit_rx) = mpsc::channel::<u32>();
        credit_tx.send(spec.window).expect("receiver alive");
        let first = self.next_seq;
        let sent_upto = AtomicU32::new(first);
        let sender_done = AtomicBool::new(false);
        let t0 = Instant::now();
        // A handle owns the receiving end of a channel, so it is `Send`
        // but not `Sync`: each thread gets one of them exclusively.
        let (a, b, inputs) = (&mut self.a, &mut self.b, &self.inputs);
        let (sent_at, cast_end) = (&sent_at, &cast_end);
        let (sent_upto, sender_done) = (&sent_upto, &sender_done);

        let (send_tally, recv_tally, correct) = std::thread::scope(|s| {
            let sender = gen_thread("send")
                .spawn_scoped(s, move || {
                    let cpu0 = procfs::thread_cpu_s();
                    let mut tally = ThreadTally::default();
                    let mut buf = Vec::new();
                    let mut seq = first;
                    let mut credits = 0;
                    loop {
                        if !until.more(seq.wrapping_sub(first).into()) {
                            break;
                        }
                        if credits == 0 {
                            // Credits that never come mean the receiver
                            // gave up on a lost cast: stop offering load.
                            match credit_rx.recv_timeout(OP_TIMEOUT) {
                                Ok(n) => credits = n,
                                Err(_) => break,
                            }
                        }
                        credits -= 1;
                        inputs.fill(seq, &mut buf);
                        let slot = seq as usize % window;
                        sent_at[slot].store(now_ns(), Ordering::Release);
                        tally.attempted += 1;
                        ATTEMPTED.fetch_add(1, Ordering::Relaxed);
                        if a.cast(&buf).is_err() {
                            // Attempted and never delivered: it is
                            // counted as failed below.
                            break;
                        }
                        cast_end[slot].store(now_ns(), Ordering::Release);
                        seq = seq.wrapping_add(1);
                        sent_upto.store(seq, Ordering::Release);
                        // The stack delivers a member's own casts back
                        // to it; an undrained queue would stall its
                        // shard.
                        while a.try_recv().is_some() {}
                    }
                    sender_done.store(true, Ordering::Release);
                    tally.cpu_s = procfs::thread_cpu_s() - cpu0;
                    tally
                })
                .expect("spawn sender");
            let receiver = gen_thread("recv")
                .spawn_scoped(s, move || {
                    let cpu0 = procfs::thread_cpu_s();
                    let mut tally = ThreadTally::default();
                    let mut spans = spans;
                    let mut correct = true;
                    let mut seq = first;
                    let mut last_progress = Instant::now();
                    // Credits go back a quarter window at a time: one
                    // wake-up of the sender per batch, not per cast, and
                    // between three quarters and a whole window in flight.
                    let credit_batch = (spec.window / 4).max(1);
                    let mut owed = 0;
                    loop {
                        // Read "done" before "how many": a count read
                        // after the flag is final.
                        let done = sender_done.load(Ordering::Acquire);
                        if done && seq == sent_upto.load(Ordering::Acquire) {
                            break;
                        }
                        // Short waits only so that the exit condition
                        // above is re-read; the thread sleeps in the
                        // channel either way.
                        let got = b.recv_timeout(Duration::from_millis(50));
                        let now = Instant::now();
                        let Some(Delivery::Cast { origin: 0, bytes }) = got else {
                            if now.duration_since(last_progress) > OP_TIMEOUT {
                                correct = false;
                                break;
                            }
                            continue;
                        };
                        last_progress = now;
                        if !inputs.matches(seq, &bytes) {
                            correct = false;
                            break;
                        }
                        let slot = seq as usize % window;
                        let sent = sent_at[slot].load(Ordering::Acquire);
                        let seen = now_ns();
                        tally.complete(t0, now, Duration::from_nanos(seen.saturating_sub(sent)));
                        if let Some(log) = spans.as_deref_mut() {
                            if seq.is_multiple_of(SPAN_SAMPLE) {
                                let op = log.push("cast.op", sent, seen, None, seq as u64);
                                let returned = cast_end[slot].load(Ordering::Acquire);
                                // The delivery can overtake the sender's
                                // return from `cast`; then the slot still
                                // holds an older cast's time.
                                if returned >= sent {
                                    log.push(
                                        "runtime.GroupHandle.cast",
                                        sent,
                                        returned.min(seen),
                                        Some(op),
                                        seq as u64,
                                    );
                                }
                            }
                        }
                        seq = seq.wrapping_add(1);
                        owed += 1;
                        if owed == credit_batch {
                            let _ = credit_tx.send(owed);
                            owed = 0;
                        }
                    }
                    tally.cpu_s = procfs::thread_cpu_s() - cpu0;
                    (tally, correct, seq)
                })
                .expect("spawn receiver");
            let send_tally = sender.join().expect("sender thread");
            let (recv_tally, correct, seen_upto) = receiver.join().expect("receiver thread");
            let lost = sent_upto.load(Ordering::Acquire).wrapping_sub(seen_upto) as u64;
            (send_tally, recv_tally, correct && lost == 0)
        });
        self.next_seq = sent_upto.load(Ordering::Acquire);
        // One tally for the pair: attempts are the sender's, completions
        // the receiver's, and whatever was sent but never seen failed.
        let mut tally = recv_tally;
        tally.attempted = send_tally.attempted;
        tally.failed = send_tally.attempted - tally.lat_ns.len() as u64;
        tally.cpu_s += send_tally.cpu_s;
        (vec![tally], correct)
    }
}
