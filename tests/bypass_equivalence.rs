//! The paper's central guarantee, checked end-to-end: the synthesized
//! bypass (MACH) is semantically equal to the original stack on
//! common-case traffic, and falls back safely otherwise. Also checks
//! HAND/MACH interoperability on the shared compressed wire format.

use ensemble::{HandBypass, HandOutput, LayerConfig, Payload, StackBypass, ViewState};
use ensemble_ir::models::{Case, ModelCtx};
use ensemble_layers::{make_stack, STACK_10};
use ensemble_stack::{Engine, FuncEngine};
use ensemble_synth::{synthesize, BypassOutput};
use ensemble_util::{DetRng, Rank, Time};

fn native_engine(rank: u16, n: usize) -> FuncEngine {
    let vs = ViewState::initial(n).for_rank(Rank(rank));
    let mut e = FuncEngine::new(make_stack(STACK_10, &vs, &LayerConfig::default()).unwrap());
    e.init(Time::ZERO);
    e
}

fn model_ctx(n: i64, rank: i64) -> ModelCtx {
    ModelCtx::new(n, rank)
}

/// Differential test: a MACH sender + MACH receiver deliver exactly what
/// a native sender + native receiver deliver, for a random common-case
/// cast workload.
#[test]
fn mach_and_native_deliver_identically() {
    let n = 3usize;
    let mut rng = DetRng::new(0xD1FF);

    // Native pair.
    let mut nat_sender = native_engine(0, n);
    let mut nat_recv = native_engine(1, n);
    // MACH pair.
    let s0 = synthesize(STACK_10, &model_ctx(n as i64, 0)).unwrap();
    let s1 = synthesize(STACK_10, &model_ctx(n as i64, 1)).unwrap();
    let mut mach_sender = StackBypass::compile(&s0, 0).unwrap();
    let mut mach_recv = StackBypass::compile(&s1, 1).unwrap();

    let mut native_deliveries: Vec<Vec<u8>> = Vec::new();
    let mut mach_deliveries: Vec<Vec<u8>> = Vec::new();
    let mut mach_self: Vec<Vec<u8>> = Vec::new();
    let mut native_self: Vec<Vec<u8>> = Vec::new();

    // Stay below the gossip/flow boundaries (the common case).
    for _ in 0..15 {
        let len = 1 + rng.below(32) as usize;
        let mut body = vec![0u8; len];
        rng.fill_bytes(&mut body);
        let payload = Payload::from_slice(&body);

        // Native path.
        let out = nat_sender.inject_dn(
            Time::ZERO,
            ensemble::DnEvent::Cast(ensemble::Msg::data(payload.clone())),
        );
        for ev in &out.app {
            native_self.push(ev.msg().unwrap().payload().gather());
        }
        let wire_msg = out.wire[0].msg().unwrap().clone();
        let b = nat_recv.inject_up(
            Time::ZERO,
            ensemble::UpEvent::Cast {
                origin: Rank(0),
                msg: wire_msg,
            },
        );
        for ev in &b.app {
            if let ensemble::UpEvent::Cast { msg, .. } = ev {
                native_deliveries.push(msg.payload().gather());
            }
        }

        // MACH path.
        match mach_sender.dn_cast(&payload) {
            BypassOutput::Done { wire, deliver } => {
                if let Some((_, p)) = deliver {
                    mach_self.push(p.gather());
                }
                let (_, bytes) = wire.expect("wire");
                match mach_recv.up_cast(0, &bytes) {
                    BypassOutput::Done { deliver, .. } => {
                        mach_deliveries.push(deliver.expect("delivery").1.gather());
                    }
                    other => panic!("receiver fallback: {other:?}"),
                }
            }
            other => panic!("sender fallback: {other:?}"),
        }
    }
    assert_eq!(native_deliveries, mach_deliveries);
    assert_eq!(native_self, mach_self, "self-deliveries agree too");
}

/// The bypass defers buffering; the native stack buffers inline. After a
/// burst, the deferred queue must cover exactly the buffered casts.
#[test]
fn deferred_work_matches_sent_casts() {
    let s0 = synthesize(STACK_10, &model_ctx(3, 0)).unwrap();
    let mut mach = StackBypass::compile(&s0, 0).unwrap();
    let mut sent = 0;
    for i in 0..10u8 {
        if let BypassOutput::Done { .. } = mach.dn_cast(&Payload::from_slice(&[i])) {
            sent += 1;
        }
    }
    // Each cast defers at least the mnak store-own item.
    assert!(mach.deferred_len() >= sent);
    assert!(mach.drain_deferred() >= sent);
}

/// The CCP guard is safe: whatever MACH rejects, the native stack
/// handles (here: out-of-order arrival, which the native stack buffers
/// and NAKs while MACH falls back).
#[test]
fn fallback_inputs_are_handled_by_the_native_stack() {
    let s0 = synthesize(STACK_10, &model_ctx(2, 0)).unwrap();
    let mut mach_sender = StackBypass::compile(&s0, 0).unwrap();
    let s1 = synthesize(STACK_10, &model_ctx(2, 1)).unwrap();
    let mut mach_recv = StackBypass::compile(&s1, 1).unwrap();
    let mut nat_recv = native_engine(1, 2);
    let mut nat_sender = native_engine(0, 2);

    // Produce two wire messages (both native and MACH encodings).
    let mk =
        |sender: &mut StackBypass, body: &[u8]| match sender.dn_cast(&Payload::from_slice(body)) {
            BypassOutput::Done { wire, .. } => wire.unwrap().1,
            other => panic!("{other:?}"),
        };
    let _m1 = mk(&mut mach_sender, b"first");
    let m2 = mk(&mut mach_sender, b"second");

    // MACH rejects the out-of-order delivery…
    assert!(matches!(mach_recv.up_cast(0, &m2), BypassOutput::Fallback));

    // …and the native stack, receiving equivalent traffic out of order,
    // recovers by buffering + NAK.
    let n1 = nat_sender.inject_dn(
        Time::ZERO,
        ensemble::DnEvent::Cast(ensemble::Msg::data(Payload::from_slice(b"first"))),
    );
    let n2 = nat_sender.inject_dn(
        Time::ZERO,
        ensemble::DnEvent::Cast(ensemble::Msg::data(Payload::from_slice(b"second"))),
    );
    let w1 = n1.wire[0].msg().unwrap().clone();
    let w2 = n2.wire[0].msg().unwrap().clone();
    let b = nat_recv.inject_up(
        Time::ZERO,
        ensemble::UpEvent::Cast {
            origin: Rank(0),
            msg: w2,
        },
    );
    assert!(b.app.is_empty(), "buffered");
    assert!(!b.wire.is_empty(), "NAK sent");
    let b = nat_recv.inject_up(
        Time::ZERO,
        ensemble::UpEvent::Cast {
            origin: Rank(0),
            msg: w1,
        },
    );
    assert_eq!(b.app.len(), 2, "both delivered in order after the gap fill");
}

/// HAND and MACH use distinct wire identifiers (their layouts differ —
/// MACH folds the view stamp into constants, HAND carries it), so each
/// must *safely reject* the other's bytes rather than mis-deliver.
#[test]
fn hand_and_mach_reject_each_other_safely() {
    const STACK_4: &[&str] = &["top", "pt2pt", "mnak", "bottom"];
    let s = synthesize(STACK_4, &model_ctx(2, 0)).unwrap();
    let mut mach_a = StackBypass::compile(&s, 0).unwrap();
    let s1 = synthesize(STACK_4, &model_ctx(2, 1)).unwrap();
    let mut mach_b = StackBypass::compile(&s1, 1).unwrap();
    let mut hand_a = HandBypass::new(2, 0);
    let mut hand_b = HandBypass::new(2, 1);

    let payload = Payload::from_slice(b"cross");
    // MACH → MACH works.
    let mach_bytes = match mach_a.dn_send(1, &payload) {
        BypassOutput::Done { wire, .. } => wire.unwrap().1,
        other => panic!("{other:?}"),
    };
    // HAND → HAND works.
    let hand_bytes = match hand_a.dn_send(1, &payload) {
        HandOutput::Wire { bytes, .. } => bytes,
        other => panic!("{other:?}"),
    };
    // Cross-feeding falls back instead of mis-delivering.
    assert!(matches!(
        hand_b.up_send(0, &mach_bytes),
        HandOutput::Fallback
    ));
    assert!(matches!(
        mach_b.up_send(0, &hand_bytes),
        BypassOutput::Fallback
    ));
    // And the intended receivers still accept.
    assert!(matches!(
        mach_b.up_send(0, &mach_bytes),
        BypassOutput::Done { .. }
    ));
    assert!(matches!(
        hand_b.up_send(0, &hand_bytes),
        HandOutput::Deliver(..)
    ));
}

/// A bypass synthesized for a later view rejects traffic from the old
/// view: the folded constants differ, so the wire identifiers differ.
#[test]
fn stale_view_bypass_traffic_is_rejected() {
    const STACK_4: &[&str] = &["top", "pt2pt", "mnak", "bottom"];
    let old = synthesize(STACK_4, &model_ctx(2, 0)).unwrap();
    let mut old_sender = StackBypass::compile(&old, 0).unwrap();
    let mut new_ctx = model_ctx(2, 1);
    new_ctx.view_ltime = 1;
    let newer = synthesize(STACK_4, &new_ctx).unwrap();
    let mut new_recv = StackBypass::compile(&newer, 1).unwrap();
    let bytes = match old_sender.dn_send(1, &Payload::from_slice(b"stale")) {
        BypassOutput::Done { wire, .. } => wire.unwrap().1,
        other => panic!("{other:?}"),
    };
    assert!(matches!(
        new_recv.up_send(0, &bytes),
        BypassOutput::Fallback
    ));
}

/// Every layer theorem used by the 10-layer synthesis is checked against
/// its model — the "proof obligations" of the pipeline, discharged.
#[test]
fn all_theorems_hold_on_randomized_inputs() {
    use ensemble_ir::models::{layer_defs, model};
    use ensemble_synth::{check_layer_theorem, optimize_layer};
    let defs = layer_defs();
    let ctx = model_ctx(3, 0);
    for name in STACK_10 {
        let m = model(name, &ctx).unwrap();
        for case in Case::ALL {
            let th = optimize_layer(&m, case, &defs, true);
            check_layer_theorem(&m, &th, &defs, 100, 0x7E57).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

// ---------------------------------------------------------------------
// MACH ≡ IMP in virtual time: whole groups, driven by the simulator.
// ---------------------------------------------------------------------

use ensemble::sim::{EngineKind, Simulation};
use ensemble::{STACK_VSYNC, VIA_LATENCY};
use ensemble_util::Duration;

/// What an observer of one virtual-time run can see.
struct Observed {
    /// `cast_deliveries` per process.
    casts: Vec<Vec<(u32, Vec<u8>)>>,
    /// Installed views per process.
    views: Vec<Vec<ViewState>>,
    /// Bypass `(hits, misses)` per process.
    bypass: Vec<(u64, u64)>,
}

/// Twelve seed-drawn casts (fewer than any flow or gossip window) from
/// the first `senders` members of a 3-member group over a perfect link,
/// with the bypass on every member when `mach`. With `view_change`,
/// member 2 then crashes, the coordinator suspects it, and the two
/// survivors cast twelve more in the successor view.
fn virtual_run(
    stack: &'static [&'static str],
    seed: u64,
    mach: bool,
    senders: u64,
    view_change: bool,
) -> Observed {
    let (kind, cfg) = (EngineKind::Imp, LayerConfig::fast());
    let mut sim = Simulation::new(3, stack, kind, cfg, VIA_LATENCY, seed).unwrap();
    if mach {
        for id in 0..3 {
            sim.install_bypass(id).unwrap();
        }
    }
    let mut rng = DetRng::new(seed);
    let mut burst = |sim: &mut Simulation, senders: u64| {
        for _ in 0..12 {
            let mut body = vec![0u8; 1 + rng.below(32) as usize];
            rng.fill_bytes(&mut body);
            sim.cast(rng.below(senders) as u32, &body);
            sim.run_for(Duration::from_micros(rng.below(300)));
        }
        sim.run_for(Duration::from_millis(20));
    };
    burst(&mut sim, senders);
    let bypass = (0..3).map(|id| sim.take_bypass_delta(id)).collect();
    if view_change {
        sim.kill(2);
        sim.suspect(0, &[2]);
        sim.run_for(Duration::from_millis(200));
        burst(&mut sim, senders.min(2));
    }
    Observed {
        casts: (0..3).map(|id| sim.cast_deliveries(id)).collect(),
        views: (0..3).map(|id| sim.views(id).to_vec()).collect(),
        bypass,
    }
}

/// The paper's theorem, service-independent and deterministic: a group
/// running the synthesized bypass delivers exactly what the same group
/// delivers through the interpreted stack. Sequencer-only traffic is
/// the pure common case (every cast a bypass hit at every member);
/// any-member traffic adds sender-CCP fallbacks, which must be as
/// invisible.
#[test]
fn mach_equals_imp_in_virtual_time() {
    for seed in 1..=6u64 {
        for senders in [1, 3] {
            let imp = virtual_run(STACK_10, seed, false, senders, false);
            let mach = virtual_run(STACK_10, seed, true, senders, false);
            assert_eq!(
                imp.bypass,
                vec![(0, 0); 3],
                "seed {seed}: IMP ran no bypass"
            );
            if senders == 1 {
                assert_eq!(mach.bypass, vec![(12, 0); 3], "seed {seed}: all hits");
            }
            for r in 0..3 {
                assert_eq!(imp.casts[r].len(), 12, "seed {seed} rank {r}");
                assert_eq!(
                    imp.casts[r], mach.casts[r],
                    "seed {seed}, {senders} sender(s), rank {r}"
                );
            }
        }
    }
}

/// The same through a crash and the view change that excludes it: the
/// bypass is dropped when the successor view installs, and neither the
/// views nor the deliveries tell the two runs apart.
#[test]
fn mach_equals_imp_across_a_view_change() {
    for seed in 1..=6u64 {
        for senders in [1, 3] {
            let imp = virtual_run(STACK_VSYNC, seed, false, senders, true);
            let mach = virtual_run(STACK_VSYNC, seed, true, senders, true);
            assert!(
                mach.bypass[0].0 > 0,
                "seed {seed}: the bypass carried traffic"
            );
            for r in 0..3 {
                let installed = if r == 2 { 1 } else { 2 };
                assert_eq!(imp.views[r].len(), installed, "seed {seed} rank {r}");
                assert_eq!(imp.views[r], mach.views[r], "seed {seed} rank {r}: views");
                assert_eq!(
                    imp.casts[r], mach.casts[r],
                    "seed {seed}, {senders} sender(s), rank {r}"
                );
            }
            assert_eq!(imp.casts[0].len(), 24, "seed {seed}: both bursts delivered");
        }
    }
}

/// Virtual-time reproducer of the blocker in front of running the
/// service on the bypass (ROADMAP direction 2), first seen from outside
/// by the benchmark: with `LayerConfig::default()` the 16th cast on
/// `STACK_10` is `collect`'s gossip turn (`collect_every` = 16), so it
/// fails the sender CCP and takes the engine — and because the bypass's
/// compiled state is never reconciled with the engine's, the counter
/// that failed the check never advances: every later cast misses too.
/// Delivery stays exactly-once and in order throughout. Direction 2
/// flips the second half of this test: hits must resume after the 16th.
#[test]
fn direction2_blocker_bypass_never_recovers_after_the_16th_cast() {
    let (kind, cfg) = (EngineKind::Imp, LayerConfig::default());
    let mut sim = Simulation::new(3, STACK_10, kind, cfg, VIA_LATENCY, 1).unwrap();
    for id in 0..3 {
        sim.install_bypass(id).unwrap();
    }
    for i in 0..48u8 {
        sim.cast(0, &[i]);
        sim.run_for(Duration::from_millis(1));
        let sender = sim.take_bypass_delta(0);
        let receivers = [sim.take_bypass_delta(1), sim.take_bypass_delta(2)];
        if i < 15 {
            assert_eq!((sender, receivers), ((1, 0), [(1, 0); 2]), "cast {i}");
        } else {
            // Engine-format packets are not the receivers' bypass misses.
            assert_eq!((sender, receivers), ((0, 1), [(0, 0); 2]), "cast {i}");
        }
    }
    let expected: Vec<(u32, Vec<u8>)> = (0..48u8).map(|i| (0, vec![i])).collect();
    for r in 0..3 {
        assert_eq!(sim.cast_deliveries(r), expected, "rank {r}");
    }
}
