//! Membership and virtual synchrony: failure detection, flush, view
//! change, exclusion.

use ensemble::sim::{EngineKind, Simulation};
use ensemble::{FaultPlan, LayerConfig, STACK_VSYNC, VIA_LATENCY};
use ensemble_util::{Duration, Endpoint};

fn vsync_sim(n: usize, seed: u64) -> Simulation {
    let (kind, cfg) = (EngineKind::Imp, LayerConfig::fast());
    Simulation::new(n, STACK_VSYNC, kind, cfg, VIA_LATENCY, seed).unwrap()
}

#[test]
fn explicit_suspicion_drives_view_change() {
    let mut sim = vsync_sim(3, 1);
    // The application at the coordinator declares member 2 failed.
    sim.kill(2);
    sim.suspect(0, &[2]);
    sim.run_for(Duration::from_millis(100));
    for r in [0u32, 1] {
        let v = sim.current_view(r);
        assert_eq!(v.nmembers(), 2, "rank {r}: {v:?}");
        assert!(!v.members.contains(&Endpoint::new(2)), "rank {r}");
        assert!(sim.views(r).len() >= 2, "rank {r} installed a new view");
    }
    assert!(sim.blocks(0) > 0, "the group was blocked during the flush");
}

#[test]
fn crashed_member_is_detected_and_excluded() {
    let mut sim = vsync_sim(3, 2);
    // Let the failure detector exchange a few rounds first.
    sim.run_for(Duration::from_millis(30));
    sim.kill(1);
    // The suspect layer needs `suspect_misses` quiet intervals.
    sim.run_for(Duration::from_millis(400));
    for r in [0u32, 2] {
        let v = sim.current_view(r);
        assert_eq!(v.nmembers(), 2, "rank {r}: {:?}", v.members);
        assert!(!v.members.contains(&Endpoint::new(1)), "rank {r}");
    }
}

#[test]
fn coordinator_crash_fails_over() {
    let mut sim = vsync_sim(3, 3);
    sim.run_for(Duration::from_millis(30));
    sim.kill(0);
    sim.run_for(Duration::from_millis(500));
    for r in [1u32, 2] {
        let v = sim.current_view(r);
        assert!(
            !v.members.contains(&Endpoint::new(0)),
            "rank {r} dropped the dead coordinator: {:?}",
            v.members
        );
        assert_eq!(v.nmembers(), 2, "rank {r}");
        // Rank 1 becomes the new coordinator.
        assert_eq!(v.view_id.coord, Endpoint::new(1), "rank {r}");
    }
}

#[test]
fn virtual_synchrony_messages_agree_at_view_change() {
    let mut sim = vsync_sim(3, 4);
    // Traffic before the failure.
    for i in 0..10u8 {
        sim.cast(1, &[i]);
    }
    sim.run_for(Duration::from_millis(20));
    sim.kill(2);
    sim.suspect(0, &[2]);
    sim.run_for(Duration::from_millis(200));
    // Survivors installed the same new view and delivered the same casts
    // before it (virtual synchrony's agreement on the closing view).
    let d0 = sim.cast_deliveries(0);
    let d1 = sim.cast_deliveries(1);
    assert_eq!(d0, d1, "same deliveries at the view boundary");
    assert_eq!(d0.len(), 10);
    assert_eq!(
        sim.current_view(0).view_id,
        sim.current_view(1).view_id,
        "same view installed"
    );
}

#[test]
fn group_continues_after_view_change() {
    let mut sim = vsync_sim(3, 5);
    sim.kill(2);
    sim.suspect(0, &[2]);
    sim.run_for(Duration::from_millis(200));
    assert_eq!(sim.current_view(0).nmembers(), 2);
    // New-view traffic flows (with fresh stacks).
    for i in 0..5u8 {
        sim.cast(0, &[50 + i]);
    }
    sim.run_for(Duration::from_millis(100));
    let d1 = sim.cast_deliveries(1);
    let new_view_msgs: Vec<&(u32, Vec<u8>)> = d1.iter().filter(|(_, b)| b[0] >= 50).collect();
    assert_eq!(new_view_msgs.len(), 5, "traffic in the new view: {d1:?}");
}

#[test]
fn partition_isolates_and_detector_notices() {
    let mut sim = vsync_sim(3, 6);
    sim.run_for(Duration::from_millis(30));
    sim.split(vec![vec![0, 1], vec![2]]);
    sim.run_for(Duration::from_millis(500));
    // The majority side removed the isolated member.
    let v = sim.current_view(0);
    assert!(
        !v.members.contains(&Endpoint::new(2)),
        "partitioned member excluded: {:?}",
        v.members
    );
}

#[test]
fn graceful_leave_is_excluded_like_a_crash() {
    let mut sim = vsync_sim(3, 7);
    sim.run_for(Duration::from_millis(30));
    sim.leave(2);
    assert!(sim.has_exited(2), "the leaver's stack tore down");
    sim.run_for(Duration::from_millis(400));
    for r in [0u32, 1] {
        let v = sim.current_view(r);
        assert!(
            !v.members.contains(&Endpoint::new(2)),
            "rank {r}: {:?}",
            v.members
        );
    }
}

#[test]
fn repeated_failures_shrink_the_view_stepwise() {
    let mut sim = vsync_sim(4, 8);
    sim.run_for(Duration::from_millis(30));
    sim.kill(3);
    sim.suspect(0, &[3]);
    sim.run_for(Duration::from_millis(250));
    assert_eq!(sim.current_view(0).nmembers(), 3);
    sim.kill(2);
    sim.suspect(0, &[2]);
    sim.run_for(Duration::from_millis(250));
    let v = sim.current_view(0).clone();
    assert_eq!(v.nmembers(), 2, "{:?}", v.members);
    assert_eq!(sim.current_view(1).view_id, v.view_id);
    // The survivors still talk.
    sim.cast(0, b"still here");
    sim.run_for(Duration::from_millis(50));
    assert!(sim
        .cast_deliveries(1)
        .iter()
        .any(|(_, b)| b == b"still here"));
}

#[test]
fn vsync_agreement_under_loss_and_crash() {
    // Fault injection: traffic over a genuinely lossy fabric, then a
    // crash; the survivors must agree on the delivered prefix and the
    // new view. (Seed 3 is skipped: its dice drop the coordinator's
    // `NewView` copy to member 1, which is the open hole pinned by
    // `direction1_a_new_view_lost_in_flight_is_never_repaired` below.)
    for seed in [1u64, 2, 4, 5, 6] {
        let (kind, cfg) = (EngineKind::Imp, LayerConfig::fast());
        let latency = Duration::from_micros(15);
        let mut sim = Simulation::new(3, STACK_VSYNC, kind, cfg, latency, seed).unwrap();
        sim.set_plan(FaultPlan::lossy(0.08, 0.02, 0.2));
        for i in 0..8u8 {
            sim.cast(1, &[i]);
            sim.cast(0, &[100 + i]);
            sim.run_for(Duration::from_micros(400));
        }
        sim.run_for(Duration::from_millis(20));
        sim.kill(2);
        sim.suspect(0, &[2]);
        sim.run_for(Duration::from_millis(400));
        assert_eq!(
            sim.cast_deliveries(0),
            sim.cast_deliveries(1),
            "seed {seed}: virtual synchrony agreement"
        );
        assert_eq!(sim.current_view(0).nmembers(), 2, "seed {seed}");
        assert_eq!(
            sim.current_view(0).view_id,
            sim.current_view(1).view_id,
            "seed {seed}"
        );
    }
}

#[test]
fn protocol_stack_switches_at_the_view_boundary() {
    // The paper's ref. [25]: Ensemble supports switching protocol stacks
    // on the fly; the view change is the safe switching point. Here the
    // group upgrades to a signing stack when the failed member leaves.
    const SIGNED_VSYNC: &[&str] = &[
        "top",
        "partial_appl",
        "total",
        "local",
        "gmp",
        "sync",
        "elect",
        "suspect",
        "sign",
        "frag",
        "collect",
        "pt2ptw",
        "mflow",
        "pt2pt",
        "mnak",
        "bottom",
    ];
    let mut sim = vsync_sim(3, 9);
    sim.run_for(Duration::from_millis(20));
    sim.cast(1, b"before");
    sim.run_for(Duration::from_millis(10));
    sim.switch_stack_on_next_view(SIGNED_VSYNC);
    sim.kill(2);
    sim.suspect(0, &[2]);
    sim.run_for(Duration::from_millis(300));
    assert_eq!(sim.current_view(0).nmembers(), 2);
    assert_eq!(sim.stack_names(), SIGNED_VSYNC, "switched at the boundary");
    // Traffic flows through the new (signed) stack.
    sim.cast(0, b"after-switch");
    sim.run_for(Duration::from_millis(50));
    let d1 = sim.cast_deliveries(1);
    assert!(
        d1.iter().any(|(_, b)| b == b"after-switch"),
        "new-stack traffic delivered: {d1:?}"
    );
}

#[test]
fn casts_inside_the_flush_window_replay_once_in_the_successor_view() {
    // A cast entering the stack after its `FlushOk` was reported can
    // fall out of the agreed cut. `GroupCore` parks application traffic
    // while the stack is blocked and replays it through the fresh stack
    // of the next view; the simulator drives the same machine, so the
    // same holds in virtual time.
    let mut sim = vsync_sim(3, 10);
    sim.run_for(Duration::from_millis(30));
    sim.kill(2);
    sim.suspect(0, &[2]);
    assert_eq!(sim.blocks(0), 1, "the coordinator blocks at once");
    for i in 0..5u8 {
        sim.cast(0, &[i]);
    }
    // Member 1 blocks when the coordinator's flush reaches it.
    while sim.blocks(1) == 0 {
        assert!(sim.step(), "the flush must reach member 1");
    }
    for i in 0..5u8 {
        sim.cast(1, &[100 + i]);
    }
    // Nothing cast inside the window is delivered in the closing view.
    while sim.views(0).len() < 2 || sim.views(1).len() < 2 {
        assert!(sim.step(), "the view change must complete");
        for r in [0u32, 1] {
            if sim.views(r).len() == 1 {
                assert!(sim.cast_deliveries(r).is_empty(), "rank {r}: old view");
            }
        }
    }
    sim.run_for(Duration::from_millis(100));
    let from = |log: &[(u32, Vec<u8>)], origin: u32| -> Vec<u8> {
        let of_origin = log.iter().filter(|(o, _)| *o == origin);
        of_origin.map(|(_, b)| b[0]).collect()
    };
    for r in [0u32, 1] {
        assert_eq!(sim.current_view(r).nmembers(), 2, "rank {r}");
        let log = sim.cast_deliveries(r);
        assert_eq!(log.len(), 10, "rank {r}: exactly once: {log:?}");
        assert_eq!(from(&log, 0), [0, 1, 2, 3, 4], "rank {r}: in order");
        assert_eq!(from(&log, 1), [100, 101, 102, 103, 104], "rank {r}");
    }
    assert_eq!(sim.cast_deliveries(0), sim.cast_deliveries(1), "one order");
}

// ---------------------------------------------------------------------
// ROADMAP direction 1 step 1: the schedule `kv_chaos` fails on, replayed
// where a seed replays exactly.
// ---------------------------------------------------------------------

/// What [`heal_mid_flush`] does, for failure messages.
const SCRIPT: &str = "3 members, STACK_VSYNC, LayerConfig::fast(), VIA latency, \
    FaultPlan::lossy(0, 0.02, 0.2); member 0 casts every 5 µs + below(1 µs) drawn from \
    DetRng(seed), throughout; after 200 casts split [[0,1],[2]] and stall 2; after 100 more \
    suspect(0,[2]); `offset` later heal() + merge(0,[ep2]); 100 more casts; 10 ms to settle; \
    member 2 is handed (install_external_view) the first view of member 0's that has it back";

/// One `(seed, offset)` point of the schedule in [`SCRIPT`]: the network
/// splits `{0,1} | {2}` under a sender fast enough to fill `mflow`'s
/// window once member 2's credit stops coming back, member 0 suspects
/// member 2, and `offset` into that flush the network heals and member 0
/// is asked to merge member 2 back. No copy is ever dropped — the plan
/// only duplicates and reorders. Returns the first violated property of
/// (i) every member of member 0's final view installed it, (ii) members
/// 0 and 1 saw the same views and delivered the same casts in each,
/// (iii) per-sender FIFO across the boundaries.
fn heal_mid_flush(seed: u64, offset: Duration, mflow_window: u64) -> Result<(), String> {
    let cfg = LayerConfig {
        mflow_window,
        ..LayerConfig::fast()
    };
    let mut sim = Simulation::new(3, STACK_VSYNC, EngineKind::Imp, cfg, VIA_LATENCY, seed).unwrap();
    sim.set_plan(FaultPlan::lossy(0.0, 0.02, 0.2));
    let mut jitter = ensemble_util::DetRng::new(seed);
    let mut sent = 0u32;
    let mut granted = false;
    // Runs for `d`, then plays the control plane's merge grant once due.
    let mut run = |sim: &mut Simulation, d: Duration| {
        sim.run_for(d);
        let v = sim.current_view(0);
        if let (false, Some(r)) = (granted, v.rank_of(Endpoint::new(2))) {
            if v.view_id.ltime > 0 {
                let grant = v.for_rank(r);
                sim.install_external_view(2, grant);
                granted = true;
            }
        }
    };
    let mut cast = |sim: &mut Simulation, n: u32| {
        for _ in 0..n {
            sim.cast(0, &sent.to_le_bytes());
            sent += 1;
            run(sim, Duration(5_000 + jitter.below(1_000)));
        }
    };
    cast(&mut sim, 200);
    sim.split(vec![vec![0, 1], vec![2]]);
    sim.set_stalled(2, true);
    cast(&mut sim, 100);
    sim.suspect(0, &[2]);
    sim.run_for(offset);
    sim.heal();
    sim.merge(0, &[Endpoint::new(2)]);
    cast(&mut sim, 100);
    for _ in 0..200 {
        run(&mut sim, Duration::from_micros(50));
    }

    let last = sim.current_view(0).clone();
    for m in &last.members {
        let theirs = sim.current_view(m.id()).view_id;
        if theirs != last.view_id {
            return Err(format!("(i) {m} is in {theirs:?}, not {:?}", last.view_id));
        }
    }
    if !last.members.contains(&Endpoint::new(2)) {
        return Err(format!("(i) ep2 was not merged back: {:?}", last.members));
    }
    let ids = |r| -> Vec<_> { sim.views(r).iter().map(|v| v.view_id).collect() };
    if ids(0) != ids(1) {
        return Err(format!("(ii) views differ: {:?} vs {:?}", ids(0), ids(1)));
    }
    for k in 0..sim.views(0).len() - 1 {
        let (a, b) = (sim.casts_in_view(0, k), sim.casts_in_view(1, k));
        if a != b {
            let (a, b) = (a.len(), b.len());
            return Err(format!("(ii) view #{k}: ep0 delivered {a} casts, ep1 {b}"));
        }
    }
    for r in 0..3u32 {
        let seq: Vec<u32> = sim
            .cast_deliveries(r)
            .iter()
            .map(|(_, b)| u32::from_le_bytes(b[..4].try_into().unwrap()))
            .collect();
        // Gap-free at the members never cut off; never backwards at ep2.
        let ok = |w: &[u32]| {
            if r == 2 {
                w[0] < w[1]
            } else {
                w[0] + 1 == w[1]
            }
        };
        if let Some(w) = seq.windows(2).find(|w| !ok(w)) {
            return Err(format!("(iii) ep{r}: {} then {}", w[0], w[1]));
        }
        if r != 2 && seq.len() as u32 != sent {
            return Err(format!("(iii) ep{r}: {} of {sent} casts", seq.len()));
        }
    }
    Ok(())
}

/// The `(seed, offset)` points the sweep visits, in order.
fn sweep_points() -> impl Iterator<Item = (u64, Duration)> {
    let offsets = [0, 10, 20, 30].map(Duration::from_micros);
    (1..=200u64).flat_map(move |seed| offsets.map(|offset| (seed, offset)))
}

/// The first point of [`sweep_points`] that violates a property, pinned
/// as present behaviour: member 0 installs the successor view, member 1
/// never does, and no copy was dropped on the way. Virtual-time sibling
/// of ROADMAP's finding (b) for `kv_chaos`. Direction 1 step 2 flips
/// this test (and the sweep below) to `Ok(())`.
#[test]
fn direction1_heal_mid_flush_strands_member_1_in_the_old_view() {
    let (seed, offset) = (2, Duration::from_micros(20));
    println!("seed {seed}, offset {offset:?}; script: {SCRIPT}");
    let window = LayerConfig::default().mflow_window;
    assert_eq!(
        heal_mid_flush(seed, offset, window),
        Err("(i) ep1 is in ViewId { ltime: 0, coord: ep0 }, \
             not ViewId { ltime: 1, coord: ep0 }"
            .to_string())
    );
    // With a window too large to fill, the same point keeps all three
    // properties: what strands member 1 sits behind `mflow`'s credit.
    assert_eq!(heal_mid_flush(seed, offset, 1 << 40), Ok(()));
}

/// 200 seeds × 4 offsets across the flush window (it takes two to three
/// link latencies). What fails, at about one point in ten, is liveness of
/// the view change itself — property (i) — and the pinned point above is
/// the first; wherever the view change completes, delivery-set agreement
/// and FIFO hold.
#[test]
fn heal_mid_flush_sweep_keeps_agreement_and_fifo_but_strands_members() {
    let window = LayerConfig::default().mflow_window;
    let mut stranded = Vec::new();
    for (seed, offset) in sweep_points() {
        match heal_mid_flush(seed, offset, window) {
            Ok(()) => {}
            Err(e) if e.starts_with("(i)") => stranded.push((seed, offset)),
            Err(e) => panic!("seed {seed}, offset {offset:?}: {e}\nscript: {SCRIPT}"),
        }
    }
    println!(
        "{} of {} points strand a member; script: {SCRIPT}",
        stranded.len(),
        sweep_points().count()
    );
    assert_eq!(stranded.first(), Some(&(2, Duration::from_micros(20))));
}

/// The dice-free core of the same hole: the coordinator announces the
/// successor view and swaps its stack in the same step, so when the one
/// copy of `NewView` bound for member 1 is lost in flight nobody is left
/// to retransmit it. Member 1 stays in the old view for good and the
/// coordinator ends up excluding it. Present behaviour; direction 1
/// step 2 flips it.
#[test]
fn direction1_a_new_view_lost_in_flight_is_never_repaired() {
    let mut sim = vsync_sim(3, 1);
    sim.run_for(Duration::from_millis(30));
    sim.kill(2);
    sim.suspect(0, &[2]);
    while sim.views(0).len() < 2 {
        assert!(sim.step(), "the coordinator installs the successor view");
    }
    // The announcement is in flight: cut 0→1 for exactly one latency.
    sim.drop_link(0, 1);
    sim.run_for(VIA_LATENCY);
    sim.restore_link(0, 1);
    assert!(sim.fault_counts().link_drops > 0);
    sim.run_for(Duration::from_millis(12));
    assert_eq!(sim.views(1).len(), 1, "24 retransmission timeouts later");
    sim.run_for(Duration::from_millis(400));
    assert_eq!(sim.views(1).len(), 1, "member 1 never leaves the old view");
    assert_eq!(sim.current_view(0).nmembers(), 1, "member 0 ends up alone");
}
