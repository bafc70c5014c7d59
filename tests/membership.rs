//! Membership and virtual synchrony: failure detection, flush, view
//! change, exclusion.

use ensemble::sim::{EngineKind, Simulation};
use ensemble::{LayerConfig, PartitionModel, PerfectModel, STACK_VSYNC};
use ensemble_util::{Duration, Endpoint};

fn vsync_sim(n: usize, seed: u64) -> Simulation<PartitionModel<PerfectModel>> {
    Simulation::new(
        n,
        STACK_VSYNC,
        EngineKind::Imp,
        LayerConfig::fast(),
        PartitionModel::new(PerfectModel::via()),
        seed,
    )
    .unwrap()
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
    sim.model_mut().isolate(&[Endpoint::new(2)]);
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
    // new view.
    for seed in [1u64, 2, 3, 4, 5] {
        let mut sim = Simulation::new(
            3,
            STACK_VSYNC,
            EngineKind::Imp,
            LayerConfig::fast(),
            PartitionModel::new(ensemble::LossyModel {
                latency: Duration::from_micros(15),
                jitter: Duration::from_micros(30),
                drop_p: 0.08,
                dup_p: 0.02,
            }),
            seed,
        )
        .unwrap();
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
