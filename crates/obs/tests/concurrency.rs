//! Flight-recorder behaviour under concurrent writers and drainers.
//!
//! The recorder's contract: one writer per ring, held as a handle the
//! recorder hands out once; any thread may drain at any time, and no
//! observer ever sees a torn event — every drained event is exactly one
//! that some writer recorded, field for field.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ensemble_obs::{CcpFailure, Direction, Event, EventKind, Recorder, RingWriter, Tag};

/// A writer's events carry a checkable invariant: `aux` is a function of
/// (`group`, `seqno`), so any torn or mixed-up event fails validation.
fn stamp(tag: Tag, writer: u32, i: u64) -> Event {
    Event {
        t_ns: i,
        layer: tag,
        kind: EventKind::Cast,
        dir: Direction::Dn,
        group: writer,
        seqno: i,
        ccp: CcpFailure::None,
        aux: (writer as u64) << 32 ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    }
}

fn check(group: u32, seqno: u64, aux: u64) -> bool {
    aux == (group as u64) << 32 ^ seqno.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[test]
fn one_writer_per_shard_with_concurrent_drainer_sees_no_torn_events() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 20_000;

    let rec = Arc::new(Recorder::new(WRITERS, 1024));
    let tag = rec.register("top");
    let stop = Arc::new(AtomicBool::new(false));

    // A drainer races the writers the whole time, validating as it goes.
    let drainer = {
        let rec = Arc::clone(&rec);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen = 0u64;
            while !stop.load(Ordering::Acquire) {
                for e in rec.drain() {
                    assert!(
                        check(e.group, e.seqno, e.aux),
                        "torn event: group={} seqno={} aux={:#x}",
                        e.group,
                        e.seqno,
                        e.aux
                    );
                    seen += 1;
                }
            }
            seen
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let mut ring = rec.writer(w).expect("each ring's one writer");
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    ring.record(&stamp(tag, w as u32, i));
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let live_seen = drainer.join().unwrap();

    // Final sweep: whatever the live drainer missed is still intact.
    let mut final_seen = 0u64;
    for e in rec.drain() {
        assert!(check(e.group, e.seqno, e.aux), "torn event in final drain");
        final_seen += 1;
    }

    let total = WRITERS as u64 * PER_WRITER;
    assert_eq!(rec.recorded(), total, "every record() call accounted for");
    assert_eq!(
        live_seen + final_seen + rec.overwritten(),
        total,
        "drained + overwritten covers every recorded event"
    );
}

#[test]
fn threads_racing_for_one_ring_get_one_writer_between_them() {
    const THREADS: usize = 8;
    let rec = Arc::new(Recorder::new(1, 64));
    let takers: Vec<_> = (0..THREADS)
        .map(|_| {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || rec.writer(0))
        })
        .collect();
    let won: Vec<RingWriter> = takers
        .into_iter()
        .filter_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(won.len(), 1, "exactly one thread holds the ring's writer");
}

#[test]
fn wrap_keeps_newest_under_sustained_overload() {
    // Tiny ring, big burst: the survivors must be exactly the newest.
    let rec = Recorder::new(1, 64);
    let mut ring = rec.writer(0).unwrap();
    let tag = rec.register("top");
    for i in 0..10_000u64 {
        ring.record(&stamp(tag, 0, i));
    }
    let events = rec.drain();
    assert_eq!(events.len(), 64);
    let seqs: Vec<u64> = events.iter().map(|e| e.seqno).collect();
    assert_eq!(seqs, (10_000 - 64..10_000).collect::<Vec<_>>());
    assert_eq!(rec.overwritten(), 10_000 - 64);
}
