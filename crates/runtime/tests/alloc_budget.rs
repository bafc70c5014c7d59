//! What one cast costs the allocator, as a count that repeats.
//!
//! Under a counting global allocator that keeps one tally per thread (so
//! the two tests of this binary may run at once), each test drives a
//! two-member `STACK_10` group on its own thread.
//!
//! The 4 KiB test: member 0 casts 4 096 bytes
//! (three fragments at the default `frag_max`), every datagram crosses a
//! [`LoopbackHub`] to member 1's `deliver_packet`, and whatever either
//! member answers goes back the same way until both are quiet. It drives
//! the members as a shard does: each packet is given to the hub by value
//! and each action list goes back to the core that returned it. glibc's
//! thread cache stops near 1 KiB, so every larger block is an arena-lock
//! round trip once shards run on threads: the budget is on those.
//!
//! Before the data path owned its buffers a cast made exactly 25 such
//! allocations among 245, asking for 73 015 bytes in all. Once it copied
//! each boundary only once it made 9 among 61 (32 402 bytes): a heap
//! envelope per fragment, slid down again by the receiver, frame vectors
//! cloned and regrown per fragment, and a fresh engine boundary and
//! action list per call. Now the hub moves the packet itself, a message's
//! frame vector is sized once for the stack's depth, and the engine and
//! the core refill the vectors handed back to them: 6 among 42 — the copy
//! in, a marshal buffer per fragment, one `gather()` per delivery (the
//! sender's own and the receiver's) — and 23 808 bytes. The test fails
//! above 6 large blocks, 45 blocks or 26 000 bytes.
//!
//! The 4-byte test runs the benchmark's `cast-small` configuration: the
//! MACH bypass installed on both members, flow-control windows and the
//! gossip period pushed out so every CCP holds. It counts every block by
//! stage. Before the fast path stopped allocating what nobody keeps, a
//! cast made 17: the header's field vectors on both sides, a gathered
//! copy before encoding, a `String` tag per deferred item, a second
//! decode in the receive triage, a payload built from the
//! received body only to be gathered again, and a heap envelope that the
//! receiving shard freed. Now it makes 8, each one kept past the call
//! that made it: the copy in (and its shared handle), the wire packet,
//! the sender's own delivery, the receiver's packet body and delivery,
//! and each side's action list (this test keeps its lists and lends its
//! packets). The envelope rides in the hub's queue slot.

use ensemble_event::ViewState;
use ensemble_layers::{LayerConfig, STACK_10};
use ensemble_runtime::{Action, Delivery, GroupCore, LoopbackHub, LoopbackTransport, Transport};
use ensemble_stack::EngineKind;
use ensemble_util::{Rank, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Blocks at least this large miss the allocator's per-thread cache.
const LARGE: usize = 1024;
const CAST_BYTES: usize = 4096;

/// What one thread has asked of the allocator.
#[derive(Clone, Copy)]
struct Counts {
    blocks: u64,
    large: u64,
    bytes: u64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            blocks: 0,
            large: 0,
            bytes: 0,
        })
    };
}

/// The calling thread's tally so far.
fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

struct Counting;

impl Counting {
    fn note(size: usize) {
        // A const-initialized `Cell` needs no destructor: reading it
        // never allocates, not even on a thread's way out.
        let _ = COUNTS.try_with(|c| {
            let mut n = c.get();
            n.blocks += 1;
            n.bytes += size as u64;
            n.large += u64::from(size >= LARGE);
            c.set(n);
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics and the
// methods neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: `layout` is the caller's, passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

struct Member {
    core: GroupCore,
    link: LoopbackTransport,
}

/// Carries out `actions` of member `from`, then delivers whatever is in
/// flight until nobody has anything left to send. As the shard does, each
/// packet is given to the transport and each emptied list handed back to
/// the core that made it. Returns the cast bodies delivered, per member.
fn settle(members: &mut [Member], from: usize, actions: Vec<Action>, t: &mut u64) -> [usize; 2] {
    let mut delivered = [0; 2];
    let mut apply = |members: &mut [Member], who: usize, mut actions: Vec<Action>, t: u64| {
        for a in actions.drain(..) {
            match a {
                Action::Transmit(pkt) => members[who].link.send_owned_at(pkt, t).unwrap(),
                Action::Deliver(Delivery::Cast { bytes, .. }) => {
                    assert_eq!(bytes.len(), CAST_BYTES);
                    assert!(bytes.iter().all(|&b| b == 0xAB));
                    delivered[who] += 1;
                }
                _ => {}
            }
        }
        members[who].core.recycle_actions(actions);
    };
    apply(members, from, actions, *t);
    loop {
        let mut quiet = true;
        for who in 0..members.len() {
            while let Some(pkt) = members[who].link.try_recv().unwrap() {
                quiet = false;
                *t += 1_000;
                let actions = members[who].core.deliver_packet(Time(*t), pkt);
                apply(members, who, actions, *t);
            }
        }
        if quiet {
            return delivered;
        }
    }
}

#[test]
fn a_4k_cast_stays_inside_its_allocation_budget() {
    let hub = LoopbackHub::new(22);
    let vs = ViewState::initial(2);
    let mut t = 0u64;
    let mut members = Vec::new();
    let mut boot = Vec::new();
    for r in 0..2 {
        let (core, actions) = GroupCore::new(
            STACK_10,
            vs.for_rank(Rank(r)),
            EngineKind::Imp,
            LayerConfig::default(),
            Time::ZERO,
        )
        .unwrap();
        boot.push(actions);
        members.push(Member {
            core,
            link: hub.attach(vs.members[r as usize]),
        });
    }
    for (r, actions) in boot.into_iter().enumerate() {
        settle(&mut members, r, actions, &mut t);
    }

    let body = vec![0xABu8; CAST_BYTES];
    let cast = |members: &mut [Member], t: &mut u64| {
        *t += 1_000;
        let actions = members[0].core.cast(Time(*t), &body);
        let delivered = settle(members, 0, actions, t);
        assert_eq!(delivered, [1, 1], "one cast, one delivery each");
    };
    // Steady state: queues, maps and the engine's buffers have grown.
    for _ in 0..256 {
        cast(&mut members, &mut t);
    }
    const CASTS: u64 = 256;
    let c0 = counts();
    for _ in 0..CASTS {
        cast(&mut members, &mut t);
    }
    let per = |n: fn(Counts) -> u64| (n(counts()) - n(c0)) as f64 / CASTS as f64;
    let (blocks, large, bytes) = (per(|c| c.blocks), per(|c| c.large), per(|c| c.bytes));
    println!(
        "per 4 KiB cast: {blocks:.2} blocks, {large:.2} of them >= {LARGE} B, {bytes:.0} bytes allocated"
    );
    assert!(
        large <= 6.0,
        "{large:.2} allocations >= {LARGE} B per cast (budget 6)"
    );
    assert!(blocks <= 45.0, "{blocks:.2} blocks per cast (budget 45)");
    assert!(
        bytes <= 26_000.0,
        "{bytes:.0} bytes allocated per cast (budget 26 000)"
    );
}

/// Blocks the calling thread allocates while `f` runs, and its result.
fn blocks_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = counts().blocks;
    let out = f();
    (counts().blocks - before, out)
}

#[test]
fn a_4_byte_bypass_cast_makes_at_most_8_blocks() {
    const BODY: &[u8] = b"ping";
    // `cast-small`'s layers: windows and the gossip period pushed out.
    let cfg = LayerConfig {
        pt2pt_window: 1 << 40,
        mflow_window: 1 << 40,
        collect_every: 1 << 40,
        ..LayerConfig::default()
    };
    let hub = LoopbackHub::new(29);
    let vs = ViewState::initial(2);
    let mut t = 0u64;
    let mut members = Vec::new();
    let mut boot = Vec::new();
    for r in 0..2 {
        let (mut core, actions) = GroupCore::new(
            STACK_10,
            vs.for_rank(Rank(r)),
            EngineKind::Imp,
            cfg.clone(),
            Time::ZERO,
        )
        .unwrap();
        core.install_bypass().unwrap();
        boot.push(actions);
        members.push(Member {
            core,
            link: hub.attach(vs.members[r as usize]),
        });
    }
    for (r, actions) in boot.into_iter().enumerate() {
        settle(&mut members, r, actions, &mut t);
    }

    // Blocks per stage: cast, send_at, try_recv, deliver_packet.
    let cast = |members: &mut [Member], t: &mut u64| -> [u64; 4] {
        *t += 1_000;
        let (cast, actions) = blocks_in(|| members[0].core.cast(Time(*t), BODY));
        let mut send_at = 0;
        let mut own = 0;
        for a in actions {
            match a {
                Action::Transmit(pkt) => {
                    send_at += blocks_in(|| members[0].link.send_at(&pkt, *t).unwrap()).0;
                }
                Action::Deliver(Delivery::Cast { bytes, .. }) => {
                    assert_eq!(bytes, BODY);
                    own += 1;
                }
                other => panic!("a bypass cast made {other:?}"),
            }
        }
        assert_eq!(own, 1, "the sender delivers its own cast");
        let (try_recv, pkt) = blocks_in(|| members[1].link.try_recv().unwrap());
        let pkt = pkt.expect("one datagram in flight");
        *t += 1_000;
        let (deliver, actions) = blocks_in(|| members[1].core.deliver_packet(Time(*t), pkt));
        match &actions[..] {
            [Action::Deliver(Delivery::Cast { bytes, .. })] => assert_eq!(bytes, BODY),
            other => panic!("the receiver's bypass made {other:?}"),
        }
        assert!(members[1].link.try_recv().unwrap().is_none());
        [cast, send_at, try_recv, deliver]
    };
    // Steady state: queues and the deferred-work batch have cycled.
    for _ in 0..256 {
        cast(&mut members, &mut t);
    }
    const CASTS: u64 = 256;
    let mut stages = [0u64; 4];
    for _ in 0..CASTS {
        for (sum, n) in stages.iter_mut().zip(cast(&mut members, &mut t)) {
            *sum += n;
        }
    }
    let per = stages.map(|n| n as f64 / CASTS as f64);
    let total: f64 = per.iter().sum();
    println!(
        "per 4-byte cast: {total:.2} blocks (cast {:.2}, send_at {:.2}, try_recv {:.2}, deliver_packet {:.2})",
        per[0], per[1], per[2], per[3]
    );
    assert!(total <= 8.0, "{total:.2} blocks per 4-byte cast (budget 8)");
    assert_eq!(
        per[1], 0.0,
        "a datagram that fits the hub's slot allocates nothing"
    );
}
