//! What one 4 KiB cast costs the allocator, as a count that repeats.
//!
//! One test in its own process, on one thread, under a counting global
//! allocator: member 0 of a two-member `STACK_10` group casts 4 096 bytes
//! (three fragments at the default `frag_max`), every datagram crosses a
//! [`LoopbackHub`] to member 1's `deliver_packet`, and whatever either
//! member answers goes back the same way until both are quiet. glibc's
//! thread cache stops near 1 KiB, so every larger block is an arena-lock
//! round trip once shards run on threads: the budget is on those.
//!
//! Before the data path owned its buffers (ISSUE 22) a cast made exactly
//! 25 such allocations among 245, asking for 73 015 bytes in all. Now it
//! makes 9 among 61 — the copy in, a marshal buffer and an envelope per
//! fragment, one `gather()` per delivery (the sender's own and the
//! receiver's) — and asks for 32 429 bytes, a third of them in the small
//! blocks (frame vectors, boundaries, action lists) that are the layers'.

use ensemble_event::ViewState;
use ensemble_layers::{LayerConfig, STACK_10};
use ensemble_runtime::{Action, Delivery, GroupCore, LoopbackHub, LoopbackTransport, Transport};
use ensemble_stack::EngineKind;
use ensemble_util::{Rank, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Blocks at least this large miss the allocator's per-thread cache.
const LARGE: usize = 1024;
const CAST_BYTES: usize = 4096;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

impl Counting {
    fn note(size: usize) {
        BYTES.fetch_add(size as u64, Relaxed);
        if size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Relaxed);
        }
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
/// flight until nobody has anything left to send. Returns the cast bodies
/// delivered, per member.
fn settle(members: &mut [Member], from: usize, actions: Vec<Action>, t: &mut u64) -> [usize; 2] {
    let mut delivered = [0; 2];
    let mut apply = |members: &mut [Member], who: usize, actions: Vec<Action>, t: u64| {
        for a in actions {
            match a {
                Action::Transmit(pkt) => members[who].link.send_at(&pkt, t).unwrap(),
                Action::Deliver(Delivery::Cast { bytes, .. }) => {
                    assert_eq!(bytes.len(), CAST_BYTES);
                    assert!(bytes.iter().all(|&b| b == 0xAB));
                    delivered[who] += 1;
                }
                _ => {}
            }
        }
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
    let (allocs0, bytes0) = (LARGE_ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    for _ in 0..CASTS {
        cast(&mut members, &mut t);
    }
    let large = (LARGE_ALLOCS.load(Relaxed) - allocs0) as f64 / CASTS as f64;
    let bytes = (BYTES.load(Relaxed) - bytes0) as f64 / CASTS as f64;
    println!("per 4 KiB cast: {large:.2} allocations >= {LARGE} B, {bytes:.0} bytes allocated");
    assert!(
        large <= 9.0,
        "{large:.2} allocations >= {LARGE} B per cast (budget 9)"
    );
    assert!(
        bytes <= 8.0 * CAST_BYTES as f64,
        "{bytes:.0} bytes allocated per cast (budget 8 x {CAST_BYTES})"
    );
}
