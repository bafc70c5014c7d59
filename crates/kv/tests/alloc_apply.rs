//! What applying an operation costs the allocator, as a count that
//! repeats.
//!
//! Under a counting global allocator that keeps one tally per thread,
//! each test applies operations to a loaded [`KvStore`] the way the
//! apply loop does: the cast is parsed where it lies ([`CastView`]) and
//! each operation applied from that view ([`KvStore::apply_ref`]).
//!
//! Before operations stayed bytes, the apply loop decoded every cast
//! into owned `KvOp`s (a block per key and per value) and the store
//! cloned key and value again on every write: a `Set` to a key that
//! already existed allocated two blocks in the store alone. Now it
//! overwrites the value's buffer in place and allocates nothing, and
//! neither does parsing the cast.

use ensemble_kv::proto::{encode_cast_batch, CastView, OpRef};
use ensemble_kv::{KvOp, KvResult, KvStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

/// Blocks the calling thread has asked for so far.
fn blocks() -> u64 {
    BLOCKS.with(Cell::get)
}

struct Counting;

impl Counting {
    fn note() {
        // A const-initialized `Cell` needs no destructor: reading it
        // never allocates, not even on a thread's way out.
        let _ = BLOCKS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is thread-local and the
// methods neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note();
        // SAFETY: `layout` is the caller's, passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A store holding `k0` .. `k63`, each bound to 256 bytes.
fn loaded() -> KvStore {
    let mut store = KvStore::new();
    for k in 0..64 {
        store.apply(&KvOp::Set(format!("k{k}").into_bytes(), vec![k as u8; 256]));
    }
    store
}

#[test]
fn a_set_to_an_existing_key_allocates_nothing() {
    let mut store = loaded();
    let value = vec![7u8; 256];
    let before = blocks();
    for answer in [false, true] {
        let result = store.apply_ref(OpRef::Set(b"k3", &value), answer);
        assert_eq!(result.is_some(), answer);
    }
    assert_eq!(blocks() - before, 0, "blocks per Set to an existing key");
    assert_eq!(store.peek(b"k3"), Some(&value[..]));
    // The owned entry point is the same path.
    let op = KvOp::Set(b"k4".to_vec(), value.clone());
    let before = blocks();
    assert_eq!(store.apply(&op), KvResult::Applied { ci: 67 });
    assert_eq!(blocks() - before, 0, "blocks per owned Set");
}

#[test]
fn a_cast_of_writes_to_existing_keys_is_parsed_and_applied_without_allocating() {
    let mut store = loaded();
    let ops: Vec<KvOp> = (0..32)
        .map(|i| {
            let key = format!("k{}", i % 64).into_bytes();
            match i % 3 {
                0 => KvOp::Set(key, vec![i as u8; 256]),
                1 => KvOp::Cas {
                    expect: store.peek(&key).map(<[u8]>::to_vec),
                    key,
                    new: vec![i as u8; 200],
                },
                _ => KvOp::Get(key),
            }
        })
        .collect();
    let bytes = encode_cast_batch(2, 0, &ops);
    let before = blocks();
    let cast = CastView::parse(&bytes).expect("own cast parses");
    assert_eq!(cast.len(), 32);
    // Another replica's cast: nobody here waits on a result, so a GET
    // does not copy its value out.
    for (_, op, _) in cast.ops() {
        assert_eq!(store.apply_ref(op, false), None);
    }
    assert_eq!(blocks() - before, 0, "blocks per cast of 32");
}
