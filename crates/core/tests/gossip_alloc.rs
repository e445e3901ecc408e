//! Heap allocations of one gossip round, counted — not timed.
//!
//! A gossip payload is allocated by its sender and freed by its receiver,
//! usually on another pool worker, so every extra (re)allocation per
//! message is cross-thread allocator traffic: growing `delta_since`'s
//! payload entry by entry (~7 reallocations per 235-entry message) once
//! cost `scenario_delta` more host time than the merge itself and kept a
//! second worker from buying anything. This suite pins the counts that fix
//! rests on, with a counting global allocator: one allocation per non-empty
//! payload, none for an empty one, none for a merge that learns no new
//! rank, at most one growth of the slot run for a merge that does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ulba_core::db::{WirDatabase, WirEntry};
use ulba_core::gossip::{GossipOutbox, GossipWire};

thread_local! {
    /// Allocations and reallocations made by this thread (the test harness
    /// runs the tests of this file on parallel threads).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` without a destructor, so touching
// it neither allocates nor outlives its thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and how many times it (re)allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

const KNOWN: [usize; 3] = [10, 256, 4096];
const DELTA: GossipWire = GossipWire::Delta { full_every: 32 };
const PEER: usize = 1;

/// A database of `2 * known` ranks that has heard of the even ones.
fn half_known(known: usize) -> WirDatabase {
    let mut db = WirDatabase::new(2 * known);
    for i in 0..known {
        db.update(WirEntry { rank: 2 * i, wir: 1.0, iteration: 0 });
    }
    db
}

#[test]
fn a_payload_is_one_allocation_of_exactly_its_length() {
    for known in KNOWN {
        let mut db = half_known(known);
        let mut outbox = GossipOutbox::new();
        // First contact: creates the peer's watermark (the map may grow).
        assert_eq!(outbox.message(&db, PEER, 1, DELTA).len(), known);

        // Nothing changed since: an empty delta, and no allocation at all.
        let (payload, allocations) = counted(|| outbox.message(&db, PEER, 2, DELTA));
        assert!(payload.is_empty());
        assert_eq!(allocations, 0, "known {known}: empty delta");

        // A third of the entries change: the filtered path.
        for i in (0..known).step_by(3) {
            db.update(WirEntry { rank: 2 * i, wir: 2.0, iteration: 1 });
        }
        let (payload, allocations) = counted(|| outbox.message(&db, PEER, 3, DELTA));
        assert_eq!(payload.len(), known.div_ceil(3));
        assert_eq!(payload.capacity(), payload.len(), "known {known}: delta");
        assert_eq!(allocations, 1, "known {known}: delta");

        // An anti-entropy round and the full wire: the snapshot path.
        for (round, wire) in [(32, DELTA), (33, GossipWire::Full)] {
            let (payload, allocations) = counted(|| outbox.message(&db, PEER, round, wire));
            assert_eq!(payload.len(), known);
            assert_eq!(payload.capacity(), payload.len(), "known {known}: {wire}");
            assert_eq!(allocations, 1, "known {known}: {wire}");
        }
    }
}

#[test]
fn a_merge_without_a_new_rank_allocates_nothing() {
    for known in KNOWN {
        let mut db = half_known(known);
        let fresher: Vec<WirEntry> =
            db.entries().map(|e| WirEntry { wir: 3.0, iteration: 5, ..e }).collect();
        let ((), allocations) = counted(|| db.merge(&fresher));
        assert_eq!(allocations, 0, "known {known}");
        assert_eq!(db.snapshot(), fresher);
    }
}

#[test]
fn a_merge_with_new_ranks_grows_the_run_at_most_once() {
    // A slot is an entry plus its change-clock tick.
    let slot_bytes = std::mem::size_of::<WirEntry>() + std::mem::size_of::<u64>();
    for known in KNOWN {
        // Every odd rank is new, interleaved with fresher news of every
        // known one: `known` inserts spread over the whole run.
        let mut db = half_known(known);
        let payload: Vec<WirEntry> =
            (0..2 * known).map(|rank| WirEntry { rank, wir: 4.0, iteration: 7 }).collect();
        let ((), allocations) = counted(|| db.merge(&payload));
        assert!(allocations <= 1, "known {known}: {allocations} allocations");
        assert_eq!(db.snapshot(), payload);
        // … and the one growth is the amortised doubling `update` makes
        // too, not a reserve for the worst case.
        assert!(db.resident_bytes() <= 2 * db.known_count() * slot_bytes, "known {known}");
    }
}
