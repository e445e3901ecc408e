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
//!
//! The runtime sends views instead ([`WirView`]): the sender's run shared
//! by reference, so taking one allocates nothing, and the run is copied
//! only by its owner's first change while a view is held — into the run
//! the previous copy left behind, once every view of that one has dropped.
//! The payload counts above now pin the materializing adapters (`message`,
//! `snapshot`, `delta_since`, `merge`); the view counts are pinned below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ulba_core::db::{WirDatabase, WirEntry, WirView};
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

/// A complete database of `size` ranks, every entry at `iteration`.
fn complete(size: usize, wir: f64, iteration: u64) -> WirDatabase {
    let mut db = WirDatabase::new(size);
    for rank in 0..size {
        db.update(WirEntry { rank, wir, iteration });
    }
    db
}

#[test]
fn taking_a_view_allocates_nothing() {
    for known in KNOWN {
        let mut db = half_known(known);
        let mut outbox = GossipOutbox::new();
        // First contact: creates the peer's watermark (the map may grow).
        assert_eq!(outbox.view(&db, PEER, 1, DELTA).len(), known);
        for i in (0..known).step_by(3) {
            db.update(WirEntry { rank: 2 * i, wir: 2.0, iteration: 1 });
        }
        // A delta, an empty delta, an anti-entropy round, the full wire.
        let (views, allocations): (Vec<WirView>, u64) = counted(|| {
            [(3, DELTA), (4, DELTA), (32, DELTA), (33, GossipWire::Full)]
                .map(|(round, wire)| outbox.view(&db, PEER, round, wire))
                .into()
        });
        // (The `Vec` that holds the four views is the one allocation.)
        assert_eq!(allocations, 1, "known {known}");
        let lens: Vec<usize> = views.iter().map(WirView::len).collect();
        assert_eq!(lens, [known.div_ceil(3), 0, known, known], "known {known}");
    }
}

#[test]
fn a_merge_into_an_unshared_complete_run_allocates_nothing() {
    for known in KNOWN {
        let mut db = complete(known, 1.0, 0);
        // Half the ranks fresher: the decide/apply path writes in place.
        let mut sender = complete(known, 1.0, 0);
        for rank in (0..known).step_by(2) {
            sender.update(WirEntry { rank, wir: 2.0, iteration: 1 });
        }
        let (full, delta) = (sender.view(), sender.view_since(known as u64));
        let ((), allocations) = counted(|| {
            db.merge_view(&delta);
            db.merge_view(&full);
        });
        assert_eq!(allocations, 0, "known {known}");
        assert_eq!(db.snapshot(), sender.snapshot());
    }
}

#[test]
fn a_shared_run_is_copied_once_by_its_owners_first_change() {
    for known in KNOWN {
        let mut db = complete(known, 1.0, 0);
        let news = complete(known, 3.0, 2).view();
        let held = db.view();
        // Nothing changes: the shared run is not copied.
        let ((), allocations) = counted(|| db.update(WirEntry { rank: 0, wir: 1.0, iteration: 0 }));
        assert_eq!(allocations, 0, "known {known}: a no-op update");
        // The first change copies the run, reference counts included, in
        // one allocation.
        let ((), allocations) = counted(|| db.update(WirEntry { rank: 0, wir: 2.0, iteration: 1 }));
        assert_eq!(allocations, 1, "known {known}: the copy");
        // The copy is the owner's alone: later changes write in place,
        // though the view still holds the old run.
        let ((), allocations) = counted(|| {
            db.update(WirEntry { rank: 1, wir: 2.0, iteration: 1 });
            db.merge_view(&news);
        });
        assert_eq!(allocations, 0, "known {known}: after the copy");
        assert!(held.entries().all(|e| e.wir == 1.0 && e.iteration == 0));

        // The same through a merge: one copy of a shared run.
        let held = db.view();
        let fresher = complete(known, 4.0, 3).view();
        let ((), allocations) = counted(|| db.merge_view(&fresher));
        assert_eq!(allocations, 1, "known {known}: the copy by a merge");
        assert!(held.entries().all(|e| e.wir == 3.0));
    }
}

#[test]
fn a_copy_reuses_the_run_whose_views_have_dropped() {
    for known in KNOWN {
        // One gossip iteration after another: views of the run go out, the
        // owner merges news while they are held, then the views drain.
        let mut db = complete(known, 1.0, 0);
        let held = db.view();
        let first = complete(known, 2.0, 1).view();
        let ((), allocations) = counted(|| db.merge_view(&first));
        assert_eq!(allocations, 1, "known {known}: nothing to reuse yet");
        drop(held);

        for iteration in 2..6u64 {
            let held = db.view();
            let news = complete(known, iteration as f64 + 1.0, iteration).view();
            let ((), allocations) = counted(|| db.merge_view(&news));
            assert_eq!(allocations, 0, "known {known}, iteration {iteration}: the copy");
            assert_eq!(db.snapshot(), news.to_vec(), "known {known}, iteration {iteration}");
            let before = iteration as f64;
            assert!(held.entries().all(|e| e.wir == before), "the view keeps its own run");
        }

        // A run still held when the next copy is due is not reused.
        let old = db.view();
        db.update(WirEntry { rank: 0, wir: 9.0, iteration: 9 });
        let held = db.view();
        let ((), allocations) = counted(|| db.update(WirEntry { rank: 1, wir: 9.0, iteration: 9 }));
        assert_eq!(allocations, 1, "known {known}: the kept run is still viewed");
        assert!(old.entries().all(|e| e.wir == 6.0));
        assert_eq!(held.entries().filter(|e| e.wir == 9.0).count(), 1);
    }
}

/// Regression: a shared run was copied with room for exactly the change at
/// hand, so the run kept two copies back was always one slot short for the
/// next copy of a database that learns a rank per iteration, and every new
/// rank allocated. Copies grow like an unshared run now, up to the
/// database's size: once each run of the pair has been allocated that
/// large, the kept one is always reused.
#[test]
fn a_growing_database_allocates_nothing_after_warm_up() {
    for known in KNOWN {
        // Gossip goes out every iteration, and the next new rank arrives
        // while the view sent last is still held.
        let mut db = half_known(known);
        let mut allocations = 0;
        for (learned, rank) in (1..2 * known).step_by(2).enumerate() {
            let held = db.view();
            let ((), n) = counted(|| db.update(WirEntry { rank, wir: 2.0, iteration: 1 }));
            allocations += n;
            assert_eq!(held.len(), known + learned, "the view keeps its own run");
        }
        assert!(db.is_complete());
        assert!(allocations <= 2, "known {known}: {allocations} allocations for {known} ranks");
    }
}
