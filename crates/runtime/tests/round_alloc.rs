//! Heap allocations of a collective round, counted — not timed.
//!
//! The rendezvous hub recycles nothing, so what keeps a round cheap is that
//! it allocates a constant *number* of times — a few of them `O(P)` in
//! size, never `O(log P)` or `O(P)` in count. The sequential backend runs
//! every rank on the joining thread, so a thread-local counting allocator
//! sees the whole job, and a body of 8 rounds minus one of 4 cancels what
//! the job costs to set up and report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ulba_runtime::{run, Backend, RunConfig};

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

/// Allocations of one sequential run of `ranks` ranks, each running `rounds`
/// rounds of `barrier` + `allreduce_sum` + `allgather_with`.
fn allocations_of(ranks: usize, rounds: usize) -> u64 {
    let config = RunConfig::defaults(ranks).with_backend(Backend::Sequential);
    let before = ALLOCATIONS.with(Cell::get);
    run(config, move |mut ctx| async move {
        for round in 0..rounds {
            ctx.barrier().await;
            let total = ctx.allreduce_sum(1.0).await;
            assert_eq!(total, ranks as f64);
            let value = ctx.rank() + round;
            let sum = ctx.allgather_with(value, 8, |v| v.iter().sum::<usize>()).await;
            assert_eq!(sum, ranks * (ranks - 1) / 2 + ranks * round);
        }
    });
    ALLOCATIONS.with(Cell::get) - before
}

/// Seven per collective, all ranks together: a shard's deposit slots and
/// their box (one shard here), the round's vector and its shared header,
/// one waker buffer each for the completing deposit and the reopening
/// drain, and a reduction's cached result.
const MAX_PER_ROUND: u64 = 3 * 7;

#[test]
fn a_round_costs_the_same_few_allocations_at_any_rank_count() {
    let per_round: Vec<u64> = [64usize, 4096]
        .into_iter()
        .map(|ranks| {
            let (short, long) = (allocations_of(ranks, 4), allocations_of(ranks, 8));
            assert!(long > short, "P = {ranks}: {long} allocations for 8 rounds, {short} for 4");
            assert_eq!((long - short) % 4, 0, "P = {ranks}: uneven rounds ({short} → {long})");
            (long - short) / 4
        })
        .collect();
    assert_eq!(per_round[0], per_round[1], "allocations per round at P = 64 vs P = 4096");
    assert!(per_round[0] <= MAX_PER_ROUND, "{} allocations per round", per_round[0]);
}
