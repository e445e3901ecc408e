//! The rendezvous hub: a generation-stamped all-to-all exchange primitive on
//! which every collective (barrier, broadcast, gather, allgather, allreduce)
//! is built.
//!
//! All `P` ranks deposit a typed value and a clock; once the last rank
//! arrives, everyone observes the full value vector (rank-indexed, hence
//! deterministic) and the maximum deposit clock. A two-phase protocol
//! (deposit → drain) prevents a fast rank from entering the next collective
//! before the previous one has been fully read.
//!
//! # Sharding
//!
//! The hub is **sharded**: the `P` ranks are split over `S` shards
//! (shard = `rank / ceil(P/S)`, so the last shard may be ragged), each with
//! its own lock, deposit slots, and parked-waker list. A deposit touches only
//! its own shard. Two counters tie the shards together. The deposit that
//! completes a shard bumps the *completion* counter; the one that completes
//! the last shard moves every shard's deposits, in shard order (which is
//! rank order), into one vector — so the round and its clock maximum are
//! bit-identical for **any** shard count, `S = 1` included — and hands it
//! to every shard, waking the shard-local waiters. The last rank out of a
//! shard bumps the *drain* counter, and the last shard to drain reopens
//! entry on every shard for the next generation. Only the last shard of a
//! round passes a counter, and it resets it: the next round's reports
//! cannot start before this round has fully drained.
//!
//! The hub never blocks a thread: the shard state machine
//! ([`ShardState::deposit`] / [`ShardState::collect`]) is pure bookkeeping
//! over the deposited values, driven through the [`Hub::poll_deposit`] /
//! [`Hub::poll_collect`] pair. A caller leaves its [`Waker`] behind in its
//! shard whenever it cannot progress; the state transition that unblocks
//! it — the round completing on the last deposit, or entry reopening on
//! the last drain — wakes every parked waker of every shard, directly and
//! outside every shard lock (as the mailbox does), which is what lets the
//! job server sleep blocked ranks instead of spinning them (the sequential
//! scheduler passes a no-op waker and keeps round-robining). On the job
//! server a shard is also the unit of scheduling — its ranks
//! ([`Hub::shard_range`]) form one block that one worker drives at a time,
//! so a shard lock is uncontended and a wake is one flag store.
//!
//! The completed round is **one shared vector** ([`RoundValues`]): every
//! rank collects a handle to it, not a copy. It carries a compute-once
//! slot ([`RoundValues::reduce_once`]), so a reduction over the round is
//! folded by the first rank that asks and merely cloned by the others —
//! `O(P)` host work per round rather than per rank. Nothing is recycled:
//! a round costs a constant number of allocations, one of them `O(P)`.
//!
//! A hub belongs to exactly one run (its *job*): [`Hub::for_job`] stamps
//! the job id into every collective-mismatch diagnostic, so when many jobs
//! share one [`crate::exec::server::JobServer`] a panic names which job
//! misbehaved. Job id 0 suppresses the tag.

use crate::time::VirtualTime;
use parking_lot::Mutex;
use std::any::Any;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::Waker;

/// The values of one completed round, in rank order. Every rank of the
/// round holds a handle to the *same* vector (a clone is a reference
/// bump), which is what lets a reduction run once per round instead of
/// once per rank: see [`RoundValues::reduce_once`].
pub struct RoundValues<T>(Arc<SharedRound<T>>);

/// What all `P` handles of one round share.
struct SharedRound<T> {
    values: Vec<T>,
    /// The round's compute-once slot ([`RoundValues::reduce_once`]). Born
    /// empty with the round and dropped with it, so it needs no reset
    /// between generations.
    reduced: OnceLock<Box<dyn Any + Send + Sync>>,
}

impl<T> Clone for RoundValues<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T> Deref for RoundValues<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0.values
    }
}

impl<T> RoundValues<T> {
    /// Reduce the round **once**: the first handle to ask runs `fold` over
    /// the values (in rank order, so an `f64` sum is bit-identical for any
    /// shard count); every other handle of the same round gets a clone of
    /// the cached result, and handles asking concurrently wait for the one
    /// fold rather than starting their own. A reduction therefore costs
    /// `O(P)` per round, `O(1)` per rank.
    ///
    /// `fold` must be a pure function of the round's values and the same
    /// on every rank — it runs on whichever rank asks first. Returns
    /// `None` when the round was already reduced to a different result
    /// type (a collective-ordering bug in the caller).
    pub fn reduce_once<R>(&self, fold: impl FnOnce(&[T]) -> R) -> Option<R>
    where
        R: Clone + Send + Sync + 'static,
    {
        self.0.reduced.get_or_init(|| Box::new(fold(&self.0.values))).downcast_ref::<R>().cloned()
    }
}

/// Result of one exchange round: the rank-indexed values and the latest
/// deposit clock (the virtual instant at which the collective can complete).
pub struct ExchangeRound<T> {
    /// Values deposited by each rank, indexed by rank.
    pub values: RoundValues<T>,
    /// Maximum clock among the participants at deposit time.
    pub max_clock: VirtualTime,
}

/// Lock-protected state of one shard: the deposit slots of its ranks, the
/// entry guard, and the shard's handle to the completed round.
struct ShardState {
    /// Id of the owning job (0 suppresses the diagnostic tag).
    job: u64,
    generation: u64,
    op_name: Option<&'static str>,
    /// Number of ranks in this shard.
    width: usize,
    /// Typed deposit slots of this shard's ranks (`Vec<Option<T>>`,
    /// indexed locally), allocated by the round's first deposit and
    /// consumed by the round's assembly.
    deposits: Option<Box<dyn Any + Send>>,
    arrived: usize,
    max_clock: VirtualTime,
    /// Whether a new deposit may enter. Closed when the shard completes
    /// locally; reopened by the globally last drain of the round.
    entry_open: bool,
    /// The completed round (a type-erased `SharedRound<T>`), handed to
    /// every shard by the completing rank.
    result: Option<Arc<dyn Any + Send + Sync>>,
    result_max_clock: VirtualTime,
    departed: usize,
    /// Wakers of the ranks parked at the rendezvous (waiting either for
    /// the round to complete or for entry to reopen),
    /// indexed locally. A rank runs one operation at a time, so one slot
    /// per rank suffices.
    wakers: Vec<Option<Waker>>,
}

/// Diagnostic suffix naming the owning job; empty for job id 0.
fn job_tag(job: u64) -> String {
    if job == 0 {
        String::new()
    } else {
        format!(" [job #{job}]")
    }
}

/// The diagnostic of ranks disagreeing on a collective's types — the
/// deposited payload, or the result a reduction folds it to.
pub(crate) fn payload_mismatch(op_name: &str, job: u64) -> ! {
    panic!("collective `{op_name}`: payload type mismatch across ranks{}", job_tag(job))
}

impl ShardState {
    fn new(width: usize, job: u64) -> Self {
        Self {
            job,
            generation: 0,
            op_name: None,
            width,
            deposits: None,
            arrived: 0,
            max_clock: VirtualTime::ZERO,
            entry_open: true,
            result: None,
            result_max_clock: VirtualTime::ZERO,
            departed: 0,
            wakers: (0..width).map(|_| None).collect(),
        }
    }

    /// Deposit `value` for the shard-local slot `local` (global id `rank`)
    /// into the current round; the caller must have checked
    /// [`ShardState::entry_open`]. Returns `true` when this deposit
    /// completed the shard (all of its ranks arrived), which closes entry
    /// and obliges the caller to report the shard as completed.
    fn deposit<T: Send + Sync + 'static>(
        &mut self,
        local: usize,
        rank: usize,
        op_name: &'static str,
        value: T,
        clock: VirtualTime,
    ) -> bool {
        debug_assert!(self.entry_open, "deposit into an undrained round");
        match self.op_name {
            None => self.op_name = Some(op_name),
            Some(existing) => assert_eq!(
                existing,
                op_name,
                "collective mismatch: rank {rank} entered `{op_name}` while \
                 others are in `{existing}` (generation {}){}",
                self.generation,
                job_tag(self.job)
            ),
        }
        let (job, width) = (self.job, self.width);
        let slots = self
            .deposits
            .get_or_insert_with(|| Box::new((0..width).map(|_| None).collect::<Vec<Option<T>>>()))
            .downcast_mut::<Vec<Option<T>>>()
            .unwrap_or_else(|| payload_mismatch(op_name, job));
        assert!(
            slots[local].is_none(),
            "rank {rank} deposited twice in collective `{op_name}` \
             (generation {}){}",
            self.generation,
            job_tag(job)
        );
        slots[local] = Some(value);
        self.arrived += 1;
        self.max_clock = self.max_clock.max(clock);
        if self.arrived == self.width {
            self.entry_open = false;
            true
        } else {
            false
        }
    }

    /// Read the shard's handle to the completed round, if present. Returns
    /// the round plus whether this caller was the last of the *shard* to
    /// depart (which obliges the caller to report the shard as drained).
    /// Must be called at most once per depositing rank.
    fn collect<T: Send + Sync + 'static>(
        &mut self,
        op_name: &'static str,
    ) -> Option<(ExchangeRound<T>, bool)> {
        let round = Arc::clone(self.result.as_ref()?)
            .downcast::<SharedRound<T>>()
            .unwrap_or_else(|_| payload_mismatch(op_name, self.job));
        let max_clock = self.result_max_clock;
        self.departed += 1;
        let shard_drained = self.departed == self.width;
        Some((ExchangeRound { values: RoundValues(round), max_clock }, shard_drained))
    }
}

/// Rendezvous coordinator shared by all ranks of one run: `S` shards and
/// the two counters that complete and drain a round across them.
pub struct Hub {
    size: usize,
    /// Id of the owning job (0 suppresses the diagnostic tag).
    job: u64,
    /// Ranks per shard (`ceil(size / shard_count)`); the last shard may
    /// hold fewer ("ragged").
    shard_width: usize,
    shards: Vec<Mutex<ShardState>>,
    /// Shards whose ranks have all deposited into the current round.
    completed: AtomicUsize,
    /// Shards whose ranks have all collected the current round.
    drained: AtomicUsize,
}

impl Hub {
    /// Create the hub of job `job` for `size` ranks over (up to) `shards`
    /// shards. The effective shard count is clamped to `[1, size]`; ranks
    /// map to shards by `rank / ceil(size / shards)`. Collective-mismatch
    /// diagnostics are tagged with the job id, so concurrent jobs on one
    /// [`crate::exec::server::JobServer`] stay distinguishable (`0`
    /// suppresses the tag).
    pub fn for_job(job: u64, size: usize, shards: usize) -> Self {
        assert!(size >= 1, "a run needs at least one rank");
        let shard_width = size.div_ceil(shards.clamp(1, size));
        let shards = (0..size.div_ceil(shard_width))
            .map(|s| Mutex::new(ShardState::new(shard_width.min(size - s * shard_width), job)))
            .collect();
        Self {
            size,
            job,
            shard_width,
            shards,
            completed: AtomicUsize::new(0),
            drained: AtomicUsize::new(0),
        }
    }

    /// Number of participating ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Id of the owning job.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `rank`.
    pub fn shard_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.size);
        rank / self.shard_width
    }

    /// The contiguous ranks of shard `shard` — the job server takes its
    /// schedulable blocks from here, so a block is exactly a shard.
    pub fn shard_range(&self, shard: usize) -> std::ops::Range<usize> {
        let base = shard * self.shard_width;
        base..(base + self.shard_width).min(self.size)
    }

    /// Report one shard to `counter`; returns `true` for the last shard of
    /// the round, which resets the counter for the next generation — safe
    /// because the next round's reports are gated behind this round's full
    /// drain. The counter only elects the last shard: the shards' data is
    /// read under their own locks, which carry the happens-before edges.
    fn last_shard(&self, counter: &AtomicUsize) -> bool {
        if counter.fetch_add(1, Ordering::AcqRel) + 1 < self.shards.len() {
            return false;
        }
        counter.store(0, Ordering::Release);
        true
    }

    /// Every shard completed: move the deposits of every shard, in shard
    /// order (= rank order, hence bit-identical for any shard count), into
    /// one vector, and hand the shared round to every shard. Returns every
    /// parked waker, to be woken once no locks are held.
    fn complete_round<T: Send + Sync + 'static>(&self, op_name: &'static str) -> Vec<Waker> {
        let mut values = Vec::with_capacity(self.size);
        let mut max_clock = VirtualTime::ZERO;
        for (idx, shard) in self.shards.iter().enumerate() {
            let mut st = shard.lock();
            let shard_op = st.op_name.expect("completed shard has an op");
            assert_eq!(
                shard_op,
                op_name,
                "collective mismatch across hub shards: shard {idx} is in \
                 `{shard_op}` while the completing rank is in `{op_name}` \
                 (generation {}){}",
                st.generation,
                job_tag(self.job)
            );
            debug_assert_eq!(st.arrived, st.width, "shard {idx} incomplete at assembly");
            let slots: Vec<Option<T>> = *st
                .deposits
                .take()
                .expect("completed shard has deposits")
                .downcast()
                .unwrap_or_else(|_| payload_mismatch(op_name, self.job));
            values.extend(
                slots.into_iter().map(|s| s.expect("all ranks of a completed round deposited")),
            );
            max_clock = max_clock.max(st.max_clock);
        }
        let round: Arc<dyn Any + Send + Sync> =
            Arc::new(SharedRound { values, reduced: OnceLock::new() });
        let mut to_wake = Vec::with_capacity(self.size);
        for shard in &self.shards {
            let mut st = shard.lock();
            st.result = Some(Arc::clone(&round));
            st.result_max_clock = max_clock;
            to_wake.extend(st.wakers.iter_mut().filter_map(Option::take));
        }
        to_wake
    }

    /// Every shard fully departed: reset all shards for the next generation
    /// and reopen entry. Returns every parked waker (entry-guard waiters),
    /// to be woken once no locks are held.
    fn reopen_entry(&self) -> Vec<Waker> {
        let mut to_wake = Vec::with_capacity(self.size);
        for shard in &self.shards {
            let mut st = shard.lock();
            debug_assert!(st.deposits.is_none());
            st.result = None;
            st.arrived = 0;
            st.departed = 0;
            st.max_clock = VirtualTime::ZERO;
            st.op_name = None;
            st.generation += 1;
            st.entry_open = true;
            to_wake.extend(st.wakers.iter_mut().filter_map(Option::take));
        }
        to_wake
    }

    /// Deposit `value` into the current round. Every rank must deposit the
    /// same value type `T` under the same `op_name`; mismatches indicate a
    /// collective-ordering bug in the application and panic with a
    /// diagnostic. Returns `Err(value)` when the previous round has not
    /// been fully drained yet, parking `waker` to be woken once entry
    /// reopens. On the deposit that completes the round, every parked rank
    /// is woken.
    pub(crate) fn poll_deposit<T: Send + Sync + 'static>(
        &self,
        shard_idx: usize,
        rank: usize,
        op_name: &'static str,
        value: T,
        clock: VirtualTime,
        waker: &Waker,
    ) -> Result<(), T> {
        assert!(rank < self.size, "rank {rank} out of range (size {})", self.size);
        let local = rank - shard_idx * self.shard_width;
        let mut st = self.shards[shard_idx].lock();
        if !st.entry_open {
            st.wakers[local] = Some(waker.clone());
            return Err(value);
        }
        if st.deposit(local, rank, op_name, value, clock) {
            drop(st);
            if self.last_shard(&self.completed) {
                self.complete_round::<T>(op_name).into_iter().for_each(Waker::wake);
            }
        }
        Ok(())
    }

    /// Collect the round: `None` while ranks are still missing from it
    /// (parking `waker` until the round completes). Must be called at most
    /// once (until `Some`) per deposit. The last rank to drain reopens
    /// entry and wakes every rank parked on the entry guard.
    pub(crate) fn poll_collect<T: Send + Sync + 'static>(
        &self,
        shard_idx: usize,
        rank: usize,
        op_name: &'static str,
        waker: &Waker,
    ) -> Option<ExchangeRound<T>> {
        let local = rank - shard_idx * self.shard_width;
        let mut st = self.shards[shard_idx].lock();
        match st.collect(op_name) {
            Some((round, shard_drained)) => {
                drop(st);
                if shard_drained && self.last_shard(&self.drained) {
                    self.reopen_entry().into_iter().for_each(Waker::wake);
                }
                Some(round)
            }
            None => {
                st.wakers[local] = Some(waker.clone());
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One full round, single-threaded, the way the schedulers drive it:
    /// every rank deposits its `(value, clock)` in rank order, then every
    /// rank collects. Returns each rank's view of the round.
    fn exchange_all<T: Send + Sync + 'static>(
        hub: &Hub,
        op: &'static str,
        deposits: impl IntoIterator<Item = (T, VirtualTime)>,
    ) -> Vec<ExchangeRound<T>> {
        let noop = Waker::noop();
        for (rank, (value, clock)) in deposits.into_iter().enumerate() {
            let accepted = hub.poll_deposit(hub.shard_of(rank), rank, op, value, clock, noop);
            assert!(accepted.is_ok(), "rank {rank}: previous round fully drained");
        }
        (0..hub.size())
            .map(|rank| {
                hub.poll_collect(hub.shard_of(rank), rank, op, noop).expect("round complete")
            })
            .collect()
    }

    /// Shard counts exercised by every sharded test: degenerate, even
    /// split, ragged (non-dividing), and fully sharded (one rank each).
    fn shard_sweep(size: usize) -> Vec<usize> {
        let mut s = vec![1, 2, 7, size];
        s.dedup();
        s
    }

    #[test]
    fn single_rank_exchange_is_immediate() {
        let hub = Hub::for_job(0, 1, 1);
        let rounds = exchange_all(&hub, "test", [(42u32, VirtualTime::from_secs(1.0))]);
        assert_eq!(*rounds[0].values, [42]);
        assert_eq!(rounds[0].max_clock.as_secs(), 1.0);
    }

    #[test]
    fn shard_layout_covers_all_ranks() {
        for size in [1usize, 2, 5, 8, 10, 17, 64, 100] {
            for shards in [1usize, 2, 3, 4, 7, 16, 100] {
                let hub = Hub::for_job(0, size, shards);
                assert!(hub.shard_count() >= 1 && hub.shard_count() <= shards.clamp(1, size));
                // Every rank maps to a valid shard; shard ids are monotone.
                let mut prev = 0;
                for rank in 0..size {
                    let s = hub.shard_of(rank);
                    assert!(s < hub.shard_count(), "rank {rank} of {size} → shard {s}");
                    assert!(s >= prev);
                    prev = s;
                }
                assert_eq!(hub.shard_of(size - 1), hub.shard_count() - 1);
                // The ranges tile `0..size` and agree with `shard_of`.
                let mut next = 0;
                for s in 0..hub.shard_count() {
                    let range = hub.shard_range(s);
                    assert_eq!(range.start, next);
                    assert!(range.clone().all(|rank| hub.shard_of(rank) == s));
                    next = range.end;
                }
                assert_eq!(next, size);
            }
        }
    }

    #[test]
    fn values_are_rank_indexed() {
        for shards in shard_sweep(8) {
            let hub = Hub::for_job(0, 8, shards);
            let deposits = (0..8usize).map(|r| (r * 10, VirtualTime::from_secs(r as f64)));
            for round in exchange_all(&hub, "gather-ranks", deposits) {
                assert_eq!(*round.values, (0..8).map(|r| r * 10).collect::<Vec<_>>());
                assert_eq!(round.max_clock.as_secs(), 7.0);
            }
        }
    }

    #[test]
    fn ragged_last_shard_exchanges_correctly() {
        // 10 ranks over width-3 shards: 3 + 3 + 3 + 1.
        let hub = Hub::for_job(0, 10, 4);
        assert_eq!(hub.shard_count(), 4);
        assert_eq!(hub.shard_of(9), 3);
        for round in exchange_all(&hub, "ragged", (0..10u64).map(|r| (r, VirtualTime::ZERO))) {
            assert_eq!(*round.values, (0..10u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn consecutive_rounds_do_not_mix() {
        for shards in shard_sweep(4) {
            let hub = Hub::for_job(0, 4, shards);
            for round_idx in 0..100u64 {
                let clock = VirtualTime::from_secs(round_idx as f64);
                let deposits = (0..4u64).map(|r| ((r, round_idx), clock));
                for round in exchange_all(&hub, "loop", deposits) {
                    for (r, &(vr, vi)) in round.values.iter().enumerate() {
                        assert_eq!(vr, r as u64);
                        assert_eq!(vi, round_idx, "round {round_idx} mixed with {vi}");
                    }
                }
            }
        }
    }

    #[test]
    fn max_clock_is_maximum_of_deposits() {
        for shards in shard_sweep(3) {
            let hub = Hub::for_job(0, 3, shards);
            let deposits = [0.5, 9.25, 3.0].map(|secs| ((), VirtualTime::from_secs(secs)));
            for round in exchange_all(&hub, "clocks", deposits) {
                assert_eq!(round.max_clock.as_secs(), 9.25);
            }
        }
    }

    #[test]
    fn many_ranks_heavy_payloads_over_many_shards() {
        // 64 ranks over 32 two-rank shards: 32 reports per counter per round.
        let hub = Hub::for_job(0, 64, 32);
        assert_eq!(hub.shard_count(), 32);
        let deposits = (0..64usize).map(|r| (vec![r as u8; 1024], VirtualTime::ZERO));
        for round in exchange_all(&hub, "heavy", deposits) {
            assert_eq!(round.values.len(), 64);
            assert_eq!(round.values[17][0], 17);
        }
    }

    #[test]
    fn nonblocking_protocol_completes_a_round() {
        for shards in shard_sweep(3) {
            let hub = Hub::for_job(0, 3, shards);
            let noop = Waker::noop();
            for rank in 0..3usize {
                let s = hub.shard_of(rank);
                assert!(hub
                    .poll_deposit(
                        s,
                        rank,
                        "poll",
                        rank as u32,
                        VirtualTime::from_secs(rank as f64),
                        noop
                    )
                    .is_ok());
                if rank < 2 {
                    assert!(
                        hub.poll_collect::<u32>(s, rank, "poll", noop).is_none(),
                        "round incomplete"
                    );
                }
            }
            for rank in 0..3usize {
                let s = hub.shard_of(rank);
                let round = hub.poll_collect::<u32>(s, rank, "poll", noop).expect("round complete");
                assert_eq!(*round.values, [0, 1, 2]);
                assert_eq!(round.max_clock.as_secs(), 2.0);
            }
            // Fully drained: the next round may start.
            assert!(hub
                .poll_deposit(hub.shard_of(0), 0, "poll", 9u32, VirtualTime::ZERO, noop)
                .is_ok());
        }
    }

    #[test]
    fn nonblocking_deposit_rejected_until_drained() {
        for shards in shard_sweep(2) {
            let hub = Hub::for_job(0, 2, shards);
            let noop = Waker::noop();
            let s0 = hub.shard_of(0);
            let s1 = hub.shard_of(1);
            assert!(hub.poll_deposit(s0, 0, "guard", 1u8, VirtualTime::ZERO, noop).is_ok());
            assert!(hub.poll_deposit(s1, 1, "guard", 2u8, VirtualTime::ZERO, noop).is_ok());
            // Round complete but undrained: rank 0 cannot enter the next round.
            let _ = hub.poll_collect::<u8>(s0, 0, "guard", noop).expect("complete");
            assert_eq!(hub.poll_deposit(s0, 0, "guard", 3u8, VirtualTime::ZERO, noop), Err(3u8));
            let _ = hub.poll_collect::<u8>(s1, 1, "guard", noop).expect("complete");
            // Now both departed: entry reopens.
            assert!(hub.poll_deposit(s0, 0, "guard", 3u8, VirtualTime::ZERO, noop).is_ok());
        }
    }

    #[test]
    fn wakers_fire_on_round_completion_and_entry_reopen() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::task::Wake;

        struct CountingWaker(Arc<AtomicUsize>);
        impl Wake for CountingWaker {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        for shards in shard_sweep(2) {
            let wakes = Arc::new(AtomicUsize::new(0));
            let waker = std::task::Waker::from(Arc::new(CountingWaker(Arc::clone(&wakes))));
            let hub = Hub::for_job(0, 2, shards);
            let s0 = hub.shard_of(0);
            let s1 = hub.shard_of(1);

            // Rank 0 deposits and parks on collect; rank 1's completing
            // deposit must wake it — across shards when S = 2.
            assert!(hub.poll_deposit(s0, 0, "wake", 1u8, VirtualTime::ZERO, &waker).is_ok());
            assert!(hub.poll_collect::<u8>(s0, 0, "wake", &waker).is_none());
            assert_eq!(wakes.load(Ordering::SeqCst), 0);
            assert!(hub.poll_deposit(s1, 1, "wake", 2u8, VirtualTime::ZERO, Waker::noop()).is_ok());
            assert_eq!(wakes.load(Ordering::SeqCst), 1, "round completion wakes parked ranks");

            // Rank 0 drains and immediately parks on the next round's entry
            // guard; rank 1's final drain must wake it.
            let _ = hub.poll_collect::<u8>(s0, 0, "wake", Waker::noop()).expect("complete");
            assert_eq!(hub.poll_deposit(s0, 0, "wake", 3u8, VirtualTime::ZERO, &waker), Err(3u8));
            let _ = hub.poll_collect::<u8>(s1, 1, "wake", Waker::noop()).expect("complete");
            assert_eq!(wakes.load(Ordering::SeqCst), 2, "entry reopening wakes parked ranks");
        }
    }

    #[test]
    #[should_panic(expected = "collective mismatch")]
    fn cross_shard_op_mismatch_panics_at_assembly() {
        // Two single-rank shards: neither shard sees the other's op name
        // at deposit time, so the mismatch is caught by the assembly.
        let hub = Hub::for_job(0, 2, 2);
        let noop = Waker::noop();
        assert!(hub.poll_deposit(0, 0, "barrier", (), VirtualTime::ZERO, noop).is_ok());
        let _ = hub.poll_deposit(1, 1, "allreduce", (), VirtualTime::ZERO, noop);
    }

    #[test]
    fn sharded_and_unsharded_agree_over_many_generations() {
        // The degenerate S = 1 hub is the reference; every shard count must
        // produce byte-identical rounds for the same deposits. Generations
        // alternate between a `u64` and a `(u64, u32)` payload under two op
        // names, so a counter that is not reset or a deposit buffer left
        // over from the previous round's type fails here.
        let rounds = 25u64;
        let run = |size: usize, shards: usize| -> Vec<(Vec<(u64, u32)>, f64)> {
            let hub = Hub::for_job(0, size, shards);
            (0..rounds)
                .map(|g| {
                    let word = |rank: usize| rank as u64 * 1000 + g;
                    let clock =
                        |rank: usize| VirtualTime::from_secs((rank as f64) * 0.25 + g as f64);
                    let (values, max_clock) = if g % 2 == 0 {
                        let deposits = (0..size).map(|rank| (word(rank), clock(rank)));
                        let round = exchange_all(&hub, "agree", deposits).swap_remove(0);
                        (round.values.iter().map(|&w| (w, 0)).collect(), round.max_clock)
                    } else {
                        let deposits =
                            (0..size).map(|rank| ((word(rank), rank as u32 + 1), clock(rank)));
                        let round = exchange_all(&hub, "agree-pair", deposits).swap_remove(0);
                        (round.values.to_vec(), round.max_clock)
                    };
                    (values, max_clock.as_secs())
                })
                .collect()
        };
        for size in [10usize, 100] {
            let reference = run(size, 1);
            assert_eq!(reference[1].0[size - 1], ((size as u64 - 1) * 1000 + 1, size as u32));
            for shards in [2usize, 3, 4, 7, 10, 64, 100] {
                assert_eq!(run(size, shards), reference, "P = {size}, shards = {shards}");
            }
        }
    }
}
