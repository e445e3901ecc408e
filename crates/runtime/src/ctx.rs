//! The per-rank SPMD context: the API an application rank programs against.
//!
//! Looks like a tiny MPI: `compute`, `send`/`recv`/`drain`, `barrier`,
//! `broadcast`, `gather`, `scatter`, `allgather`, `allreduce`. Every
//! operation advances the rank's virtual clock according to the
//! [`MachineSpec`] cost model and books the time into [`RankMetrics`].
//!
//! Operations that synchronize with other ranks are `async`: they suspend
//! the rank's future — parking its waker in the hub/mailbox — so a
//! scheduler can interleave thousands of ranks over few threads. The
//! collective *semantics* — rank-indexed value vectors, clock maximum, cost
//! model charges, combine folds — are pure functions over the deposited
//! values, so a program's [`RankMetrics`] and clocks are bit-identical
//! regardless of which scheduler polls it.
//!
//! # Host cost of a collective
//!
//! All ranks of a round share one [`RoundValues`] object, so what a
//! collective costs the *simulator* depends on what each rank takes out of
//! it. A reduction — [`SpmdCtx::allreduce`] and its `_sum`/`_max`
//! shorthands, [`SpmdCtx::allgather_with`] — is folded **once per round**
//! (`O(P)` per round, `O(1)` per rank: the first rank to ask folds in rank
//! order, the rest clone the cached result); `broadcast`, `scatter` and a
//! non-root `gather` read one slot. [`SpmdCtx::allgather`] (and `gather`
//! on the root) is the only collective that copies `O(P)` per rank, which
//! across `P` ranks is `O(P²)` per round: reserve it for ranks that keep
//! the vector. The price of the shared fold is a purity contract: the
//! closure runs on whichever rank asks first, so it must be a pure
//! function of the round's values and the same on every rank.

use crate::cost::MachineSpec;
use crate::engine::RunShared;
use crate::hub::{payload_mismatch, ExchangeRound, RoundValues};
use crate::mailbox::{Received, Tag};
use crate::metrics::{IterationMark, RankMetrics, TimeKind};
use crate::time::VirtualTime;
use crate::trace::{Event, EventKind, Tracer};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

/// Execution context handed to each rank closure by [`crate::engine::submit`].
pub struct SpmdCtx {
    rank: usize,
    size: usize,
    shared: Arc<RunShared>,
    /// This rank's leaf shard in the rendezvous hub, resolved once per run
    /// so the per-collective hot path never recomputes the mapping.
    hub_shard: usize,
    clock: VirtualTime,
    metrics: RankMetrics,
    send_seq: u64,
    mark_busy: f64,
    mark_lb: f64,
    /// Iteration marks so far; handed to the collector once, on drop.
    marks: Vec<IterationMark>,
    lb_depth: u32,
    tracer: Option<Arc<Tracer>>,
}

impl SpmdCtx {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        shared: Arc<RunShared>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let hub_shard = shared.hub.shard_of(rank);
        Self {
            rank,
            size,
            shared,
            hub_shard,
            clock: VirtualTime::ZERO,
            metrics: RankMetrics::default(),
            send_seq: 0,
            mark_busy: 0.0,
            mark_lb: 0.0,
            marks: Vec::new(),
            lb_depth: 0,
            tracer,
        }
    }

    #[inline]
    fn trace(&self, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(Event { rank: self.rank, at: self.clock, kind });
        }
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the run.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Process-unique id of the run this rank belongs to (starts at 1) —
    /// the same id tagged onto [`crate::RunError::Deadlock`] and hub
    /// diagnostics, so ranks of concurrent jobs on a shared
    /// [`crate::JobServer`] can label their output.
    pub fn job(&self) -> u64 {
        self.shared.job_id()
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> VirtualTime {
        self.clock
    }

    /// The machine cost model of the run.
    pub fn machine(&self) -> &MachineSpec {
        &self.shared.spec
    }

    /// Accumulated time accounting of this rank.
    pub fn metrics(&self) -> &RankMetrics {
        &self.metrics
    }

    // --- time charging ----------------------------------------------------

    /// Perform `flops` of useful computation (advances the clock by
    /// `flops/ω` and books it as busy time).
    pub fn compute(&mut self, flops: f64) {
        let secs = self.shared.spec.compute_secs(self.rank, flops);
        self.elapse(TimeKind::Busy, secs);
        self.trace(EventKind::Compute { flops });
    }

    /// Advance the clock by `secs`, booked as `kind`.
    ///
    /// Inside a [`SpmdCtx::begin_lb`]/[`SpmdCtx::end_lb`] section all
    /// non-idle time is rebooked as [`TimeKind::Lb`], so load-balancer
    /// internals (gathers, partitioning compute, migration sends) show up as
    /// LB cost rather than application work.
    pub fn elapse(&mut self, kind: TimeKind, secs: f64) {
        debug_assert!(secs >= 0.0 && secs.is_finite(), "invalid elapse {secs}");
        let kind = if self.lb_depth > 0 && kind != TimeKind::Idle { TimeKind::Lb } else { kind };
        self.clock += secs;
        self.metrics.charge(kind, secs);
        if kind == TimeKind::Busy {
            self.mark_busy += secs;
        } else if kind == TimeKind::Lb {
            self.mark_lb += secs;
        }
    }

    /// Advance the clock by `secs` of load-balancing work.
    pub fn elapse_lb(&mut self, secs: f64) {
        self.elapse(TimeKind::Lb, secs);
    }

    /// Enter a load-balancing section: until the matching
    /// [`SpmdCtx::end_lb`], compute and communication time is booked as
    /// [`TimeKind::Lb`]. Sections may nest.
    pub fn begin_lb(&mut self) {
        self.lb_depth += 1;
        self.trace(EventKind::LbBegin);
    }

    /// Leave a load-balancing section (panics on unmatched calls).
    pub fn end_lb(&mut self) {
        assert!(self.lb_depth > 0, "end_lb without begin_lb");
        self.lb_depth -= 1;
        self.trace(EventKind::LbEnd);
    }

    // --- point-to-point ---------------------------------------------------

    /// Send `value` (`bytes` on the wire) to rank `to` under `tag`.
    ///
    /// Non-blocking: the sender is charged the injection latency `α`; the
    /// message arrives at `now + α + bytes/bw`.
    pub fn send<T: Send + 'static>(&mut self, to: usize, tag: Tag, value: T, bytes: usize) {
        assert!(to < self.size, "send to out-of-range rank {to}");
        assert_ne!(to, self.rank, "self-sends are not modelled; keep data local");
        let arrival = self.clock + self.shared.spec.p2p_secs(bytes);
        let seq = self.send_seq;
        self.send_seq += 1;
        self.shared.mail.post(self.rank, to, tag, seq, arrival, value);
        self.shared.note_progress();
        // Injection overhead on the sender.
        self.elapse(TimeKind::Comm, self.shared.spec.latency);
        self.trace(EventKind::Send { to, tag, bytes });
    }

    /// Receive from `from` under `tag`; waits (idle time) until the
    /// message's virtual arrival.
    pub async fn recv<T: Send + 'static>(&mut self, from: usize, tag: Tag) -> T {
        let got = RecvFuture::<T> {
            shared: &self.shared,
            me: self.rank,
            from,
            tag,
            _payload: std::marker::PhantomData,
        }
        .await;
        let wait = got.arrival.since(self.clock);
        self.metrics.charge(TimeKind::Idle, wait);
        self.clock = self.clock.max(got.arrival);
        self.trace(EventKind::Recv { from, tag });
        got.value
    }

    /// Drain all delivered messages with `tag`, in deterministic
    /// `(from, seq)` order, advancing the clock past the latest arrival.
    ///
    /// BSP discipline: call after a [`SpmdCtx::barrier`] so the drained set
    /// (everything posted in the previous superstep) is deterministic.
    pub fn drain<T: Send + 'static>(&mut self, tag: Tag) -> Vec<(usize, T)> {
        let msgs = self.shared.mail.drain::<T>(self.rank, tag);
        let mut out = Vec::with_capacity(msgs.len());
        for m in msgs {
            let wait = m.arrival.since(self.clock);
            self.metrics.charge(TimeKind::Idle, wait);
            self.clock = self.clock.max(m.arrival);
            out.push((m.from, m.value));
        }
        out
    }

    // --- collectives --------------------------------------------------------

    /// One hub rendezvous.
    fn exchange<T>(&mut self, op: &'static str, value: T) -> ExchangeFuture<'_, T> {
        ExchangeFuture {
            shared: &self.shared,
            rank: self.rank,
            shard: self.hub_shard,
            op,
            pending: Some((value, self.clock)),
        }
    }

    fn sync(&mut self, max_clock: VirtualTime, cost: f64, kind: TimeKind) {
        let wait = max_clock.since(self.clock);
        self.metrics.charge(TimeKind::Idle, wait);
        self.clock = self.clock.max(max_clock);
        self.elapse(kind, cost);
    }

    fn sync_traced(&mut self, op: &'static str, max_clock: VirtualTime, cost: f64) {
        self.sync(max_clock, cost, TimeKind::Comm);
        self.trace(EventKind::Collective { op });
    }

    /// Synchronize all ranks (clocks meet at the global maximum plus the
    /// barrier cost).
    pub async fn barrier(&mut self) {
        let round = self.exchange("barrier", ()).await;
        let cost = self.shared.spec.barrier_secs(self.size);
        self.sync_traced("barrier", round.max_clock, cost);
    }

    /// Gather `value` from every rank onto every rank (rank-indexed).
    ///
    /// The one collective that copies `O(P)` on every rank (`O(P²)` host
    /// work and memory per round across the machine): use it only when the
    /// rank keeps the vector. To compute something *from* the values, use
    /// [`SpmdCtx::allgather_with`].
    pub async fn allgather<T: Clone + Send + Sync + 'static>(
        &mut self,
        value: T,
        bytes_per_rank: usize,
    ) -> Vec<T> {
        let round = self.exchange("allgather", value).await;
        let cost = self.shared.spec.allgather_secs(self.size, bytes_per_rank);
        self.sync_traced("allgather", round.max_clock, cost);
        round.values.to_vec()
    }

    /// An [`allgather`](SpmdCtx::allgather) whose result every rank only
    /// needs `fold`ed: same rendezvous, same charge and same trace event,
    /// but `fold` runs **once per round** over the shared rank-indexed
    /// values (in rank order) and every rank receives a clone of its
    /// result — `O(P)` host work per round instead of `O(P)` per rank, and
    /// no per-rank copy of the vector.
    ///
    /// `fold` must be a pure function of the round's values, and every
    /// rank must pass the same one: it executes on whichever rank asks
    /// first. Ranks disagreeing on `R` panic like ranks disagreeing on `T`.
    pub async fn allgather_with<T, R>(
        &mut self,
        value: T,
        bytes_per_rank: usize,
        fold: impl FnOnce(&RoundValues<T>) -> R,
    ) -> R
    where
        T: Clone + Send + Sync + 'static,
        R: Clone + Send + Sync + 'static,
    {
        let round = self.exchange("allgather", value).await;
        let cost = self.shared.spec.allgather_secs(self.size, bytes_per_rank);
        self.sync_traced("allgather", round.max_clock, cost);
        self.reduce_once("allgather", &round.values, fold)
    }

    /// The round's shared reduction ([`RoundValues::reduce_once`]), with
    /// the hub's job-tagged diagnostic when ranks disagree on `R`.
    fn reduce_once<T, R: Clone + Send + Sync + 'static>(
        &self,
        op: &'static str,
        values: &RoundValues<T>,
        fold: impl FnOnce(&RoundValues<T>) -> R,
    ) -> R {
        values.reduce_once(fold).unwrap_or_else(|| payload_mismatch(op, self.shared.hub.job()))
    }

    /// Reduce `value` across ranks with `combine` (must be associative and
    /// commutative); every rank receives the result. The left fold in rank
    /// order runs once per round, not once per rank.
    pub async fn allreduce<T, F>(&mut self, value: T, bytes: usize, combine: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&T, &T) -> T,
    {
        let round = self.exchange("allreduce", value).await;
        let cost = self.shared.spec.allreduce_secs(self.size, bytes);
        self.sync_traced("allreduce", round.max_clock, cost);
        self.reduce_once("allreduce", &round.values, |values| {
            let mut values = values.iter();
            let mut acc = values.next().expect("at least one rank deposited").clone();
            for v in values {
                acc = combine(&acc, v);
            }
            acc
        })
    }

    /// Sum an `f64` across all ranks.
    pub async fn allreduce_sum(&mut self, value: f64) -> f64 {
        self.allreduce(value, std::mem::size_of::<f64>(), |a, b| a + b).await
    }

    /// Maximum of an `f64` across all ranks.
    pub async fn allreduce_max(&mut self, value: f64) -> f64 {
        self.allreduce(value, std::mem::size_of::<f64>(), |a, b| a.max(*b)).await
    }

    /// Broadcast from `root`: the root passes `Some(value)`, everyone else
    /// `None`; all ranks receive the root's value.
    pub async fn broadcast<T: Clone + Send + Sync + 'static>(
        &mut self,
        root: usize,
        value: Option<T>,
        bytes: usize,
    ) -> T {
        debug_assert_eq!(value.is_some(), self.rank == root, "only the root supplies a value");
        let round = self.exchange("broadcast", value).await;
        let cost = self.shared.spec.broadcast_secs(self.size, bytes);
        self.sync_traced("broadcast", round.max_clock, cost);
        round.values[root].clone().expect("root deposited a value")
    }

    /// Gather `value` from every rank to `root` (returns `Some(values)` on
    /// the root, `None` elsewhere).
    pub async fn gather<T: Clone + Send + Sync + 'static>(
        &mut self,
        root: usize,
        value: T,
        bytes_per_rank: usize,
    ) -> Option<Vec<T>> {
        let round = self.exchange("gather", value).await;
        let cost = self.shared.spec.gather_secs(self.size, bytes_per_rank);
        self.sync_traced("gather", round.max_clock, cost);
        (self.rank == root).then(|| round.values.to_vec())
    }

    /// Scatter: the root supplies one value per rank; each rank receives its
    /// slot.
    pub async fn scatter<T: Clone + Send + Sync + 'static>(
        &mut self,
        root: usize,
        values: Option<Vec<T>>,
        bytes_per_rank: usize,
    ) -> T {
        debug_assert_eq!(values.is_some(), self.rank == root, "only the root supplies values");
        if let Some(v) = &values {
            assert_eq!(v.len(), self.size, "scatter needs one value per rank");
        }
        let round = self.exchange("scatter", values).await;
        let cost = self.shared.spec.scatter_secs(self.size, bytes_per_rank);
        self.sync_traced("scatter", round.max_clock, cost);
        round.values[root].as_ref().expect("root deposited values")[self.rank].clone()
    }

    // --- instrumentation (free in virtual time) -----------------------------

    /// Record the end of application iteration `iter` for this rank.
    ///
    /// Call at the same program point on every rank (typically right after
    /// the end-of-iteration synchronization) so that per-iteration wall
    /// times line up. Free in virtual time.
    pub fn mark_iteration(&mut self, iter: u64) {
        let busy_delta = self.mark_busy;
        let lb_delta = self.mark_lb;
        self.mark_busy = 0.0;
        self.mark_lb = 0.0;
        self.marks.push(IterationMark { iter, busy_delta, lb_delta, end_clock: self.clock });
        self.trace(EventKind::Iteration { iter });
    }

    /// Record that a load-balancing step happened at iteration `iter`
    /// (typically called by rank 0 only). Free in virtual time.
    pub fn mark_lb_event(&mut self, iter: u64) {
        self.shared.collector.push_lb_event(iter);
    }
}

impl Drop for SpmdCtx {
    /// The final clock and metrics are published when the rank body lets go
    /// of its context — at the natural end of the program (the engine reads
    /// them into the [`crate::engine::RunReport`]) or during unwinding (in
    /// which case the engine re-raises the panic and never reads them).
    fn drop(&mut self) {
        let marks = std::mem::take(&mut self.marks);
        self.shared.record_final(self.rank, self.clock, self.metrics, marks);
    }
}

/// The rendezvous: deposit once the previous round is drained, then resolve
/// when the round completes. Every `Pending` return leaves the task's waker
/// parked in the hub, so a wake-driven executor (the job server) re-polls
/// exactly when the blocking state transition happens;
/// the sequential scheduler passes a no-op waker and re-polls by
/// round-robin instead. Borrows the run's shared state from the ctx it was
/// created from, so a rendezvous bumps no reference count.
struct ExchangeFuture<'a, T> {
    shared: &'a RunShared,
    rank: usize,
    /// The rank's leaf shard in the hub (cached by the ctx).
    shard: usize,
    op: &'static str,
    /// `Some` until the deposit was accepted.
    pending: Option<(T, VirtualTime)>,
}

// Purely data, never self-referential, so polling through `&mut` is fine.
impl<T> Unpin for ExchangeFuture<'_, T> {}

impl<T: Clone + Send + Sync + 'static> Future for ExchangeFuture<'_, T> {
    type Output = ExchangeRound<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Some((value, clock)) = this.pending.take() {
            match this.shared.hub.poll_deposit(
                this.shard,
                this.rank,
                this.op,
                value,
                clock,
                cx.waker(),
            ) {
                Ok(()) => this.shared.note_progress(),
                Err(value) => {
                    // Previous round not fully drained yet: retry when woken.
                    this.pending = Some((value, clock));
                    return Poll::Pending;
                }
            }
        }
        match this.shared.hub.poll_collect::<T>(this.shard, this.rank, this.op, cx.waker()) {
            Some(round) => {
                this.shared.note_progress();
                Poll::Ready(round)
            }
            None => Poll::Pending,
        }
    }
}

/// The receive: resolves once a matching message is posted
/// (the posting rank wakes the parked receiver).
struct RecvFuture<'a, T> {
    shared: &'a RunShared,
    me: usize,
    from: usize,
    tag: Tag,
    _payload: std::marker::PhantomData<fn() -> T>,
}

impl<T> Unpin for RecvFuture<'_, T> {}

impl<T: Send + 'static> Future for RecvFuture<'_, T> {
    type Output = Received<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match this.shared.mail.poll_recv::<T>(this.me, this.from, this.tag, cx.waker()) {
            Some(received) => {
                this.shared.note_progress();
                Poll::Ready(received)
            }
            None => Poll::Pending,
        }
    }
}
