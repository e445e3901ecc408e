//! The job server: a long-lived work-stealing pool that admits many
//! concurrent SPMD jobs and schedules them **a block of ranks at a time**.
//!
//! A [`JobServer`] owns `M` worker threads for its whole lifetime and
//! multiplexes any number of submitted jobs over them:
//!
//! * [`JobServer::submit`] turns a [`RunConfig`] + rank body into a [`Job`]
//!   — one future per rank, a per-job [`RunShared`] (hub, mailboxes,
//!   collector) — cuts its ranks into **blocks**, and seeds the run queues.
//!   It returns a [`JobHandle`] immediately; [`JobHandle::join`] blocks for
//!   the job's [`RunReport`].
//! * Each job gets its *own* hub/mailbox namespace (its `RunShared`), so
//!   two jobs' collective rendezvous can never alias, and its own job id
//!   for diagnostics.
//! * Admission is FIFO and starvation-free: each worker has one run queue,
//!   and a job's blocks are scattered round-robin over the workers, so a
//!   huge P=16384 job interleaves with a batch of small ablations — block
//!   run by block run — instead of walling them off. How many blocks a job
//!   gets is its share of the pool when it is admitted (see below).
//!
//! # Blocks
//!
//! A block is a contiguous range of ranks, one per shard of the job's
//! hub and read *from the hub* ([`crate::hub::Hub::shard_range`]). The
//! count is the job's rank share of the pool at admission: a job of
//! `P_job` ranks on `W` workers gets `ceil(W · P_job / P_resident)`
//! blocks, `P_resident` being the ranks of every unfinished job on the
//! pool, this one included; at least 1, at most `min(W, 64, P_job)`
//! ([`JobHandle::blocks`] reads it). A job alone
//! on its pool gets one block per worker; a batch of equal jobs runs its
//! first one across the pool and each later one as a single block, which
//! never parks, instead of splitting every job into blocks that park and
//! wake each other at each rendezvous. [`finalize`] releases the job's
//! ranks before it publishes the outcome, so a caller that joins and
//! resubmits finds the pool empty again. A running job is never re-split,
//! and an idle worker cannot help a running block: it only steals queued
//! ones.
//!
//! Queue entries, the state machine, the live count and stealing are per
//! block; a rank only owns a *ready flag*. One worker at a time drives a
//! block, so its shard lock is uncontended, a halo between two of its
//! ranks never leaves the worker, and a rendezvous costs `O(blocks)` queue
//! operations, not `O(ranks)`.
//!
//! A block sits in one run queue ([`SCHEDULED`]), is being run by one
//! worker ([`RUNNING`], [`NOTIFIED`]), or is parked ([`WAITING`]). The
//! worker that pops it polls its flagged ranks in rank order, pass after
//! pass — as the sequential scheduler drives a whole job — until a pass
//! ends with no wake having arrived since it began, then parks it. A
//! rank's waker sets the rank's flag, then makes at most one block
//! transition. `RUNNING → NOTIFIED` costs no queue traffic: the running
//! worker makes another pass. `WAITING → SCHEDULED` queues the block on
//! the *waking* worker's own queue once that poll returns (`WOKEN`), and
//! idle workers steal whole blocks from there. Both choices are measured:
//! queueing on the worker that last ran the block loses 10–18 % on batches
//! of small jobs (it drags every small job across all workers at every
//! rendezvous, where this rule lets it settle on one); queueing at once
//! lets a thief run the block dry and park it between two wakes of the
//! hub's wake loop, again and again — `O(ranks)` queue round trips per
//! rendezvous. Flag and state are two words, so the handshake is
//! store-then-load on both sides, all `SeqCst`: the waker stores the flag
//! and reads the state, the runner stores `RUNNING` and reads the flags —
//! either the pass sees the flag, or the waker sees `RUNNING` and leaves
//! `NOTIFIED`, which fails the runner's `RUNNING → WAITING` exchange and
//! buys the flag another pass.
//!
//! Deadlock detection is exact *and per job* (pool-wide "all workers idle"
//! would blame every in-flight job at once): each job counts its **live**
//! blocks — queued, being run, or woken mid-run. A rank is polled only
//! inside a run of its own block, wakes for a job only originate from
//! polls of that job's ranks (hub and mailboxes are per-job), and a wake
//! that takes a block out of `WAITING` increments the counter *inside* the
//! waking poll, before the waking block's own decrement. So a live count
//! of zero with unfinished blocks means no poll is in progress and none is
//! queued, hence no wake can ever arrive: the job fails with a
//! [`RunError::Deadlock`] naming the ranks whose futures are still there,
//! while unrelated jobs on the pool keep running. Counting blocks instead
//! of ranks loses nothing: a parked rank of a live block is either flagged
//! (the run in progress will poll it) or waiting for a wake that only a
//! live block can deliver.

use crate::ctx::SpmdCtx;
use crate::engine::{
    parse_workers, JobHandle, Launched, RunConfig, RunError, RunReport, RunShared,
};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::task::{Context, Poll, Wake, Waker};

/// Every rank of the block is parked; not queued, not being run. A wake
/// moves it to [`SCHEDULED`] and enqueues it.
const WAITING: u8 = 0;
/// The block sits in exactly one run queue. Wakes only set the rank's flag
/// (a run is coming).
const SCHEDULED: u8 = 1;
/// A worker is running the block. A wake moves it to [`NOTIFIED`].
const RUNNING: u8 = 2;
/// Woken *during* a pass: the running worker makes another pass instead of
/// parking the block.
const NOTIFIED: u8 = 3;
/// Every rank finished (or was abandoned after a panic/deadlock). Terminal.
const DONE: u8 = 4;

/// A rank future of one job, type-erased so jobs of different body types
/// share one pool ([`JobServer::submit`] boxes each rank's future).
pub(crate) type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// One queue entry: which job, which of its blocks.
type BlockRef = (Arc<Job>, usize);

struct SleepState {
    /// Workers/help-drivers currently parked (or about to park) on
    /// [`ServerCore::wakeup`].
    idle: usize,
    /// Tells workers to exit: every [`JobServer`] handle was dropped.
    shutdown: bool,
}

/// What a pool's scheduler did since it started, summed over its workers
/// ([`JobServer::stats`]). Counts, not times: they say how much queue
/// traffic and polling a workload cost, independent of the machine's load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Blocks taken off a run queue and run.
    pub block_runs: u64,
    /// Passes over a block's ready flags, all block runs together.
    pub passes: u64,
    /// Polls of rank futures.
    pub rank_polls: u64,
    /// Blocks pushed onto a run queue (a job's initial blocks and every
    /// wake that found its block parked).
    pub enqueues: u64,
    /// Blocks a worker took from another worker's queue.
    pub steals: u64,
    /// Block runs that ended with the block parked: every unfinished rank
    /// of it waiting for a wake.
    pub parks: u64,
}

/// The counters behind [`PoolStats`], in field order.
#[derive(Clone, Copy)]
enum Stat {
    BlockRuns,
    Passes,
    RankPolls,
    Enqueues,
    Steals,
    Parks,
}

/// One writer's counters, on a cache line of their own.
#[derive(Default)]
#[repr(align(64))]
struct StatCell([AtomicU64; 6]);

/// Scheduler state shared between the server's workers, its wakers, and
/// every outstanding [`JobHandle`].
pub(crate) struct ServerCore {
    /// Per-worker run queues (owner pops the front; thieves steal half).
    locals: Vec<Mutex<VecDeque<BlockRef>>>,
    /// Queue for submissions and wakes arriving from outside any worker.
    injector: Mutex<VecDeque<BlockRef>>,
    /// Worker threads actually running (spawn failures reduce it; `0`
    /// makes [`JobHandle::join`] drive the job on the joining thread).
    spawned: AtomicUsize,
    /// Rotates the worker a job's blocks start scattering from, so
    /// concurrent submissions don't all pile onto worker 0.
    seed_cursor: AtomicUsize,
    /// Ranks of every admitted job not yet finalized: the denominator of a
    /// newcomer's share of the workers ([`ServerCore::admit`]).
    resident: AtomicUsize,
    /// One cell per worker, written only by that worker, plus a last one
    /// every other thread (submitters, foreign help-drivers) shares.
    stats: Vec<StatCell>,
    sleep: Mutex<SleepState>,
    wakeup: Condvar,
}

/// One schedulable unit of a job: the ranks of one hub shard.
struct Block {
    /// First rank of the block; its ranks are `base..base + futures.len()`.
    base: usize,
    state: AtomicU8,
    /// The block's rank futures in rank order, `None` once finished. Held
    /// for a whole block run by the one worker the state machine admits,
    /// so never contended.
    futures: Mutex<Vec<Option<BoxFuture>>>,
}

/// One submitted run: per-job shared state (hub/mailboxes), the rank
/// futures in their blocks, and the block-state/liveness accounting that
/// drives per-job completion and deadlock detection.
struct Job {
    shared: Arc<RunShared>,
    /// One block per hub shard, in rank order.
    blocks: Vec<Block>,
    /// Per rank, "poll me": set by the rank's waker, cleared by the worker
    /// running its block just before the poll.
    ready: Vec<AtomicBool>,
    /// One waker per rank for the whole run (polls and hub/mailbox parks
    /// only clone it), keeping Arc churn off the hottest scheduler path.
    wakers: Vec<Waker>,
    /// Unfinished blocks; `0` means the job completed successfully.
    remaining: AtomicUsize,
    /// Blocks in [`SCHEDULED`]/[`RUNNING`]/[`NOTIFIED`]. Hitting `0` with
    /// `remaining > 0` proves the job can never progress (see module docs).
    live: AtomicUsize,
    /// Set on the first rank panic: its siblings are reaped, not polled.
    cancelled: AtomicBool,
    /// Guards [`finalize`] against the benign last-decrement races.
    finalized: AtomicBool,
    /// First panic payload observed (lowest rank wins).
    panics: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    /// Lock-free "result is in" flag for help-driving joiners.
    done: AtomicBool,
    result: Mutex<Option<Result<RunReport, JobFailure>>>,
    joined: Condvar,
}

enum JobFailure {
    Error(RunError),
    Panic(Box<dyn Any + Send>),
}

thread_local! {
    /// `(server, worker index)` of the pool worker running on this thread,
    /// so wakes land on the waking worker's own queue (locality) instead of
    /// the shared injector. `Weak` + restore-on-drop keeps nested runs
    /// (a rank body calling [`crate::engine::run`] itself) correct.
    static CURRENT_WORKER: RefCell<Option<(Weak<ServerCore>, usize)>> =
        const { RefCell::new(None) };

    /// Blocks the poll in progress on this worker thread has woken out of
    /// [`WAITING`], in wake order; [`run_block`] queues them the moment that
    /// poll returns (see the module docs for why not before).
    static WOKEN: RefCell<Vec<BlockRef>> = const { RefCell::new(Vec::new()) };
}

/// Marks the current thread as worker `idx` of `core` for the duration of
/// the guard, restoring the previous registration on drop.
struct WorkerRegistration {
    previous: Option<(Weak<ServerCore>, usize)>,
}

impl WorkerRegistration {
    fn enter(core: &Arc<ServerCore>, idx: usize) -> Self {
        let previous =
            CURRENT_WORKER.with(|cw| cw.borrow_mut().replace((Arc::downgrade(core), idx)));
        Self { previous }
    }
}

impl Drop for WorkerRegistration {
    fn drop(&mut self) {
        CURRENT_WORKER.with(|cw| *cw.borrow_mut() = self.previous.take());
    }
}

/// Waker of one rank of one job. Holds the job weakly: parked wakers live
/// inside the job's own hub/mailboxes, and a strong reference would keep a
/// finished job (and its rank futures) alive through its own shared state.
/// A stale wake after the job is gone simply fails the upgrade.
struct RankWaker {
    core: Arc<ServerCore>,
    job: Weak<Job>,
    block: usize,
    rank: usize,
}

impl Wake for RankWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if let Some(job) = self.job.upgrade() {
            // Flag first, block transition second (see the module docs).
            job.ready[self.rank].store(true, Ordering::SeqCst);
            schedule(&self.core, &job, self.block);
        }
    }
}

/// Transition `block` of `job` towards a pass after one of its ranks was
/// flagged. Guarantees at most one queue entry and one runner per block,
/// and counts the block live the moment it wins the WAITING→SCHEDULED
/// transition — synchronously inside the waking poll, which is what makes
/// the per-job live counter an exact quiescence detector.
fn schedule(core: &Arc<ServerCore>, job: &Arc<Job>, block: usize) {
    let state = &job.blocks[block].state;
    loop {
        let (seen, next) = match state.load(Ordering::SeqCst) {
            WAITING => (WAITING, SCHEDULED),
            RUNNING => (RUNNING, NOTIFIED),
            // SCHEDULED | NOTIFIED: a pass is already due. DONE: stale.
            _ => return,
        };
        if state.compare_exchange(seen, next, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            if next == SCHEDULED {
                job.live.fetch_add(1, Ordering::AcqRel);
                core.push(job, block);
            }
            return;
        }
    }
}

impl ServerCore {
    /// Empty queues for `workers` workers, none of them started yet.
    fn new(workers: usize) -> Self {
        Self {
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            spawned: AtomicUsize::new(0),
            seed_cursor: AtomicUsize::new(0),
            resident: AtomicUsize::new(0),
            stats: (0..=workers).map(|_| StatCell::default()).collect(),
            sleep: Mutex::new(SleepState { idle: 0, shutdown: false }),
            wakeup: Condvar::new(),
        }
    }

    /// This thread's worker index on *this* server, if it is one.
    fn current_worker(self: &Arc<Self>) -> Option<usize> {
        CURRENT_WORKER.with(|cw| {
            cw.borrow().as_ref().and_then(|(core, idx)| {
                core.upgrade().filter(|c| Arc::ptr_eq(c, self)).map(|_| *idx)
            })
        })
    }

    /// Add `n` to `stat` on behalf of worker `me` (`None`: any other
    /// thread). A worker's cell has a single writer, so a plain load and
    /// store do; the shared cell needs the read-modify-write.
    fn count(&self, me: Option<usize>, stat: Stat, n: u64) {
        match me {
            Some(worker) => {
                let counter = &self.stats[worker].0[stat as usize];
                counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
            }
            None => {
                self.stats[self.locals.len()].0[stat as usize].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Route a freshly [`SCHEDULED`] block towards a run queue. A worker
    /// thread only ever wakes from inside a poll (it runs nothing else), so
    /// its wakes are staged in [`WOKEN`] until that poll returns; any other
    /// thread pushes to the injector at once.
    fn push(self: &Arc<Self>, job: &Arc<Job>, block: usize) {
        let entry = (Arc::clone(job), block);
        if self.current_worker().is_some() {
            WOKEN.with(|woken| woken.borrow_mut().push(entry));
        } else {
            self.injector.lock().push_back(entry);
            self.count(None, Stat::Enqueues, 1);
            self.rouse(1);
        }
    }

    /// Queue what the poll that just returned on worker `me` woke — on
    /// that worker's own queue (idle workers steal from there).
    fn publish_woken(&self, me: usize) {
        WOKEN.with(|woken| {
            let mut woken = woken.borrow_mut();
            if woken.is_empty() {
                return;
            }
            let blocks = woken.len();
            self.locals[me].lock().extend(woken.drain(..));
            self.count(Some(me), Stat::Enqueues, blocks as u64);
            self.rouse(blocks);
        });
    }

    /// Wake sleeping workers for `blocks` newly queued blocks.
    fn rouse(&self, blocks: usize) {
        let sleep = self.sleep.lock();
        if sleep.idle > 0 {
            if blocks == 1 {
                self.wakeup.notify_one();
            } else {
                self.wakeup.notify_all();
            }
        }
    }

    /// Count a job of `ranks` ranks resident until [`finalize`] and return
    /// its block count: its rank share of the workers, `ceil(W · ranks /
    /// resident)` with this job counted in, within `1..=cap`.
    fn admit(&self, ranks: usize, cap: usize) -> usize {
        let resident = self.resident.fetch_add(ranks, Ordering::AcqRel) + ranks;
        (self.locals.len() * ranks).div_ceil(resident).clamp(1, cap)
    }

    /// Scatter a fresh job's blocks round-robin over all workers
    /// (interleaving it with already-resident jobs) and rouse everyone.
    fn seed(self: &Arc<Self>, job: &Arc<Job>) {
        let entries = (0..job.blocks.len()).map(|block| (Arc::clone(job), block));
        if self.spawned.load(Ordering::Acquire) == 0 {
            self.injector.lock().extend(entries);
        } else {
            let workers = self.locals.len();
            let start = self.seed_cursor.fetch_add(1, Ordering::Relaxed) % workers;
            for (block, entry) in entries.enumerate() {
                self.locals[(start + block) % workers].lock().push_back(entry);
            }
        }
        self.count(self.current_worker(), Stat::Enqueues, job.blocks.len() as u64);
        self.rouse(job.blocks.len());
    }

    /// Next block for this thread: own queue (workers only), then the
    /// injector, then steal from the first non-empty sibling queue.
    fn find_block(&self, me: Option<usize>) -> Option<BlockRef> {
        if let Some(me) = me {
            if let Some(entry) = self.locals[me].lock().pop_front() {
                return Some(entry);
            }
        }
        if let Some(entry) = self.injector.lock().pop_front() {
            return Some(entry);
        }
        let n = self.locals.len();
        let base = me.map_or(0, |m| m + 1);
        for offset in 0..n {
            let victim = (base + offset) % n;
            if Some(victim) == me {
                continue;
            }
            // Steal half of the victim's queue; the victim lock is released
            // before touching our own queue, so two workers stealing from
            // each other cannot deadlock.
            let stolen: Vec<BlockRef> = {
                let mut queue = self.locals[victim].lock();
                let take = if me.is_some() { queue.len().div_ceil(2) } else { queue.len().min(1) };
                queue.drain(..take).collect()
            };
            let mut stolen = stolen.into_iter();
            if let Some(first) = stolen.next() {
                self.count(me, Stat::Steals, 1 + stolen.len() as u64);
                if let Some(me) = me {
                    self.locals[me].lock().extend(stolen);
                }
                return Some(first);
            }
        }
        None
    }

    fn has_queued(&self) -> bool {
        !self.injector.lock().is_empty() || self.locals.iter().any(|q| !q.lock().is_empty())
    }

    /// Sleep until work may be available. Returns `false` when the worker
    /// should exit (server shut down). No deadlock judgement happens here:
    /// a job's quiescence is detected by its own live counter, not by
    /// pool-wide idleness.
    fn park(&self) -> bool {
        let mut sleep = self.sleep.lock();
        sleep.idle += 1;
        loop {
            if sleep.shutdown {
                sleep.idle -= 1;
                return false;
            }
            if self.has_queued() {
                sleep.idle -= 1;
                return true;
            }
            self.wakeup.wait(&mut sleep);
        }
    }

    fn initiate_shutdown(&self) {
        let mut sleep = self.sleep.lock();
        sleep.shutdown = true;
        self.wakeup.notify_all();
    }
}

/// The job's live count hit zero: nothing of it is queued, running, or
/// wakeable, so its outcome is decided. Exactly one caller proceeds past
/// the `finalized` guard (the counter can hand "last decrement" to two
/// racing paths when completion and a final wake interleave).
fn finalize(core: &Arc<ServerCore>, job: &Arc<Job>) {
    if job.finalized.swap(true, Ordering::AcqRel) {
        return;
    }
    // Released before the outcome is published, so a caller that joins and
    // resubmits finds the pool's share free again.
    core.resident.fetch_sub(job.ready.len(), Ordering::AcqRel);
    let panic = job.panics.lock().take();
    let outcome = if let Some((_, payload)) = panic {
        reap_unfinished(job);
        Err(JobFailure::Panic(payload))
    } else if job.remaining.load(Ordering::Acquire) == 0 {
        Ok(job.shared.build_report())
    } else {
        // Quiescent with unfinished blocks: a deadlock. The blocked ranks
        // are exactly those whose futures are still there.
        Err(JobFailure::Error(job.shared.deadlock(reap_unfinished(job))))
    };
    {
        let mut result = job.result.lock();
        *result = Some(outcome);
    }
    job.done.store(true, Ordering::Release);
    job.joined.notify_all();
    // Rouse parked help-driving joiners of other jobs too; they re-check
    // their own job's `done` flag and go back to sleep if it isn't theirs.
    let _sleep = core.sleep.lock();
    core.wakeup.notify_all();
}

/// Drop the future of every unfinished rank and return those ranks, in rank
/// order (safe at live == 0: no block is being run, so every block lock is
/// free). Their `SpmdCtx` drop handlers record final clocks, which is
/// harmless — the job's outcome is already decided.
fn reap_unfinished(job: &Job) -> Vec<usize> {
    let mut unfinished = Vec::new();
    for block in &job.blocks {
        for (slot, rank) in block.futures.lock().iter_mut().zip(block.base..) {
            if slot.take().is_some() {
                unfinished.push(rank);
            }
        }
        block.state.store(DONE, Ordering::Release);
    }
    unfinished
}

/// Run one queued block of one job on behalf of worker `me`: poll its
/// flagged ranks in rank order, pass after pass, until every rank of it is
/// parked or finished.
fn run_block(core: &Arc<ServerCore>, me: Option<usize>, entry: BlockRef) {
    let (job, index) = entry;
    let block = &job.blocks[index];
    let mut futures = block.futures.lock();
    let (mut passes, mut polls) = (0, 0);
    let end = 'run: loop {
        // The block came out of a queue (SCHEDULED) or was woken during the
        // previous pass (NOTIFIED). Every flag stored before this store is
        // seen by the pass below; every later one finds RUNNING and leaves
        // NOTIFIED behind (see the module docs).
        block.state.store(RUNNING, Ordering::SeqCst);
        if job.cancelled.load(Ordering::Acquire) {
            // A rank of the job panicked: reap instead of polling, so the
            // whole job winds down without running half-broken collectives.
            futures.iter_mut().for_each(|slot| *slot = None);
            break DONE;
        }
        passes += 1;
        let mut unfinished = 0;
        for (slot, rank) in futures.iter_mut().zip(block.base..) {
            let Some(future) = slot.as_mut() else { continue };
            if job.ready[rank].load(Ordering::SeqCst) {
                // Cleared before the poll, so a wake the poll itself
                // provokes (or races with) flags the rank again.
                job.ready[rank].store(false, Ordering::Relaxed);
                polls += 1;
                let mut cx = Context::from_waker(&job.wakers[rank]);
                let polled = catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx)));
                if let Some(me) = me {
                    core.publish_woken(me);
                }
                match polled {
                    Ok(Poll::Pending) => {}
                    Ok(Poll::Ready(())) => {
                        *slot = None;
                        continue;
                    }
                    Err(payload) => {
                        // Record the payload (lowest rank wins) and cancel
                        // the job; join() re-raises it.
                        *slot = None;
                        let mut first = job.panics.lock();
                        if first.as_ref().is_none_or(|(prior, _)| rank < *prior) {
                            *first = Some((rank, payload));
                        }
                        job.cancelled.store(true, Ordering::Release);
                        continue 'run;
                    }
                }
            }
            unfinished += 1;
        }
        if unfinished == 0 {
            break DONE;
        }
        // Every unfinished rank returned `Pending` with its waker parked.
        // If no wake arrived since the pass began, park the block; else
        // (NOTIFIED) some flag may have been set behind the scan.
        if block
            .state
            .compare_exchange(RUNNING, WAITING, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            break WAITING;
        }
    };
    drop(futures);
    core.count(me, Stat::BlockRuns, 1);
    core.count(me, Stat::Passes, passes);
    core.count(me, Stat::RankPolls, polls);
    if end == DONE {
        block.state.store(DONE, Ordering::Release);
        job.remaining.fetch_sub(1, Ordering::AcqRel);
    } else {
        core.count(me, Stat::Parks, 1);
    }
    // Parked or done, the block is no longer live. If it was the job's last
    // live block, no wake can ever arrive (wakes only come from this job's
    // own polls): the job is complete, or deadlocked — report it instead of
    // sleeping forever.
    if job.live.fetch_sub(1, Ordering::AcqRel) == 1 {
        finalize(core, &job);
    }
}

fn worker_loop(core: Arc<ServerCore>, me: usize) {
    let _registration = WorkerRegistration::enter(&core, me);
    loop {
        while let Some(entry) = core.find_block(Some(me)) {
            run_block(&core, Some(me), entry);
        }
        if !core.park() {
            return;
        }
    }
}

/// Shuts the worker threads down when the last [`JobServer`] clone *and*
/// the last outstanding [`JobHandle`] are gone (both hold the guard).
struct ServerGuard {
    core: Arc<ServerCore>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.core.initiate_shutdown();
    }
}

/// A long-lived work-stealing worker pool that admits many concurrent SPMD
/// jobs. Cloning is cheap and shares the pool; the worker threads exit when
/// the last clone and the last outstanding [`JobHandle`] are dropped.
///
/// [`crate::submit`] routes every [`crate::Backend::Parallel`] run to a
/// server: an explicit one ([`crate::RunConfig::with_server`]), the
/// process-wide default ([`JobServer::global`]) when no worker count is
/// forced, or a transient private pool when one is
/// ([`crate::RunConfig::with_workers`]).
#[derive(Clone)]
pub struct JobServer {
    core: Arc<ServerCore>,
    guard: Arc<ServerGuard>,
}

impl std::fmt::Debug for JobServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobServer").field("workers", &self.workers()).finish()
    }
}

impl JobServer {
    /// Start a server with `workers` worker threads (`0` = the machine's
    /// available parallelism). Threads are started immediately and idle
    /// until jobs arrive.
    pub fn new(workers: usize) -> Self {
        let workers = if workers > 0 {
            workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        let core = Arc::new(ServerCore::new(workers));
        let mut spawned = 0;
        for worker in 0..workers {
            let spawn = std::thread::Builder::new().name(format!("ulba-server-{worker}")).spawn({
                let core = Arc::clone(&core);
                move || worker_loop(core, worker)
            });
            if spawn.is_ok() {
                spawned += 1;
            }
            // A failed spawn only costs parallelism, never correctness:
            // work seeded to a dead worker's queue is stolen by the rest,
            // and with zero workers join() drives jobs itself.
        }
        core.spawned.store(spawned, Ordering::Release);
        let guard = Arc::new(ServerGuard { core: Arc::clone(&core) });
        Self { core, guard }
    }

    /// The process-wide default server, started on first use. Sized by
    /// `ULBA_WORKERS` (if set and nonzero) or the machine's available
    /// parallelism — the one reader of that variable; lives for the rest
    /// of the process.
    pub fn global() -> &'static JobServer {
        static GLOBAL: OnceLock<JobServer> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            JobServer::new(
                parse_workers(std::env::var("ULBA_WORKERS").ok().as_deref()).unwrap_or(0),
            )
        })
    }

    /// Worker threads of this server.
    pub fn workers(&self) -> usize {
        self.core.locals.len()
    }

    /// What this pool's scheduler has done since it started: every
    /// worker's counters (and those of non-worker threads) summed. Always
    /// on; a worker only ever writes its own cache line.
    pub fn stats(&self) -> PoolStats {
        let sum = |stat: Stat| {
            self.core.stats.iter().map(|cell| cell.0[stat as usize].load(Ordering::Relaxed)).sum()
        };
        PoolStats {
            block_runs: sum(Stat::BlockRuns),
            passes: sum(Stat::Passes),
            rank_polls: sum(Stat::RankPolls),
            enqueues: sum(Stat::Enqueues),
            steals: sum(Stat::Steals),
            parks: sum(Stat::Parks),
        }
    }

    /// Submit `body` as an SPMD job over `config.ranks` ranks; returns
    /// immediately with a handle. The job runs on this server's workers
    /// regardless of `config.backend`, with its own hub/mailbox namespace
    /// and job id, cut into one block per hub shard: its rank share of this
    /// server's workers at admission, at most 64 and one per rank (see the
    /// module docs; [`JobHandle::blocks`] reads the count). See
    /// [`crate::submit`] for the body contract; the future must be
    /// `'static` because it outlives the submitting stack frame.
    pub fn submit<F, Fut>(&self, config: RunConfig, body: F) -> JobHandle
    where
        F: Fn(SpmdCtx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        assert!(config.ranks >= 1, "need at least one rank");
        let ranks = config.ranks;
        // The share never exceeds this pool's workers, whichever pool the
        // config itself would route to.
        let shards = self.core.admit(ranks, ranks.min(64));
        let shared = RunShared::new(&config, shards, false);
        let core = Arc::clone(&self.core);
        let blocks: Vec<Block> = (0..shared.hub.shard_count())
            .map(|shard| {
                let range = shared.hub.shard_range(shard);
                let base = range.start;
                let futures = range
                    .map(|rank| {
                        let ctx = SpmdCtx::new(rank, ranks, Arc::clone(&shared));
                        Some(Box::pin(body(ctx)) as BoxFuture)
                    })
                    .collect();
                Block { base, state: AtomicU8::new(SCHEDULED), futures: Mutex::new(futures) }
            })
            .collect();
        let job = Arc::new_cyclic(|weak: &Weak<Job>| Job {
            // Every rank starts flagged and every block queued.
            ready: (0..ranks).map(|_| AtomicBool::new(true)).collect(),
            wakers: (0..ranks)
                .map(|rank| {
                    Waker::from(Arc::new(RankWaker {
                        core: Arc::clone(&core),
                        job: weak.clone(),
                        block: shared.hub.shard_of(rank),
                        rank,
                    }))
                })
                .collect(),
            remaining: AtomicUsize::new(blocks.len()),
            live: AtomicUsize::new(blocks.len()),
            blocks,
            cancelled: AtomicBool::new(false),
            finalized: AtomicBool::new(false),
            panics: Mutex::new(None),
            done: AtomicBool::new(false),
            result: Mutex::new(None),
            joined: Condvar::new(),
            shared,
        });
        self.core.seed(&job);
        JobHandle { job: Launched::Pool(PoolJob { core, job, _guard: Arc::clone(&self.guard) }) }
    }
}

/// An in-flight job on a [`JobServer`] — the pool half of a [`JobHandle`].
/// Holding it keeps the server's workers alive even if the server itself
/// is dropped.
pub(crate) struct PoolJob {
    core: Arc<ServerCore>,
    job: Arc<Job>,
    _guard: Arc<ServerGuard>,
}

impl PoolJob {
    pub(crate) fn id(&self) -> u64 {
        self.job.shared.job_id()
    }

    pub(crate) fn is_done(&self) -> bool {
        self.job.done.load(Ordering::Acquire)
    }

    pub(crate) fn blocks(&self) -> usize {
        self.job.blocks.len()
    }

    /// Block until the job finishes and return its report. If the joining
    /// thread is itself one of this server's workers (a rank body
    /// submitting nested jobs), it helps drive the pool instead of
    /// blocking it.
    pub(crate) fn join(self) -> Result<RunReport, RunError> {
        let me = self.core.current_worker();
        if me.is_some() || self.core.spawned.load(Ordering::Acquire) == 0 {
            self.help_drive(me);
        } else {
            // Wait on `done`, not on the result slot alone: a consumed
            // result (double-join race) would otherwise park this thread
            // forever — finalize publishes the outcome before flipping
            // `done`, so `done` + empty slot can only mean "consumed".
            let mut result = self.job.result.lock();
            while result.is_none() && !self.job.done.load(Ordering::Acquire) {
                self.job.joined.wait(&mut result);
            }
        }
        // A finished job always publishes its outcome before flipping
        // `done`, but a raced double-join (through a leaked raw handle) or
        // a finalizing worker dying between the flag and the publish would
        // leave the slot empty — report that structurally rather than
        // panicking the joining thread.
        let Some(outcome) = self.job.result.lock().take() else {
            return Err(RunError::ResultMissing { job: self.job.shared.job_id() });
        };
        match outcome {
            Ok(report) => Ok(report),
            Err(JobFailure::Error(err)) => Err(err),
            Err(JobFailure::Panic(payload)) => std::panic::resume_unwind(payload),
        }
    }

    /// Run pool blocks (any job's) until our job finishes.
    fn help_drive(&self, me: Option<usize>) {
        loop {
            if self.job.done.load(Ordering::Acquire) {
                return;
            }
            if let Some(entry) = self.core.find_block(me) {
                run_block(&self.core, me, entry);
                continue;
            }
            let mut sleep = self.core.sleep.lock();
            if self.job.done.load(Ordering::Acquire) {
                return;
            }
            if self.core.has_queued() {
                continue;
            }
            sleep.idle += 1;
            self.core.wakeup.wait(&mut sleep);
            sleep.idle -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a finished job whose outcome was consumed out from
    /// under the handle (the double-join race) used to `expect`-panic the
    /// joining thread; it must surface as [`RunError::ResultMissing`].
    #[test]
    fn consumed_result_is_a_structured_error_not_a_panic() {
        let server = JobServer::new(1);
        let handle = server.submit(RunConfig::new(2), |mut ctx| async move {
            ctx.barrier().await;
        });
        let Launched::Pool(handle) = handle.job else {
            unreachable!("a server's jobs are pool jobs")
        };
        while !handle.is_done() {
            std::thread::yield_now();
        }
        let consumed = handle.job.result.lock().take();
        assert!(consumed.is_some(), "finished job published a result");
        match handle.join() {
            Err(RunError::ResultMissing { job }) => assert!(job >= 1),
            other => panic!("expected ResultMissing, got {other:?}"),
        }
    }

    /// A server with `workers` run queues whose threads never start, so the
    /// queues can be inspected before anything runs.
    fn unstarted(workers: usize) -> JobServer {
        let core = Arc::new(ServerCore::new(workers));
        core.spawned.store(workers, Ordering::Release);
        let guard = Arc::new(ServerGuard { core: Arc::clone(&core) });
        JobServer { core, guard }
    }

    /// The `(job id, block)` entries of each worker's run queue, in order.
    fn queued(server: &JobServer) -> Vec<Vec<(u64, usize)>> {
        let entries = |queue: &Mutex<VecDeque<BlockRef>>| {
            queue.lock().iter().map(|(job, i)| (job.shared.job_id(), *i)).collect()
        };
        server.core.locals.iter().map(entries).collect()
    }

    /// Submit one barrier job per entry of `ranks` to `server`.
    fn submit_all(server: &JobServer, ranks: &[usize]) -> Vec<JobHandle> {
        let body = |mut ctx: SpmdCtx| async move { ctx.barrier().await };
        ranks
            .iter()
            .map(|&ranks| server.submit(RunConfig::new(ranks).with_server(server.clone()), body))
            .collect()
    }

    /// Drive the queues from this thread, as a joiner with no workers does,
    /// and check every job completes with all its ranks.
    fn drain_and_join(server: &JobServer, jobs: Vec<JobHandle>, ranks: &[usize]) {
        while let Some(entry) = server.core.find_block(None) {
            run_block(&server.core, None, entry);
        }
        for (job, &ranks) in jobs.into_iter().zip(ranks) {
            assert_eq!(job.join().expect("completes").rank_metrics.len(), ranks);
        }
    }

    /// A job's blocks are its rank share of the workers at admission,
    /// `ceil(W · P_job / P_resident)`: alone it gets one per worker, behind
    /// a resident job of its size half that, and a larger job more.
    #[test]
    fn a_job_is_admitted_with_its_rank_share_of_the_workers() {
        let server = unstarted(2);
        let ranks = [16, 16, 48];
        let jobs = submit_all(&server, &ranks);
        assert_eq!(jobs.iter().map(JobHandle::blocks).collect::<Vec<_>>(), [2, 1, 2]);
        let mut per_job = [0; 3];
        for (id, _) in queued(&server).into_iter().flatten() {
            per_job[jobs.iter().position(|job| job.id() == id).expect("a submitted job")] += 1;
        }
        assert_eq!(per_job, [2, 1, 2], "blocks() counts the queued entries");
        drain_and_join(&server, jobs, &ranks);
    }

    /// Admission is FIFO: each job's blocks are dealt round-robin over the
    /// workers' queues, starting one worker further on per job, behind every
    /// block of the jobs submitted before it — no lane lets a later job
    /// overtake.
    #[test]
    fn blocks_are_dealt_round_robin_behind_earlier_jobs() {
        let server = unstarted(3);
        let ranks = [3, 6, 2];
        let jobs = submit_all(&server, &ranks);
        let &[a, b, c] = &jobs.iter().map(JobHandle::id).collect::<Vec<_>>()[..] else {
            unreachable!("three jobs")
        };
        let expected = vec![vec![(a, 0)], vec![(a, 1), (b, 0)], vec![(a, 2), (b, 1), (c, 0)]];
        assert_eq!(queued(&server), expected, "3, 2 and 1 blocks: each job's share of 3 workers");
        drain_and_join(&server, jobs, &ranks);
    }

    /// The blocks a barrier job of `config` was admitted with.
    fn blocks(config: RunConfig) -> usize {
        let job = crate::submit(config, |mut ctx: SpmdCtx| async move { ctx.barrier().await });
        let blocks = job.blocks();
        job.join().expect("completes");
        blocks
    }

    /// Without a server or a worker count, a run goes to the global pool,
    /// which the machine sizes when `ULBA_WORKERS` is unset; a private pool
    /// never outnumbers its ranks.
    #[test]
    fn an_unsized_pool_is_the_machine_and_never_outnumbers_the_ranks() {
        // Other tests' jobs may be resident on the global pool and take
        // their share of it: one block per worker is the most this one gets.
        let global = JobServer::global().workers().min(64);
        assert!((1..=global).contains(&blocks(RunConfig::defaults(4096))));
        assert_eq!(blocks(RunConfig::defaults(1)), 1);
        assert_eq!(blocks(RunConfig::defaults(16).with_workers(3)), 3);
        assert_eq!(blocks(RunConfig::defaults(2).with_workers(8)), 2);
    }

    /// A job alone on a pool of more than 64 workers gets 64 blocks (the
    /// pool is never started: no thread is spawned).
    #[test]
    fn blocks_cap_at_64() {
        let server = unstarted(65);
        let jobs = submit_all(&server, &[512]);
        assert_eq!(jobs[0].blocks(), 64);
        drain_and_join(&server, jobs, &[512]);
    }
}
