//! The job server: a long-lived work-stealing pool that admits many
//! concurrent SPMD jobs.
//!
//! A [`JobServer`] owns `M` worker threads for its whole lifetime and
//! multiplexes any number of submitted jobs over them:
//!
//! * [`JobServer::submit`] turns a [`RunConfig`] + rank body into a [`Job`]
//!   — one future per rank, a per-job [`RunShared`] (hub, mailboxes,
//!   collector), and a per-job task-state table — and seeds the run queues.
//!   It returns a [`JobHandle`] immediately; [`JobHandle::join`] blocks for
//!   the job's [`RunReport`].
//! * Each job gets its *own* hub/mailbox namespace (its `RunShared`), so
//!   two jobs' collective rendezvous can never alias, and its own job id
//!   for diagnostics.
//! * Admission is priority-ordered and starvation-free: run queues hold one
//!   lane per [`Priority`]; workers drain higher lanes first, and a job's
//!   initial tasks are scattered round-robin over all workers so a huge
//!   P=16384 job interleaves with a batch of small ablations instead of
//!   walling them off.
//!
//! Task lifecycle: each rank future carries an atomic state so that a task
//! is never in a run queue twice and never polled by two workers at once. A
//! wake during a poll sets [`NOTIFIED`], and the polling worker reschedules
//! the task itself after `Poll::Pending` — the standard executor handshake
//! that closes the wake-while-polling race.
//!
//! Deadlock detection is exact *and per job* (pool-wide "all workers idle"
//! would blame every in-flight job at once): each job counts its **live**
//! tasks — those queued ([`SCHEDULED`]), being polled ([`RUNNING`]), or
//! woken mid-poll ([`NOTIFIED`]). Wakes for a job only originate from polls
//! of that same job's tasks (the hub and mailboxes are per-job), and a wake
//! increments the counter *inside* the waking poll, before that poll's own
//! decrement. So when a job's live count hits zero with unfinished tasks
//! remaining, no wake can ever arrive: the job is reported as a
//! [`RunError::Deadlock`] tagged with its job id, while unrelated jobs on
//! the same pool keep running.

use crate::ctx::SpmdCtx;
use crate::engine::{JobHandle, Launched, RunConfig, RunError, RunReport, RunShared};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::task::{Context, Poll, Wake, Waker};

/// Task is blocked; not queued, not being polled. A wake moves it to
/// [`SCHEDULED`] and enqueues it.
const WAITING: u8 = 0;
/// Task sits in exactly one run queue. Wakes are no-ops (a poll is coming).
const SCHEDULED: u8 = 1;
/// A worker is polling the task. A wake moves it to [`NOTIFIED`].
const RUNNING: u8 = 2;
/// Woken *during* its poll: the polling worker re-enqueues it if the poll
/// returns `Pending`.
const NOTIFIED: u8 = 3;
/// Completed (or abandoned after a panic/deadlock). Terminal.
const DONE: u8 = 4;

/// Admission priority of a job on a shared [`JobServer`]: queue lanes are
/// drained strictly high-to-low, so a `High` job's ready tasks always run
/// before a `Normal` job's. Within one lane, jobs interleave (a job's
/// initial tasks are scattered over all workers), which keeps one huge job
/// from starving a batch of small ones at equal priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Drained first — small interactive jobs riding along a big sweep.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Background work: only runs when the other lanes are empty.
    Low,
}

/// Number of queue lanes (one per [`Priority`] variant).
const LANES: usize = 3;

impl Priority {
    fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        })
    }
}

impl std::str::FromStr for Priority {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        match s.to_ascii_lowercase().as_str() {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            _ => Err(()),
        }
    }
}

/// A rank future of one job, type-erased so jobs of different body types
/// share one pool ([`JobServer::submit`] boxes each rank's future).
pub(crate) type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// One queue entry: which job, which of its tasks.
type TaskRef = (Arc<Job>, usize);

/// One run queue: a FIFO lane per [`Priority`].
type Lanes = [VecDeque<TaskRef>; LANES];

fn pop_lanes(lanes: &mut Lanes) -> Option<TaskRef> {
    lanes.iter_mut().find_map(VecDeque::pop_front)
}

fn lanes_empty(lanes: &Lanes) -> bool {
    lanes.iter().all(VecDeque::is_empty)
}

struct SleepState {
    /// Workers/help-drivers currently parked (or about to park) on
    /// [`ServerCore::wakeup`].
    idle: usize,
    /// Tells workers to exit: every [`JobServer`] handle was dropped.
    shutdown: bool,
}

/// Scheduler state shared between the server's workers, its wakers, and
/// every outstanding [`JobHandle`].
pub(crate) struct ServerCore {
    /// Per-worker run queues (owner pops the front; thieves steal half).
    locals: Vec<Mutex<Lanes>>,
    /// Queue for submissions and wakes arriving from outside any worker.
    injector: Mutex<Lanes>,
    /// Worker threads actually running (spawn failures reduce it; `0`
    /// makes [`JobHandle::join`] drive the job on the joining thread).
    spawned: AtomicUsize,
    /// Rotates the worker a job's initial tasks start scattering from, so
    /// concurrent submissions don't all pile onto worker 0.
    seed_cursor: AtomicUsize,
    sleep: Mutex<SleepState>,
    wakeup: Condvar,
}

/// One submitted run: per-job shared state (hub/mailboxes), the rank
/// futures, and the task-state/liveness accounting that drives per-job
/// completion and deadlock detection.
struct Job {
    shared: Arc<RunShared>,
    priority: Priority,
    slots: Vec<Mutex<Option<BoxFuture>>>,
    states: Vec<AtomicU8>,
    /// Unfinished tasks; `0` means the job completed successfully.
    remaining: AtomicUsize,
    /// Tasks in [`SCHEDULED`]/[`RUNNING`]/[`NOTIFIED`]. Hitting `0` with
    /// `remaining > 0` proves the job can never progress (see module docs).
    live: AtomicUsize,
    /// Set on the first rank panic: queued siblings are reaped, not polled.
    cancelled: AtomicBool,
    /// Guards [`finalize`] against the benign last-decrement races.
    finalized: AtomicBool,
    /// First panic payload observed (lowest task id wins).
    panics: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    /// One waker per task for the whole run (polls and hub/mailbox parks
    /// only clone it), keeping Arc churn off the hottest scheduler path.
    wakers: Vec<Waker>,
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

    /// Shard-affine wake batching: while `Some`, a [`JobTaskWaker`] wake
    /// that wins its WAITING→SCHEDULED transition defers the queue push
    /// into this buffer instead of locking a run queue per task. The
    /// sharded hub wakes whole shards at once (round completion, entry
    /// reopening); [`wake_batched`] flushes each batch under a single
    /// queue lock.
    static WAKE_BATCH: RefCell<Option<Vec<DeferredWake>>> = const { RefCell::new(None) };
}

/// One deferred wake: the server and job whose task was marked SCHEDULED,
/// and the task index awaiting its queue push.
type DeferredWake = (Arc<ServerCore>, Arc<Job>, usize);

/// Wake a set of wakers, batching the pushes of tasks that belong to a job
/// server: the state transitions (which deduplicate concurrent wakes) still
/// happen one by one, but all resulting run-queue insertions of one server
/// land under a single queue lock, and sleeping workers are roused once per
/// batch instead of once per task. Other wakers (the sequential
/// scheduler's no-op waker) are simply woken in order.
pub(crate) fn wake_batched(wakers: Vec<Waker>) {
    if wakers.len() <= 1 {
        for waker in wakers {
            waker.wake();
        }
        return;
    }
    let previous = WAKE_BATCH.with(|b| b.borrow_mut().replace(Vec::new()));
    for waker in wakers {
        waker.wake();
    }
    // The slot was installed above, so `take()` only yields `None` if a
    // waker cleared it behind our back; treating that as an empty batch
    // (every such wake already ran unbatched through its state
    // transition) beats panicking mid-wake with shard locks released.
    let mut batch = WAKE_BATCH.with(|b| {
        let mut slot = b.borrow_mut();
        let batch = slot.take();
        *slot = previous;
        batch.unwrap_or_default()
    });
    // Flush per server (in practice one), preserving FIFO order so batched
    // wakes are polled in the order the hub issued them (shard by shard).
    while !batch.is_empty() {
        let core = Arc::clone(&batch[0].0);
        let mut entries = Vec::new();
        batch.retain(|(c, job, task)| {
            if Arc::ptr_eq(c, &core) {
                entries.push((Arc::clone(job), *task));
                false
            } else {
                true
            }
        });
        core.push_batch(entries);
    }
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

/// Waker of one task of one job. Holds the job weakly: parked wakers live
/// inside the job's own hub/mailboxes, and a strong reference would keep a
/// finished job (and its rank futures) alive through its own shared state.
/// A stale wake after the job is gone simply fails the upgrade.
struct JobTaskWaker {
    core: Arc<ServerCore>,
    job: Weak<Job>,
    task: usize,
}

impl Wake for JobTaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if let Some(job) = self.job.upgrade() {
            schedule(&self.core, &job, self.task);
        }
    }
}

/// Transition `task` of `job` towards a poll after a wake. Guarantees at
/// most one queue entry and one poller per task, and counts the task live
/// the moment it wins the WAITING→SCHEDULED transition — synchronously
/// inside the waking poll, which is what makes the per-job live counter an
/// exact quiescence detector.
fn schedule(core: &Arc<ServerCore>, job: &Arc<Job>, task: usize) {
    loop {
        match job.states[task].load(Ordering::Acquire) {
            WAITING => {
                if job.states[task]
                    .compare_exchange(WAITING, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    job.live.fetch_add(1, Ordering::AcqRel);
                    enqueue(core, job, task);
                    return;
                }
            }
            RUNNING => {
                if job.states[task]
                    .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return;
                }
            }
            // SCHEDULED | NOTIFIED: a poll is already due. DONE: stale.
            _ => return,
        }
    }
}

/// Route a freshly [`SCHEDULED`] task to the active wake batch if one is
/// open on this thread, else push it immediately.
fn enqueue(core: &Arc<ServerCore>, job: &Arc<Job>, task: usize) {
    let deferred = WAKE_BATCH.with(|b| match b.borrow_mut().as_mut() {
        Some(batch) => {
            batch.push((Arc::clone(core), Arc::clone(job), task));
            true
        }
        None => false,
    });
    if !deferred {
        core.push_batch(vec![(Arc::clone(job), task)]);
    }
}

impl ServerCore {
    /// Enqueue a batch of [`SCHEDULED`] tasks under one queue lock (the
    /// shard-affine wake path of the reduction-tree hub), rousing as many
    /// sleeping workers as there are tasks to run.
    fn push_batch(self: &Arc<Self>, entries: Vec<TaskRef>) {
        if entries.is_empty() {
            return;
        }
        let single = entries.len() == 1;
        let local = CURRENT_WORKER.with(|cw| {
            cw.borrow().as_ref().and_then(|(core, idx)| {
                core.upgrade().filter(|c| Arc::ptr_eq(c, self)).map(|_| *idx)
            })
        });
        let queue = match local {
            Some(worker) => &self.locals[worker],
            None => &self.injector,
        };
        {
            let mut lanes = queue.lock();
            for (job, task) in entries {
                let lane = job.priority.lane();
                lanes[lane].push_back((job, task));
            }
        }
        let sleep = self.sleep.lock();
        if sleep.idle > 0 {
            if single {
                self.wakeup.notify_one();
            } else {
                self.wakeup.notify_all();
            }
        }
    }

    /// Scatter a fresh job's initial tasks round-robin over all workers
    /// (interleaving it with already-resident jobs) and rouse everyone.
    fn seed(self: &Arc<Self>, job: &Arc<Job>) {
        let tasks = job.slots.len();
        let lane = job.priority.lane();
        if self.locals.is_empty() || self.spawned.load(Ordering::Acquire) == 0 {
            let mut lanes = self.injector.lock();
            for task in 0..tasks {
                lanes[lane].push_back((Arc::clone(job), task));
            }
        } else {
            let workers = self.locals.len();
            let start = self.seed_cursor.fetch_add(1, Ordering::Relaxed) % workers;
            for task in 0..tasks {
                let mut lanes = self.locals[(start + task) % workers].lock();
                lanes[lane].push_back((Arc::clone(job), task));
            }
        }
        let sleep = self.sleep.lock();
        if sleep.idle > 0 {
            self.wakeup.notify_all();
        }
    }

    /// Next task for this thread: own queue (workers only), then the
    /// injector, then steal from the first non-empty sibling queue —
    /// always highest-priority lane first.
    fn find_task(&self, me: Option<usize>) -> Option<TaskRef> {
        if let Some(me) = me {
            if let Some(entry) = pop_lanes(&mut self.locals[me].lock()) {
                return Some(entry);
            }
        }
        if let Some(entry) = pop_lanes(&mut self.injector.lock()) {
            return Some(entry);
        }
        let n = self.locals.len();
        let base = me.map_or(0, |m| m + 1);
        for offset in 0..n {
            let victim = (base + offset) % n;
            if Some(victim) == me {
                continue;
            }
            let stolen: Vec<TaskRef> = {
                let mut lanes = self.locals[victim].lock();
                match lanes.iter_mut().find(|q| !q.is_empty()) {
                    // Steal half of the victim's best non-empty lane; the
                    // victim lock is released before touching our own
                    // queue, so two workers stealing from each other
                    // cannot deadlock.
                    Some(queue) => {
                        let take = if me.is_some() { queue.len().div_ceil(2) } else { 1 };
                        queue.drain(..take).collect()
                    }
                    None => Vec::new(),
                }
            };
            let mut stolen = stolen.into_iter();
            if let Some(first) = stolen.next() {
                if let Some(me) = me {
                    let lane = first.0.priority.lane();
                    let mut lanes = self.locals[me].lock();
                    lanes[lane].extend(stolen);
                }
                return Some(first);
            }
        }
        None
    }

    fn has_queued(&self) -> bool {
        !lanes_empty(&self.injector.lock()) || self.locals.iter().any(|q| !lanes_empty(&q.lock()))
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

/// Mark `task` finished (any reason), and finalize the job if it was the
/// last live task.
fn complete_task(core: &Arc<ServerCore>, job: &Arc<Job>, task: usize) {
    job.states[task].store(DONE, Ordering::Release);
    job.remaining.fetch_sub(1, Ordering::AcqRel);
    if job.live.fetch_sub(1, Ordering::AcqRel) == 1 {
        finalize(core, job);
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
    let panic = job.panics.lock().take();
    let outcome = if let Some((_, payload)) = panic {
        reap_unfinished(job);
        Err(JobFailure::Panic(payload))
    } else if job.remaining.load(Ordering::Acquire) == 0 {
        Ok(job.shared.build_report())
    } else {
        // Quiescent with unfinished tasks: a deadlock. Name the blocked
        // ranks (all of them are WAITING — live == 0 excludes the rest).
        let blocked: Vec<usize> = (0..job.states.len())
            .filter(|&rank| job.states[rank].load(Ordering::Acquire) != DONE)
            .collect();
        reap_unfinished(job);
        Err(JobFailure::Error(job.shared.deadlock(blocked)))
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

/// Drop the futures of every unfinished task (safe at live == 0: nothing
/// polls them anymore). Their `SpmdCtx` drop handlers record final clocks,
/// which is harmless — the job's outcome is already decided.
fn reap_unfinished(job: &Arc<Job>) {
    for task in 0..job.states.len() {
        if job.states[task].load(Ordering::Acquire) != DONE {
            *job.slots[task].lock() = None;
            job.states[task].store(DONE, Ordering::Release);
        }
    }
}

/// Poll one queued task of one job.
fn run_task(core: &Arc<ServerCore>, entry: TaskRef) {
    let (job, task) = entry;
    if job.cancelled.load(Ordering::Acquire) {
        // A sibling rank panicked: reap instead of polling, so the whole
        // job winds down without running half-broken collectives.
        *job.slots[task].lock() = None;
        complete_task(core, &job, task);
        return;
    }
    // The task came out of a queue, so its state is SCHEDULED; wakes from
    // here until the poll finishes are folded into NOTIFIED.
    job.states[task].store(RUNNING, Ordering::Release);
    let mut slot = job.slots[task].lock();
    let Some(future) = slot.as_mut() else {
        drop(slot);
        complete_task(core, &job, task);
        return;
    };
    let mut cx = Context::from_waker(&job.wakers[task]);
    match catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx))) {
        Ok(Poll::Ready(())) => {
            *slot = None;
            drop(slot);
            complete_task(core, &job, task);
        }
        Ok(Poll::Pending) => {
            drop(slot);
            if job.states[task]
                .compare_exchange(RUNNING, WAITING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Parked. If this was the job's last live task, no wake can
                // ever arrive (wakes only come from this job's own polls):
                // report the deadlock instead of sleeping forever.
                if job.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    finalize(core, &job);
                }
            } else {
                // Woken while polling: the wake was swallowed into
                // NOTIFIED, so the re-poll is on us. Still live.
                job.states[task].store(SCHEDULED, Ordering::Release);
                core.push_batch(vec![(Arc::clone(&job), task)]);
            }
        }
        Err(payload) => {
            // Record the payload (lowest task id wins), cancel the job's
            // siblings, and wind the job down; join() re-raises it.
            *slot = None;
            drop(slot);
            {
                let mut first = job.panics.lock();
                match first.as_ref() {
                    Some((prior, _)) if *prior <= task => {}
                    _ => *first = Some((task, payload)),
                }
            }
            job.cancelled.store(true, Ordering::Release);
            complete_task(core, &job, task);
        }
    }
}

fn worker_loop(core: Arc<ServerCore>, me: usize) {
    let _registration = WorkerRegistration::enter(&core, me);
    loop {
        while let Some(entry) = core.find_task(Some(me)) {
            run_task(&core, entry);
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
        let core = Arc::new(ServerCore {
            locals: (0..workers).map(|_| Mutex::new(Lanes::default())).collect(),
            injector: Mutex::new(Lanes::default()),
            spawned: AtomicUsize::new(0),
            seed_cursor: AtomicUsize::new(0),
            sleep: Mutex::new(SleepState { idle: 0, shutdown: false }),
            wakeup: Condvar::new(),
        });
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
    /// parallelism; lives for the rest of the process.
    pub fn global() -> &'static JobServer {
        static GLOBAL: OnceLock<JobServer> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers =
                std::env::var("ULBA_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
            JobServer::new(workers)
        })
    }

    /// Worker threads of this server.
    pub fn workers(&self) -> usize {
        self.core.locals.len()
    }

    /// Submit `body` as an SPMD job over `config.ranks` ranks; returns
    /// immediately with a handle. The job runs on this server's workers
    /// regardless of `config.backend`, at `config.priority`, with its own
    /// hub/mailbox namespace and job id. See [`crate::submit`] for the body
    /// contract; the future must be `'static` because it outlives the
    /// submitting stack frame.
    pub fn submit<F, Fut>(&self, config: RunConfig, body: F) -> JobHandle
    where
        F: Fn(SpmdCtx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        assert!(config.ranks >= 1, "need at least one rank");
        let shared = RunShared::new(&config);
        let ranks = config.ranks;
        let core = Arc::clone(&self.core);
        let job = Arc::new_cyclic(|weak: &Weak<Job>| Job {
            priority: config.priority,
            slots: (0..ranks)
                .map(|rank| {
                    let ctx = SpmdCtx::new(rank, ranks, Arc::clone(&shared), config.tracer.clone());
                    Mutex::new(Some(Box::pin(body(ctx)) as BoxFuture))
                })
                .collect(),
            states: (0..ranks).map(|_| AtomicU8::new(SCHEDULED)).collect(),
            remaining: AtomicUsize::new(ranks),
            live: AtomicUsize::new(ranks),
            cancelled: AtomicBool::new(false),
            finalized: AtomicBool::new(false),
            panics: Mutex::new(None),
            wakers: (0..ranks)
                .map(|task| {
                    Waker::from(Arc::new(JobTaskWaker {
                        core: Arc::clone(&core),
                        job: weak.clone(),
                        task,
                    }))
                })
                .collect(),
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

    /// Block until the job finishes and return its report. If the joining
    /// thread is itself one of this server's workers (a rank body
    /// submitting nested jobs), it helps drive the pool instead of
    /// blocking it.
    pub(crate) fn join(self) -> Result<RunReport, RunError> {
        let me = CURRENT_WORKER.with(|cw| {
            cw.borrow().as_ref().and_then(|(core, idx)| {
                core.upgrade().filter(|c| Arc::ptr_eq(c, &self.core)).map(|_| *idx)
            })
        });
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

    /// Run pool tasks (any job's) until our job finishes.
    fn help_drive(&self, me: Option<usize>) {
        loop {
            if self.job.done.load(Ordering::Acquire) {
                return;
            }
            if let Some(entry) = self.core.find_task(me) {
                run_task(&self.core, entry);
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

/// Worker count a [`RunConfig`] resolves to: the explicit
/// [`RunConfig::workers`] if nonzero, otherwise the machine's available
/// parallelism; never more than `ranks`. Also the basis of the default hub
/// shard count ([`RunConfig::effective_hub_shards`]).
pub(crate) fn effective_workers(config: &RunConfig) -> usize {
    let requested = if config.workers > 0 {
        config.workers
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    requested.clamp(1, config.ranks)
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
}
