//! The run engine: run configuration, shared run state, and the one launch
//! path — [`submit`] turns a [`RunConfig`] + rank body into a joinable
//! [`JobHandle`]; [`run`]/[`try_run`] are `submit(..).join()`.
//!
//! # Backends
//!
//! Rank futures suspend at synchronization points, full stop; a backend
//! only decides who polls them.
//!
//! * [`Backend::Parallel`] (the default) — the run is a job on a
//!   work-stealing [`JobServer`]: the one targeted by
//!   [`RunConfig::with_server`], the process-wide default
//!   ([`JobServer::global`]) when no worker count is forced, or a transient
//!   private pool when one is. The job is cut into contiguous blocks of
//!   ranks (one per hub shard); a worker drives a whole block until every
//!   rank of it is parked — wakers left in the job's hub/mailbox — and a
//!   wake flags the rank and re-queues its block. One shared pool drives
//!   many concurrent jobs.
//! * [`Backend::Sequential`] — a single-threaded round-robin scheduler,
//!   driven on the thread that joins the handle. The deterministic oracle
//!   of every equivalence suite, and the faster way to use one core.
//!
//! Both drive the same [`crate::ctx::SpmdCtx`] accounting and the same
//! [`crate::hub::Hub`]/[`crate::mailbox::MailboxSet`] state machines, so a
//! program's virtual-time behaviour is bit-identical across backends — and,
//! on the job server, independent of which other jobs share the pool. Both
//! detect deadlocks exactly ([`RunError::Deadlock`]).
//!
//! # Which backend a configuration means
//!
//! Stated once, for [`RunConfig::resolve`] and the app configs built on it:
//! an explicit backend wins; otherwise a server target means that pool;
//! otherwise `ULBA_BACKEND`; else the global pool.

use crate::cost::MachineSpec;
use crate::ctx::SpmdCtx;
use crate::exec::sequential::SequentialJob;
use crate::exec::server::{effective_workers, JobServer, PoolJob, Priority};
use crate::hub::Hub;
use crate::mailbox::MailboxSet;
use crate::metrics::{Collector, IterationMark, IterationStats, RankMetrics};
use crate::time::VirtualTime;
use crate::trace::Tracer;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Who polls the rank futures of an SPMD program (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// The single-threaded lockstep scheduler, on the joining thread. Best
    /// on one core and for deterministic debugging.
    Sequential,
    /// A work-stealing [`JobServer`]. The default: all cores stay busy at
    /// any `P`, and many runs can share one pool.
    Parallel,
}

/// Warn once per process about an unparsable `ULBA_BACKEND` value.
fn warn_unknown_backend(raw: &str) {
    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
    WARN_ONCE.call_once(|| {
        eprintln!(
            "ulba-runtime: ignoring unknown ULBA_BACKEND value `{raw}` \
             (expected `sequential` or `parallel`)"
        );
    });
}

impl std::str::FromStr for Backend {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        match s.to_ascii_lowercase().as_str() {
            "sequential" | "seq" => Ok(Backend::Sequential),
            "parallel" | "par" | "pool" => Ok(Backend::Parallel),
            _ => Err(()),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Sequential => "sequential",
            Backend::Parallel => "parallel",
        })
    }
}

/// Configuration of one SPMD run.
#[derive(Clone)]
pub struct RunConfig {
    /// Number of ranks.
    pub ranks: usize,
    /// Machine cost model driving the virtual clocks.
    pub spec: MachineSpec,
    /// Optional event tracer shared by all ranks (free in virtual time).
    pub tracer: Option<Arc<Tracer>>,
    /// Execution backend. Defaults to the `ULBA_BACKEND` environment
    /// variable, falling back to [`Backend::Parallel`].
    pub backend: Backend,
    /// Worker threads of the parallel backend; `0` (the default) means the
    /// machine's available parallelism. Defaults to the `ULBA_WORKERS`
    /// environment variable.
    pub workers: usize,
    /// How many contiguous rank ranges the job is cut into: the leaf shards
    /// of the collective rendezvous hub (one lock each) *and*, on a
    /// [`JobServer`], the job's schedulable blocks — one worker drives a
    /// whole block at a time, so `1` means one worker drives the whole job
    /// at a time. `0` (the default) resolves to `min(workers, 64)` (capped
    /// at `ranks`), where `workers` are those of the pool the job runs on
    /// (see [`RunConfig::effective_hub_shards`]); the sequential backend
    /// keeps the degenerate single shard. Defaults to the
    /// `ULBA_HUB_SHARDS` environment variable. Reports are bit-identical
    /// for **any** value.
    pub hub_shards: usize,
    /// Existing [`JobServer`] to submit to when the backend is
    /// [`Backend::Parallel`]; `None` (the default) uses the process-wide
    /// default server ([`JobServer::global`]), or a transient private pool
    /// when [`RunConfig::workers`] is forced nonzero.
    pub server: Option<JobServer>,
    /// Admission priority of the job on its server (parallel backend
    /// only). Defaults to [`Priority::Normal`].
    pub priority: Priority,
}

impl RunConfig {
    /// A run with `ranks` ranks on the default machine, honouring the
    /// `ULBA_*` environment variables — shorthand for
    /// [`RunConfig::defaults`]`(ranks).`[`from_env`](RunConfig::from_env)`()`.
    pub fn new(ranks: usize) -> Self {
        Self::defaults(ranks).from_env()
    }

    /// A run with `ranks` ranks on the default machine, ignoring the
    /// environment: the global pool, automatic workers and hub shards.
    pub fn defaults(ranks: usize) -> Self {
        Self {
            ranks,
            spec: MachineSpec::default(),
            tracer: None,
            backend: Backend::Parallel,
            workers: 0,
            hub_shards: 0,
            server: None,
            priority: Priority::Normal,
        }
    }

    /// Overlay the `ULBA_*` environment onto this configuration — the one
    /// place the engine parses runtime env vars, so binaries and tests
    /// don't re-implement the precedence themselves:
    ///
    /// * `ULBA_BACKEND` → [`RunConfig::backend`] (`sequential`,
    ///   `parallel`; unknown values warn once and are ignored),
    /// * `ULBA_WORKERS` → [`RunConfig::workers`],
    /// * `ULBA_HUB_SHARDS` → [`RunConfig::hub_shards`].
    ///
    /// Unset (or unparsable) variables leave the corresponding field
    /// untouched, so explicit `with_*` calls made *after* this step win,
    /// while the environment overrides the plain defaults.
    pub fn from_env(mut self) -> Self {
        if let Ok(raw) = std::env::var("ULBA_BACKEND") {
            match raw.parse() {
                Ok(backend) => self.backend = backend,
                Err(()) => warn_unknown_backend(&raw),
            }
        }
        if let Some(workers) = env_usize("ULBA_WORKERS") {
            self.workers = workers;
        }
        if let Some(shards) = env_usize("ULBA_HUB_SHARDS") {
            self.hub_shards = shards;
        }
        self
    }

    /// Override the machine model.
    pub fn with_spec(mut self, spec: MachineSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Attach an event tracer.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Select the execution backend explicitly (overrides `ULBA_BACKEND`).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Set the worker-thread count of the parallel backend (`0` = all
    /// available cores; overrides `ULBA_WORKERS`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the number of hub leaf shards = schedulable blocks of the job
    /// (`0` = automatic: one per worker of the pool it runs on, at most 64;
    /// `1` = one worker drives the whole job at a time; overrides
    /// `ULBA_HUB_SHARDS`). Any value produces bit-identical reports; the
    /// count only decides how the host work is cut up.
    pub fn with_hub_shards(mut self, shards: usize) -> Self {
        self.hub_shards = shards;
        self
    }

    /// Submit this run to an existing [`JobServer`] instead of the default
    /// global one. Implies [`Backend::Parallel`] (the sequential scheduler
    /// uses no pool); a later [`RunConfig::with_backend`] overrides that.
    pub fn with_server(mut self, server: JobServer) -> Self {
        self.server = Some(server);
        self.backend = Backend::Parallel;
        self
    }

    /// The configuration an application's optional knobs resolve to —
    /// the one place `Option<Backend>` + server target + environment become
    /// an effective backend (see the [module docs](self)): an explicit
    /// `backend` wins; otherwise a `server` target means that pool;
    /// otherwise `ULBA_BACKEND`; else the global pool. `workers` and
    /// `hub_shards` override their `ULBA_*` variables when set.
    pub fn resolve(
        ranks: usize,
        backend: Option<Backend>,
        workers: Option<usize>,
        hub_shards: Option<usize>,
        server: Option<JobServer>,
    ) -> Self {
        let mut config = Self::new(ranks);
        config.workers = workers.unwrap_or(config.workers);
        config.hub_shards = hub_shards.unwrap_or(config.hub_shards);
        if let Some(server) = server {
            config = config.with_server(server);
        }
        config.backend = backend.unwrap_or(config.backend);
        config
    }

    /// Set the job's admission priority on its server (parallel backend
    /// only; see [`Priority`]).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The shard (= block) count this configuration resolves to: the
    /// explicit [`RunConfig::hub_shards`] if nonzero, otherwise one per
    /// worker of the pool the job runs on, at most 64 — the workers of
    /// [`RunConfig::server`] when a server is targeted, else the
    /// [`RunConfig::workers`] / machine-parallelism count the engine sizes
    /// its own pool by (the single-threaded sequential scheduler keeps the
    /// degenerate single shard). Always clamped to `[1, ranks]`.
    pub fn effective_hub_shards(&self) -> usize {
        let auto = || match (self.backend, &self.server) {
            (Backend::Sequential, _) => 1,
            (Backend::Parallel, Some(server)) => server.workers(),
            (Backend::Parallel, None) => effective_workers(self),
        };
        let shards = if self.hub_shards > 0 { self.hub_shards } else { auto().min(64) };
        shards.clamp(1, self.ranks.max(1))
    }
}

/// Parse a `usize` environment variable; `None` when unset or unparsable.
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// A structured run failure (instead of a panic deep inside the engine).
#[derive(Debug)]
pub enum RunError {
    /// The program can never finish: some ranks are permanently blocked
    /// (a collective not every rank joins, or a `recv` with no matching
    /// send). Detected exactly by both backends. [`try_run`] surfaces this
    /// error; [`run`] panics on it.
    Deadlock {
        /// Id of the deadlocked job (process-unique, starts at 1). On a
        /// shared [`JobServer`] many jobs are in flight at once; the id
        /// pins the diagnostic to the one that hung.
        job: u64,
        /// The permanently blocked ranks, in rank order.
        blocked: Vec<usize>,
        /// Total ranks in the run.
        ranks: usize,
        /// The distinct hub shards holding blocked ranks, in shard order —
        /// a stuck collective often spans several shards of the reduction
        /// tree, and knowing which narrows the mismatched ranks down fast
        /// at large `P`.
        shards: Vec<usize>,
    },
    /// A [`JobHandle`] observed its pool job as finished
    /// but the result slot was already empty — the outcome was consumed
    /// through another path (a raced double-join) or the finalizing worker
    /// died before publishing it. Used to be an `expect` panic inside the
    /// join path; surfacing it structurally lets batch clients skip the
    /// one bad job instead of tearing the whole sweep down.
    ResultMissing {
        /// Id of the job whose outcome vanished.
        job: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { job, blocked, ranks, shards } => {
                write!(
                    f,
                    "deadlock in job #{job}: {} of {ranks} ranks are permanently blocked \
                     (collective ordering bug, or a recv with no matching send); \
                     blocked ranks {:?}{} in hub shard{} {:?}{}",
                    blocked.len(),
                    &blocked[..blocked.len().min(8)],
                    if blocked.len() > 8 { " …" } else { "" },
                    if shards.len() == 1 { "" } else { "s" },
                    &shards[..shards.len().min(8)],
                    if shards.len() > 8 { " …" } else { "" },
                )
            }
            RunError::ResultMissing { job } => {
                write!(
                    f,
                    "job #{job} finished but its result was already consumed \
                     (double-join race) or never published by the finalizing worker"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Everything measured during a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Final per-rank time accounting, indexed by rank.
    pub rank_metrics: Vec<RankMetrics>,
    /// Final virtual clock of each rank.
    pub final_clocks: Vec<VirtualTime>,
    /// Per-iteration aggregates (only iterations marked by every rank).
    pub iterations: Vec<IterationStats>,
    /// Iterations at which an LB step was recorded.
    pub lb_iterations: Vec<u64>,
}

impl RunReport {
    /// The virtual makespan: the latest final clock across ranks. This is
    /// the quantity the paper reports as application running time.
    pub fn makespan(&self) -> VirtualTime {
        self.final_clocks.iter().copied().max().unwrap_or(VirtualTime::ZERO)
    }

    /// Average PE utilization over the whole run:
    /// `Σ busy / (P · makespan)`.
    pub fn mean_utilization(&self) -> f64 {
        let makespan = self.makespan().as_secs();
        if makespan == 0.0 {
            return 1.0;
        }
        let busy: f64 = self.rank_metrics.iter().map(|m| m.busy).sum();
        (busy / (self.rank_metrics.len() as f64 * makespan)).clamp(0.0, 1.0)
    }

    /// Number of LB steps recorded.
    pub fn lb_call_count(&self) -> usize {
        self.lb_iterations.len()
    }
}

/// The backend-agnostic state shared by every rank of one run: the
/// collective rendezvous hub, the point-to-point mailboxes, the metrics
/// collector, the machine model, and the per-rank final accounting slots.
pub(crate) struct RunShared {
    pub(crate) hub: Hub,
    pub(crate) mail: MailboxSet,
    pub(crate) collector: Collector,
    pub(crate) spec: MachineSpec,
    /// Process-unique id of this run/job (starts at 1); tags deadlock
    /// errors and hub diagnostics so concurrent jobs on a shared
    /// [`JobServer`] stay distinguishable.
    job: u64,
    finals: Vec<Mutex<Option<(VirtualTime, RankMetrics)>>>,
    /// Bumped on every deposit/post/receive so the sequential scheduler can
    /// distinguish "still converging" from "deadlocked". `None` on a job
    /// server, which never reads it: there the per-rank path must not
    /// write a cache line every worker shares.
    progress: Option<AtomicU64>,
}

/// Source of [`RunShared::job_id`]s: every run of either backend draws one.
static NEXT_JOB_ID: AtomicU64 = AtomicU64::new(1);

impl RunShared {
    /// Shared state of one run of `config`; `counts_progress` is whether
    /// the scheduler about to drive it reads [`RunShared::progress_count`].
    pub(crate) fn new(config: &RunConfig, counts_progress: bool) -> Arc<Self> {
        let job = NEXT_JOB_ID.fetch_add(1, Ordering::Relaxed);
        Arc::new(Self {
            hub: Hub::for_job(job, config.ranks, config.effective_hub_shards()),
            mail: MailboxSet::new(config.ranks),
            collector: Collector::new(config.ranks),
            spec: config.spec.clone(),
            job,
            finals: (0..config.ranks).map(|_| Mutex::new(None)).collect(),
            progress: counts_progress.then(|| AtomicU64::new(0)),
        })
    }

    /// The process-unique id of this run (see [`RunError::Deadlock::job`]).
    pub(crate) fn job_id(&self) -> u64 {
        self.job
    }

    #[inline]
    pub(crate) fn note_progress(&self) {
        if let Some(progress) = &self.progress {
            progress.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn progress_count(&self) -> u64 {
        self.progress.as_ref().map_or(0, |progress| progress.load(Ordering::Relaxed))
    }

    /// A rank's last word: its final clock and accounting, and every
    /// iteration mark it recorded.
    pub(crate) fn record_final(
        &self,
        rank: usize,
        clock: VirtualTime,
        metrics: RankMetrics,
        marks: Vec<IterationMark>,
    ) {
        *self.finals[rank].lock() = Some((clock, metrics));
        self.collector.record_marks(rank, marks);
    }

    /// Build the structured deadlock error for `blocked` (sorted by rank),
    /// annotating the distinct hub shards the blocked ranks sit in.
    pub(crate) fn deadlock(&self, blocked: Vec<usize>) -> RunError {
        let mut shards: Vec<usize> = blocked.iter().map(|&r| self.hub.shard_of(r)).collect();
        // `shard_of` is monotone in rank and `blocked` is rank-ordered, so
        // adjacent dedup yields the sorted distinct shard set.
        shards.dedup();
        RunError::Deadlock { job: self.job, blocked, ranks: self.hub.size(), shards }
    }

    pub(crate) fn build_report(&self) -> RunReport {
        let (final_clocks, rank_metrics) = self
            .finals
            .iter()
            .enumerate()
            .map(|(rank, slot)| slot.lock().unwrap_or_else(|| panic!("rank {rank} never finished")))
            .unzip();
        RunReport {
            rank_metrics,
            final_clocks,
            iterations: self.collector.iteration_stats(),
            lb_iterations: self.collector.lb_iterations(),
        }
    }
}

/// A submitted run; join it for the [`RunReport`]. A pool job is already
/// running (holding the handle keeps its server's workers alive even if
/// the [`JobServer`] itself is dropped); a sequential job runs on the
/// joining thread, inside [`JobHandle::join`].
pub struct JobHandle {
    pub(crate) job: Launched,
}

pub(crate) enum Launched {
    Pool(PoolJob),
    Sequential(SequentialJob),
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("job", &self.id())
            .field("backend", &self.backend())
            .field("done", &self.is_done())
            .finish()
    }
}

impl JobHandle {
    /// The job id (process-unique, starts at 1) — the same id tagged onto
    /// [`RunError::Deadlock`] and hub diagnostics.
    pub fn id(&self) -> u64 {
        match &self.job {
            Launched::Pool(job) => job.id(),
            Launched::Sequential(job) => job.id(),
        }
    }

    /// The backend driving the job: [`Backend::Parallel`] occupies workers
    /// of a [`JobServer`], [`Backend::Sequential`] never does.
    pub fn backend(&self) -> Backend {
        match &self.job {
            Launched::Pool(_) => Backend::Parallel,
            Launched::Sequential(_) => Backend::Sequential,
        }
    }

    /// Whether the job has finished (successfully or not) without blocking.
    /// A sequential job only runs inside [`JobHandle::join`], so it never
    /// has.
    pub fn is_done(&self) -> bool {
        match &self.job {
            Launched::Pool(job) => job.is_done(),
            Launched::Sequential(_) => false,
        }
    }

    /// Finish the job and return its report: block on (or, from one of the
    /// server's own workers, help drive) a pool job; drive a sequential job
    /// here and now. A deadlocked job returns [`RunError::Deadlock`] tagged
    /// with this job's id; a rank panic is resumed on the joining thread
    /// (lowest rank wins).
    pub fn join(self) -> Result<RunReport, RunError> {
        match self.job {
            Launched::Pool(job) => job.join(),
            Launched::Sequential(job) => job.drive(),
        }
    }
}

/// Launch `body` as an SPMD program over `config.ranks` ranks — the one
/// path from a [`RunConfig`] to a running job (the [module docs](self) say
/// where it runs; a transient private pool lives as long as the handle,
/// and [`Backend::Sequential`] ignores any [`RunConfig::server`]).
///
/// `body` is invoked once per rank, here, with that rank's [`SpmdCtx`] and
/// returns the rank's program as a future; operations that synchronize with
/// other ranks (`recv`, `barrier`, collectives) are `async` and suspend at
/// the synchronization point, which is what lets either scheduler
/// interleave thousands of ranks over few threads (rank futures outlive
/// this call and migrate between a server's workers, hence the
/// `Send + 'static` bounds — a rank program owns its data).
pub fn submit<F, Fut>(config: RunConfig, body: F) -> JobHandle
where
    F: Fn(SpmdCtx) -> Fut,
    Fut: Future<Output = ()> + Send + 'static,
{
    if config.backend == Backend::Sequential {
        return JobHandle { job: Launched::Sequential(SequentialJob::new(&config, body)) };
    }
    let server = match &config.server {
        Some(server) => server.clone(),
        None if config.workers == 0 => JobServer::global().clone(),
        None => JobServer::new(effective_workers(&config)),
    };
    server.submit(config, body)
}

/// [`submit`] and join: run `body` to completion and collect the report.
///
/// # Failure contract
///
/// Panics in any rank propagate after the run is wound down (the panic
/// payload of the lowest-ranked failing rank is resumed). A deadlocked
/// program **panics** with the full [`RunError::Deadlock`] diagnostic: the
/// job id, the blocked ranks, and the hub shards holding them. Use
/// [`try_run`] to observe it as a structured [`RunError`] instead.
pub fn run<F, Fut>(config: RunConfig, body: F) -> RunReport
where
    F: Fn(SpmdCtx) -> Fut,
    Fut: Future<Output = ()> + Send + 'static,
{
    try_run(config, body).unwrap_or_else(|err| panic!("{err}"))
}

/// Like [`run`], but reports a deadlock as [`RunError::Deadlock`] — tagged
/// with the job id and the hub shards of the blocked ranks — instead of
/// panicking. Rank panics are **not** converted: they resume on the
/// calling thread, exactly as under [`run`].
pub fn try_run<F, Fut>(config: RunConfig, body: F) -> Result<RunReport, RunError>
where
    F: Fn(SpmdCtx) -> Fut,
    Fut: Future<Output = ()> + Send + 'static,
{
    submit(config, body).join()
}
