//! The sequential backend: a single-threaded lockstep (discrete-event)
//! scheduler.
//!
//! Every rank's program is one future; ctx operations that need other ranks
//! (collective rendezvous, `recv` of a not-yet-posted message, a collective
//! whose previous round is undrained) return [`Poll::Pending`], and the
//! scheduler simply round-robins all unfinished ranks. Within one pass each
//! rank runs *slice-by-slice* from its current position to its next
//! synchronization point; a collective completes the moment its last
//! participant deposits, so a BSP superstep costs O(P) polls — no worker
//! threads, no run queues, no wake-ups.
//!
//! Why this file exists beside the job server: it is the deterministic
//! oracle every equivalence suite compares the pool against, and it is
//! still the cheaper way to use one core — by less than it used to be. A
//! one-worker server now drives the job as one block with this file's pass
//! structure, plus a waker, a ready flag and a queue round trip per phase.
//! At PR 18 on a 2-core box, the `erosion_wide` leg alternated in one
//! process (sequential, then a `JobServer::new(1)`, 15 and 7 timed runs):
//! 0.31 vs 0.34 s at `P = 4096` (+9 %; +20 % at the parent, 0.29 vs 0.34 s)
//! and 2.13 vs 2.15 s at `P = 16384` (+1 %; +7 % at the parent). The
//! command this paragraph used to quote, `ULBA_WORKERS=1 weak_scaling
//! --smoke --ranks 16384 --backends sequential,parallel`, no longer separates
//! them: six invocations, `sim_wall_s` standard / ULBA 1.62–2.16 /
//! 1.56–2.32 s here against 1.80–2.52 / 1.66–2.21 s on the one-worker
//! server (a noisier box than at e17654a, where it read 1.78–1.98 /
//! 1.84–1.86 s against 1.98–2.47 / 2.75–3.60 s). On two workers the pool
//! is the faster one (`results/BENCH_weak_scaling.json`, `gates::wall`).
//!
//! Deadlock detection: a full pass in which no rank completed and no
//! deposit/post/receive happened ([`RunShared::progress_count`] unchanged)
//! means no rank can ever progress — the scheduler reports the blocked
//! ranks as a structured [`RunError::Deadlock`] instead of spinning forever.
//!
//! [`Poll::Pending`]: std::task::Poll::Pending

use crate::ctx::SpmdCtx;
use crate::engine::{RunConfig, RunError, RunReport, RunShared};
use crate::exec::server::BoxFuture;
use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Waker};

/// A run waiting for the thread that joins it: the rank futures are built
/// at submission (so the body need not outlive it) and polled by
/// [`SequentialJob::drive`].
pub(crate) struct SequentialJob {
    shared: Arc<RunShared>,
    tasks: Vec<Option<BoxFuture>>,
}

impl SequentialJob {
    pub(crate) fn new<F, Fut>(config: &RunConfig, body: F) -> Self
    where
        F: Fn(SpmdCtx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        assert!(config.ranks >= 1, "need at least one rank");
        // One thread polls every rank: the hub's degenerate single shard.
        let shared = RunShared::new(config, 1, true);
        let tasks = (0..config.ranks)
            .map(|rank| {
                let ctx = SpmdCtx::new(rank, config.ranks, Arc::clone(&shared));
                Some(Box::pin(body(ctx)) as BoxFuture)
            })
            .collect();
        Self { shared, tasks }
    }

    pub(crate) fn id(&self) -> u64 {
        self.shared.job_id()
    }

    /// Drive all rank futures to completion on the calling thread.
    pub(crate) fn drive(mut self) -> Result<RunReport, RunError> {
        // The scheduler re-polls by round-robin rather than by wake-up, so
        // a no-op waker suffices (the hub/mailbox park it and wake into
        // nothing).
        let mut cx = Context::from_waker(Waker::noop());
        let mut remaining = self.tasks.len();
        while remaining > 0 {
            let progress_before = self.shared.progress_count();
            let mut completed = 0usize;
            for slot in self.tasks.iter_mut() {
                if let Some(fut) = slot.as_mut() {
                    if fut.as_mut().poll(&mut cx).is_ready() {
                        *slot = None;
                        completed += 1;
                    }
                }
            }
            remaining -= completed;
            if remaining > 0 && completed == 0 && self.shared.progress_count() == progress_before {
                let blocked: Vec<usize> = self
                    .tasks
                    .iter()
                    .enumerate()
                    .filter_map(|(rank, slot)| slot.is_some().then_some(rank))
                    .collect();
                return Err(self.shared.deadlock(blocked));
            }
        }
        Ok(self.shared.build_report())
    }
}
