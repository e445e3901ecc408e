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
//! measurably the faster way to use one core. At e17654a on a 2-core box,
//! `weak_scaling --smoke --ranks 16384 --backends sequential,parallel
//! --workers 1`, three invocations, `sim_wall_s` standard / ULBA:
//! 1.78–1.98 / 1.84–1.86 s here against 1.98–2.47 / 2.75–3.60 s on a
//! one-worker server.
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
        let shared = RunShared::new(config);
        let tasks = (0..config.ranks)
            .map(|rank| {
                let ctx =
                    SpmdCtx::new(rank, config.ranks, Arc::clone(&shared), config.tracer.clone());
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
