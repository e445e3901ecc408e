//! The two schedulers behind [`crate::engine::submit`]: [`server`] (the
//! work-stealing [`server::JobServer`] that `Backend::Parallel` runs are
//! jobs on) and [`sequential`] (round-robin on the joining thread).
//!
//! A scheduler's job is narrow: create one [`crate::ctx::SpmdCtx`] per rank,
//! poll each rank's program future to completion, and get out of the way —
//! all virtual-time accounting, collective semantics, and message matching
//! live in the [`crate::hub`], [`crate::mailbox`] and [`crate::ctx`] layers,
//! whose operations return [`std::task::Poll::Pending`] at synchronization
//! points and never block a thread.

pub(crate) mod sequential;
pub(crate) mod server;
