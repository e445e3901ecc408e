//! `ulba-core` — the ULBA load-balancing library (Boulmier et al.,
//! IEEE CLUSTER 2019).
//!
//! ULBA ("underloading load-balancing approach") anticipates load-imbalance
//! growth: at each LB step, PEs whose workload-increase rate (WIR) marks
//! them as *overloading* receive `(1 − α)` of the fair share, and the
//! surrendered workload is spread over the other PEs, letting the
//! application rebalance itself through its own dynamics (§III).
//!
//! The crate provides every runtime mechanism of §III-C:
//!
//! * [`wir`] — per-PE WIR estimation (sliding-window least squares);
//! * [`db`] — the per-PE WIR database with freshness-based merging
//!   (sparse and change-versioned: memory follows what gossip touched,
//!   not `O(P)` per rank);
//! * [`gossip`] — the dissemination step run at every iteration (ring,
//!   epidemic push, hybrid) over full-snapshot or delta payloads;
//! * [`outlier`] — z-score overloading detection (threshold 3.0) plus a
//!   robust median/MAD variant;
//! * [`trigger`] — adaptive LB activation: one [`Trigger`] type runs the
//!   Zhai-style cumulative-degradation rule used by the paper, or the
//!   Menon-interval, periodic and never-balance baselines;
//! * [`shares`] — Algorithm 2's target shares with the ≥ 50 % majority
//!   fallback;
//! * [`partition`] — weighted contiguous 1-D (stripe) partitioning;
//! * [`balancer`] — the centralized LB technique executed on
//!   [`ulba_runtime`];
//! * [`policy`] — standard vs. ULBA with a fixed, user-defined α;
//! * [`driver`] — the one LB loop that strings all of the above together
//!   as a generic rank program: an application implements the six-method
//!   [`Workload`] trait, runs through [`LbLaunch::run`] or
//!   [`driver::run_batch`], and gets back an [`LbRun`], the one record of
//!   the run;
//! * [`model_loop`] — the same [`Trigger`] run on the analytical model's
//!   iteration times, yielding the schedule it would produce.
//!
//! # Example: one ULBA decision cycle (no runtime needed)
//!
//! ```
//! use ulba_core::prelude::*;
//!
//! // WIRs gossiped into this PE's database: rank 2 of 16 overloads.
//! // (With very few PEs a single outlier cannot exceed z = 3 — the z-score
//! // of one extreme value among n is bounded by ~√(n−1).)
//! let mut wirs = vec![1.0; 16];
//! wirs[2] = 40.0;
//! let policy = LbPolicy::ulba_fixed(0.4);
//! let z = z_scores(&wirs);
//! let alphas: Vec<f64> = z.iter().map(|&z| policy.alpha_for(z)).collect();
//! assert!(alphas[2] > 0.0 && alphas[0] == 0.0);
//!
//! // Algorithm 2: shares, then a weighted stripe partition.
//! let decision = compute_shares(&alphas);
//! let weights = vec![1u64; 800];
//! let partition = partition_by_shares(&weights, &decision.shares);
//! let loads = partition.range_weights(&weights);
//! assert!(loads[2] < loads[0], "the overloader was underloaded");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balancer;
pub mod db;
pub mod driver;
pub mod gossip;
pub mod model_loop;
pub mod outlier;
pub mod partition;
pub mod policy;
pub mod shares;
pub mod trigger;
pub mod wir;

pub use balancer::{centralized_rebalance, RebalanceOutcome, LB_ROOT};
pub use db::{wire_bytes, WirDatabase, WirEntry};
pub use driver::{LbLaunch, LbParams, LbRun, LbStepRecord, Placement, Workload};
pub use gossip::{select_peers, GossipMode, GossipOutbox, GossipWire};
pub use model_loop::trigger_driven_schedule;
pub use outlier::{z_scores, DetectionStat, DEFAULT_Z_THRESHOLD};
pub use partition::{partition_by_shares, Partition};
pub use policy::{LbPolicy, UlbaConfig};
pub use shares::{compute_shares, ShareDecision};
pub use trigger::{Trigger, TriggerKind};
pub use wir::WirEstimator;

/// Convenient glob import of the most used items.
pub mod prelude {
    pub use crate::balancer::{centralized_rebalance, RebalanceOutcome, LB_ROOT};
    pub use crate::db::{wire_bytes, WirDatabase, WirEntry};
    pub use crate::driver::{LbLaunch, LbParams, LbRun, LbStepRecord, Placement, Workload};
    pub use crate::gossip::{select_peers, GossipMode, GossipOutbox, GossipWire};
    pub use crate::outlier::{z_scores, DetectionStat, DEFAULT_Z_THRESHOLD};
    pub use crate::partition::{partition_by_shares, Partition};
    pub use crate::policy::{LbPolicy, UlbaConfig};
    pub use crate::shares::{compute_shares, ShareDecision};
    pub use crate::trigger::{Trigger, TriggerKind};
    pub use crate::wir::WirEstimator;
}
