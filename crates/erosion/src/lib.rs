//! `ulba-erosion` — the fluid-with-non-uniform-erosion proxy application of
//! §IV-B (Boulmier et al., IEEE CLUSTER 2019), running distributed on
//! [`ulba_runtime`] with the ULBA machinery of [`ulba_core`].
//!
//! The domain is a 2-D mesh of fluid and rock cells; `P` rock discs sit one
//! per initial stripe. Fluid cells "compute a fluid model" (their FLOPs are
//! charged to the virtual clock); each iteration they probabilistically
//! erode adjacent rock cells (weak discs: p = 0.02, strong: p = 0.4 at paper
//! scale). An eroded rock cell becomes a *refined* fluid patch of weight 4
//! (the paper's mesh-refinement mechanism), so stripes holding strongly
//! erodible rocks keep gaining workload — the anticipatable imbalance ULBA
//! exploits.
//!
//! # Example
//!
//! ```
//! use ulba_erosion::{run_erosion, ErosionConfig};
//! use ulba_core::policy::LbPolicy;
//!
//! let mut cfg = ErosionConfig::tiny(4, 1);
//! cfg.iterations = 30;
//! cfg.policy = LbPolicy::ulba_fixed(0.4);
//! let result = run_erosion(&cfg);
//! assert!(result.total_eroded > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod cell;
pub mod column;
pub mod config;
pub mod erode;
pub mod geometry;
pub mod snapshot;
pub mod stripe;

pub use app::{
    choose_strong_rocks, median_result, run_erosion, run_erosion_batch, run_erosion_median,
    submit_erosion, ErosionJob, ExperimentResult,
};
pub use cell::Cell;
pub use column::Column;
pub use config::{ErosionConfig, TriggerKind};
pub use geometry::Geometry;
pub use stripe::{exchange_halos_reusing, migrate, HaloScratch, Stripe};
