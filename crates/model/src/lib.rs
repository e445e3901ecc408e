//! Analytical models from *"On the Benefits of Anticipating Load Imbalance
//! for Performance Optimization of Parallel Applications"* (Boulmier,
//! Raynaud, Abdennadher, Chopard — IEEE CLUSTER 2019).
//!
//! This crate implements, equation by equation:
//!
//! * the **standard load-balancing model** (§II): per-iteration time after a
//!   perfect LB step (Eq. (2)), LB-interval and total application time
//!   (Eq. (3)–(4)), and the Menon et al. optimal interval `τ = sqrt(2ωC/m̂)`;
//! * the **ULBA model** (§III): post-LB workload shares (Eq. (6)),
//!   per-iteration time with underloading (Eq. (5)), the catch-up bound `σ⁻`
//!   (Eq. (8)) and the adaptive-trigger bound `σ⁺` (Eq. (9)–(12));
//! * **schedule optimizers** (§III-B): the paper's simulated-annealing search
//!   (via [`ulba_anneal`]) and an exact `O(γ²)` dynamic program
//!   (checked against exhaustive enumeration in tests) exploiting the separability of Eq. (4) — a ground truth
//!   the paper approximated;
//! * the **Table II instance sampler** and the **Fig. 2 / Fig. 3 study
//!   procedures** (§III-B, §IV-A).
//!
//! # Quick example
//!
//! ```
//! use ulba_model::{ModelParams, Method, schedule};
//!
//! let params = ModelParams::example();
//! // Standard method on the Menon schedule...
//! let std_time = schedule::total_time(
//!     &params,
//!     &schedule::menon_schedule(&params),
//!     Method::Standard,
//! );
//! // ...versus ULBA with α = 0.4 on its σ⁺ schedule.
//! let ulba_time = schedule::total_time(
//!     &params,
//!     &schedule::sigma_plus_schedule(&params, 0.4),
//!     Method::Ulba { alpha: 0.4 },
//! );
//! assert!(ulba_time <= std_time);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instance;
pub mod params;
pub mod schedule;
pub mod search;
pub mod standard;
pub mod study;
pub mod ulba;

pub use instance::{Instance, InstanceDistribution};
pub use params::ModelParams;
pub use schedule::{Method, Schedule};
pub use search::{AnnealSearchConfig, SearchResult};
