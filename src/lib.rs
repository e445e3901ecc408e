//! # ULBA — anticipatory (underloading) load balancing
//!
//! A full Rust reproduction of *"On the Benefits of Anticipating Load
//! Imbalance for Performance Optimization of Parallel Applications"*
//! (Boulmier, Raynaud, Abdennadher, Chopard — IEEE CLUSTER 2019,
//! arXiv:1909.07168).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] (`ulba-model`) — the paper's analytical models: standard LB
//!   (Eq. (1)–(4)), ULBA (Eq. (5)–(12)), `σ⁻`/`σ⁺` interval bounds, the
//!   Table II instance sampler, and three schedule optimizers (exact DP,
//!   simulated annealing, exhaustive oracle);
//! * [`anneal`] (`ulba-anneal`) — the generic simulated-annealing engine
//!   (replacement for the Python `simanneal` module used in §III-B);
//! * [`runtime`] (`ulba-runtime`) — a virtual-time SPMD distributed-memory
//!   runtime (typed messages, collectives, Hockney cost model,
//!   per-rank/iteration metrics) whose rank programs suspend rather than
//!   block, launched through one path (`submit`) onto a shared
//!   work-stealing job server that runs many concurrent SPMD jobs on one
//!   worker pool (the default), or onto a single-threaded lockstep
//!   scheduler (the deterministic oracle; fastest on one core);
//! * [`core`] (`ulba-core`) — the ULBA machinery of §III-C: WIR estimation,
//!   gossip dissemination, z-score overload detection, the Zhai degradation
//!   trigger, Algorithm 2 target shares, weighted stripe partitioning, the
//!   centralized balancer, and `core::driver` — the one LB loop that runs
//!   them as a generic rank program behind the six-method `Workload` trait
//!   (see `examples/adaptive_runtime.rs` for plugging in an application);
//! * [`erosion`] (`ulba-erosion`) — the §IV-B fluid-with-erosion proxy
//!   application, a `Workload` of that driver;
//! * [`scenario`] (`ulba-scenario`) — adversarial imbalance scenario
//!   generators (slow node, scatter, drifting hotspot, bursty, task-graph
//!   traffic) with exact, analytically verified imbalance factors — the
//!   driver's second `Workload`.
//!
//! ## Quick start
//!
//! Compare the standard method against ULBA analytically:
//!
//! ```
//! use ulba::model::{schedule, Method, ModelParams};
//!
//! let params = ModelParams::example();
//! let std_time = schedule::total_time(
//!     &params,
//!     &schedule::menon_schedule(&params),
//!     Method::Standard,
//! );
//! let ulba_time = schedule::total_time(
//!     &params,
//!     &schedule::sigma_plus_schedule(&params, 0.4),
//!     Method::Ulba { alpha: 0.4 },
//! );
//! assert!(ulba_time <= std_time, "anticipation never loses here");
//! ```
//!
//! Or run the full distributed erosion study on the simulated cluster:
//!
//! ```
//! use ulba::erosion::{run_erosion, ErosionConfig};
//!
//! let mut cfg = ErosionConfig::tiny(4, 1);
//! cfg.iterations = 40;
//! let result = run_erosion(&cfg);
//! assert!(result.makespan > 0.0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the harnesses regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ulba_anneal as anneal;
pub use ulba_core as core;
pub use ulba_erosion as erosion;
pub use ulba_model as model;
pub use ulba_runtime as runtime;
pub use ulba_scenario as scenario;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use ulba_core::prelude::*;
    pub use ulba_erosion::{
        median_result, run_erosion, run_erosion_batch, run_erosion_median, submit_erosion,
        ErosionConfig, ErosionJob, TriggerKind,
    };
    pub use ulba_model::{
        schedule::{menon_schedule, sigma_plus_schedule, total_time},
        InstanceDistribution, Method, ModelParams, Schedule,
    };
    pub use ulba_runtime::{
        run, submit, try_run, Backend, JobHandle, JobServer, MachineSpec, Priority, RunConfig,
        RunError, RunReport, SpmdCtx,
    };
    pub use ulba_scenario::{
        run_scenario, run_scenario_batch, submit_scenario, ScenarioConfig, ScenarioJob,
        ScenarioKind, ScenarioResult, WorkTable,
    };
}
