//! Adversarial imbalance scenarios for the ULBA machinery.
//!
//! The erosion proxy application reproduces the paper's experiment; this
//! crate stresses the same load-balancing stack — WIR estimation, gossip
//! dissemination, adaptive triggers, α-based centralized rebalancing — with
//! *generated* adversarial workloads whose imbalance factor λ = max/mean is
//! an exact, analytically verified construction parameter instead of an
//! emergent property of a physics simulation:
//!
//! * [`generator`] — deterministic per-phase, per-rank work tables for five
//!   families (slow node, scatter, drifting hotspot, bursty, task graph),
//!   built from capped random splits that conserve total work exactly and
//!   reject infeasible requests up front;
//! * [`config`] — the experiment configuration ([`ScenarioConfig`]);
//! * [`app`] — the rank program driving the tables through the SPMD
//!   runtime, plus the run and batch entry points mirroring the erosion
//!   app's; both return the LB driver's record, [`ScenarioResult`].

pub mod app;
pub mod config;
pub mod generator;

pub use app::{run_scenario, run_scenario_batch, ScenarioResult, ScenarioTotals, TRAFFIC_TAG};
pub use config::ScenarioConfig;
pub use generator::{split_capped, ScenarioKind, WorkTable, LAMBDA_TOLERANCE, MIN_AVG_UNITS};
