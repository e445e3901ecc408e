//! Configuration of one adversarial-scenario experiment.

use crate::generator::{ScenarioKind, MIN_AVG_UNITS};
use serde::{Deserialize, Serialize};
use ulba_core::driver::{require_non_negative, require_positive, LbParams, Placement};
use ulba_core::gossip::{GossipMode, GossipWire};
use ulba_core::policy::LbPolicy;
use ulba_runtime::{Backend, JobServer};

pub use ulba_core::trigger::TriggerKind;

/// Full configuration of one scenario experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Which adversarial family to generate.
    pub kind: ScenarioKind,
    /// Number of PEs (`P`).
    pub ranks: usize,
    /// Migratable tasks per initial rank; the global task space has
    /// `ranks · tasks_per_rank` indices and the balancer moves task ranges.
    pub tasks_per_rank: usize,
    /// Number of application iterations.
    pub iterations: u64,
    /// Iterations per phase (the work table advances one phase every
    /// `phase_len` iterations, cycling).
    pub phase_len: u64,
    /// Distinct phases in the generated table.
    pub phases: usize,
    /// Target imbalance factor λ = max/mean of per-rank work in the hot
    /// phases. Feasible range `[1, ranks]`.
    pub lambda: f64,
    /// Mean work units per rank per iteration (≥ [`MIN_AVG_UNITS`] so
    /// integer rounding keeps the achieved λ within tolerance).
    pub avg_units_per_rank: u64,
    /// FLOP charged per work unit.
    pub flop_per_unit: f64,
    /// Partners each rank pushes traffic to per iteration
    /// ([`ScenarioKind::TaskGraph`] only).
    pub traffic_fanout: usize,
    /// `u64` words per traffic payload ([`ScenarioKind::TaskGraph`] only).
    pub traffic_payload_len: usize,
    /// Bytes migrated per task at an LB step (models the data a task drags
    /// along when it moves).
    pub task_bytes: usize,
    /// Master seed: the work table, gossip partners, and traffic pattern
    /// all derive from it.
    pub seed: u64,
    /// Load-balancing policy under test.
    pub policy: LbPolicy,
    /// Adaptive trigger.
    pub trigger: TriggerKind,
    /// WIR dissemination mode (one step per iteration).
    pub gossip: GossipMode,
    /// Gossip wire format (full snapshots or deltas).
    pub gossip_wire: GossipWire,
    /// Sliding window of the per-PE WIR estimator (≥ 2 samples).
    pub wir_window: usize,
    /// Initial LB-cost estimate as a fraction of the first iteration's wall
    /// time.
    pub initial_lb_cost_factor: f64,
    /// Fixed per-call LB overhead in units of the balanced per-PE
    /// iteration compute time (same role as the erosion app's factor).
    pub lb_fixed_cost_factor: f64,
    /// PE speed ω in FLOP/s.
    pub omega: f64,
    /// Execution backend. `Some` always wins; `None` means
    /// [`ScenarioConfig::server`]'s pool when one is set, otherwise
    /// `ULBA_BACKEND`, else the global pool.
    pub backend: Option<Backend>,
    /// Worker threads of the parallel backend (`None` = default).
    pub workers: Option<usize>,
    /// Leaf shard count of the rendezvous hub (`None` = runtime default).
    /// Purely a contention knob — results are bit-identical for any value.
    pub hub_shards: Option<usize>,
    /// Submit the run to this existing [`JobServer`] (unless an explicit
    /// `backend` says sequential). Not serialized — a live handle, not a parameter.
    #[serde(skip)]
    pub server: Option<JobServer>,
}

impl ScenarioConfig {
    /// Default experiment scale: 16 tasks per rank, 64 iterations over
    /// 8 phases of 8 iterations, λ = 4 (clamped to `ranks`), 64 Ki work
    /// units per rank at 1 kFLOP each (≈ 67 ms per balanced iteration at
    /// ω = 1 GFLOPS), ULBA α = 0.4 under the Zhai trigger.
    pub fn new(kind: ScenarioKind, ranks: usize) -> Self {
        Self {
            kind,
            ranks,
            tasks_per_rank: 16,
            iterations: 64,
            phase_len: 8,
            phases: 8,
            lambda: 4.0f64.min(ranks as f64),
            avg_units_per_rank: 1 << 16,
            flop_per_unit: 1000.0,
            traffic_fanout: 2,
            traffic_payload_len: 8,
            task_bytes: 4096,
            seed: 0x5CE0_0001,
            policy: LbPolicy::ulba_fixed(0.4),
            trigger: TriggerKind::Zhai,
            gossip: GossipMode::RandomPush { fanout: 2 },
            gossip_wire: GossipWire::default(),
            wir_window: 8,
            initial_lb_cost_factor: 1.0,
            lb_fixed_cost_factor: 2.0,
            omega: 1.0e9,
            backend: None,
            workers: None,
            hub_shards: None,
            server: None,
        }
    }

    /// A small configuration for unit/integration tests: 32 iterations,
    /// 4 phases, 256 units per rank.
    pub fn tiny(kind: ScenarioKind, ranks: usize) -> Self {
        Self { iterations: 32, phases: 4, avg_units_per_rank: 256, ..Self::new(kind, ranks) }
    }

    /// Route this experiment to an existing shared [`JobServer`]. An
    /// explicit [`ScenarioConfig::backend`] wins; otherwise a server target
    /// means that pool; otherwise `ULBA_BACKEND`, else the global pool. See
    /// [`crate::app::run_scenario_batch`].
    pub fn with_server(mut self, server: JobServer) -> Self {
        self.server = Some(server);
        self
    }

    /// Validate cross-field invariants: the generator and traffic checks
    /// here, the LB-loop and placement checks every application shares on
    /// the driver's [`LbParams`] / [`Placement`]. The work-table parameters
    /// get a second, authoritative check inside
    /// [`WorkTable::build`](crate::generator::WorkTable::build).
    pub fn validate(&self) -> Result<(), String> {
        self.placement().validate()?;
        if self.tasks_per_rank == 0 {
            return Err("need at least one task per rank".into());
        }
        if self.phase_len == 0 || self.phases == 0 {
            return Err("phase_len and phases must be positive".into());
        }
        if !(1.0..=self.ranks as f64).contains(&self.lambda) {
            return Err(format!(
                "lambda {} infeasible for {} ranks (max/mean lies in [1, P])",
                self.lambda, self.ranks
            ));
        }
        if self.avg_units_per_rank < MIN_AVG_UNITS {
            return Err(format!(
                "avg_units_per_rank must be ≥ {MIN_AVG_UNITS}, got {}",
                self.avg_units_per_rank
            ));
        }
        require_positive("flop_per_unit", self.flop_per_unit)?;
        if self.kind == ScenarioKind::TaskGraph {
            if self.traffic_fanout == 0 || self.traffic_fanout >= self.ranks.max(2) {
                return Err(format!(
                    "traffic_fanout must be in [1, ranks) for task-graph, got {}",
                    self.traffic_fanout
                ));
            }
            if self.traffic_payload_len == 0 {
                return Err("traffic_payload_len must be positive for task-graph".into());
            }
        }
        require_non_negative("lb_fixed_cost_factor", self.lb_fixed_cost_factor)?;
        self.lb_params().validate()
    }

    /// The LB-side parameters of this experiment, as the driver reads them.
    pub(crate) fn lb_params(&self) -> LbParams {
        LbParams {
            policy: self.policy,
            trigger: self.trigger,
            gossip: self.gossip,
            gossip_wire: self.gossip_wire,
            wir_window: self.wir_window,
            initial_lb_cost_factor: self.initial_lb_cost_factor,
            seed: self.seed,
            omega: self.omega,
            iterations: self.iterations,
        }
    }

    /// Where this experiment executes, as the driver resolves it.
    pub(crate) fn placement(&self) -> Placement {
        Placement {
            ranks: self.ranks,
            backend: self.backend,
            workers: self.workers,
            hub_shards: self.hub_shards,
            server: self.server.clone(),
        }
    }

    /// Global task count.
    pub fn total_tasks(&self) -> usize {
        self.ranks * self.tasks_per_rank
    }

    /// The balanced per-PE compute time of one iteration (seconds) — the
    /// unit of the fixed LB overhead.
    pub fn base_iteration_secs(&self) -> f64 {
        self.avg_units_per_rank as f64 * self.flop_per_unit / self.omega
    }

    /// The fixed per-call LB overhead in seconds.
    pub fn lb_fixed_cost_secs(&self) -> f64 {
        self.lb_fixed_cost_factor * self.base_iteration_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for kind in ScenarioKind::ALL {
            ScenarioConfig::new(kind, 16).validate().unwrap();
            ScenarioConfig::tiny(kind, 4).validate().unwrap();
        }
    }

    #[test]
    fn lambda_clamps_to_small_rank_counts() {
        let cfg = ScenarioConfig::new(ScenarioKind::Scatter, 2);
        assert_eq!(cfg.lambda, 2.0);
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ScenarioConfig::tiny(ScenarioKind::Scatter, 4);
        c.lambda = 5.0;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::tiny(ScenarioKind::Scatter, 4);
        c.lambda = 0.5;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::tiny(ScenarioKind::Scatter, 4);
        c.avg_units_per_rank = 8;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::tiny(ScenarioKind::TaskGraph, 4);
        c.traffic_fanout = 0;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::tiny(ScenarioKind::TaskGraph, 4);
        c.traffic_fanout = 4;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::tiny(ScenarioKind::Scatter, 4);
        c.gossip_wire = GossipWire::Delta { full_every: 0 };
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::tiny(ScenarioKind::Scatter, 4);
        c.tasks_per_rank = 0;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::tiny(ScenarioKind::Scatter, 4);
        c.hub_shards = Some(0);
        assert!(c.validate().is_err());
        // Non-finite costs: `NaN` passes any `x <= 0.0` test.
        for bad in [f64::NAN, f64::INFINITY] {
            let good = ScenarioConfig::tiny(ScenarioKind::Scatter, 4);
            for (cfg, field) in [
                (ScenarioConfig { flop_per_unit: bad, ..good.clone() }, "flop_per_unit"),
                (
                    ScenarioConfig { lb_fixed_cost_factor: bad, ..good.clone() },
                    "lb_fixed_cost_factor",
                ),
            ] {
                let err = cfg.validate().expect_err(field);
                assert!(err.contains(field), "{field} = {bad}: {err}");
            }
        }
    }

    #[test]
    fn fixed_cost_scales_with_iteration_time() {
        let cfg = ScenarioConfig::new(ScenarioKind::SlowNode, 8);
        let base = cfg.base_iteration_secs();
        assert!(base > 0.0);
        assert_eq!(cfg.lb_fixed_cost_secs(), 2.0 * base);
    }
}
