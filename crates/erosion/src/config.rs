//! Experiment configuration for the erosion proxy application.

use serde::{Deserialize, Serialize};
use ulba_core::driver::{require_non_negative, require_positive, LbParams, Placement};
use ulba_core::gossip::{GossipMode, GossipWire};
use ulba_core::policy::LbPolicy;
use ulba_runtime::{Backend, JobServer};

pub use ulba_core::trigger::TriggerKind;

/// Full configuration of one erosion experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErosionConfig {
    /// Number of PEs (`P`), one stripe and one rock disc each initially.
    pub ranks: usize,
    /// Columns per initial stripe.
    pub cols_per_pe: usize,
    /// Domain height in cells.
    pub height: usize,
    /// Rock disc radius in cells.
    pub rock_radius: usize,
    /// Number of strongly erodible rocks (the paper tests 1–3).
    pub strong_rocks: usize,
    /// Erosion probability of weakly erodible rocks (paper: 0.02).
    pub p_weak: f64,
    /// Erosion probability of strongly erodible rocks (paper: 0.4).
    pub p_strong: f64,
    /// FLOP charged per unit of fluid weight per iteration (within the
    /// 52–1165 FLOP/cell range of Tomczak & Szafran used by Table II).
    pub flop_per_cell: f64,
    /// Number of application iterations (Fig. 4b runs ~400).
    pub iterations: u64,
    /// Master seed: strong-rock placement and erosion sampling derive from
    /// it, so a (config, seed) pair is fully reproducible. Sampling is
    /// ownership-independent, so every LB policy faces the same rolls — but
    /// not quite the same physics: exposure at a just-migrated join can lag
    /// (see [`crate::erode`]), which moves eroded totals by a few cells
    /// between policies on some seeds.
    pub seed: u64,
    /// Load-balancing policy under test.
    pub policy: LbPolicy,
    /// Adaptive trigger.
    pub trigger: TriggerKind,
    /// WIR dissemination mode (one step per iteration, §III-C).
    pub gossip: GossipMode,
    /// Gossip wire format: full database snapshots (the paper's scheme) or
    /// per-peer deltas with a periodic full-snapshot anti-entropy round.
    /// The merged databases — and with them every LB decision — are
    /// identical either way; only the bytes charged on the wire differ.
    pub gossip_wire: GossipWire,
    /// Sliding window of the per-PE WIR estimator (≥ 2 samples).
    pub wir_window: usize,
    /// Partition on *predicted* column weights (current weight extrapolated
    /// by its per-column growth rate over the expected LB interval) instead
    /// of current weights.
    ///
    /// This is our extension of ULBA's anticipation to the spatial
    /// dimension (`ulba_core::partition::predicted_weights`): the split is
    /// balanced at the horizon rather than at the instant of the LB step.
    /// `false` reproduces the paper.
    pub anticipatory_partitioning: bool,
    /// Initial LB-cost estimate, as a fraction of the first iteration's wall
    /// time (seeds the EWMA cost model before any LB has been measured).
    pub initial_lb_cost_factor: f64,
    /// Fixed per-call LB overhead, in units of the *initial balanced
    /// per-PE iteration compute time*.
    ///
    /// The paper's centralized technique pays for gathering and rebuilding
    /// cell-level domain state on a physical cluster; our balancer only
    /// ships column weights and the migrated columns, which would make `C`
    /// three orders of magnitude cheaper than Table II's 0.1–3.0
    /// balanced-iteration range and erase the trade-off the paper studies.
    /// This constant restores the paper's cost regime — one of this
    /// reproduction's deliberate substitutions (a modelled charge standing
    /// in for work a physical cluster would really do).
    pub lb_fixed_cost_factor: f64,
    /// FLOP charged on the *root* per domain cell at each LB step, modelling
    /// the centralized technique's cell-granularity repartitioning work
    /// (the paper computes every stripe "on a single PE"). This makes the
    /// LB cost grow with `P` under weak scaling, as observed on real
    /// centralized balancers, and drives the Fig. 4a shape where total time
    /// rises with `P` at fixed per-PE load.
    pub lb_root_walk_flop_per_cell: f64,
    /// PE speed ω in FLOP/s (Table II: 1 GFLOPS).
    pub omega: f64,
    /// Execution backend of the SPMD runtime. `Some` always wins; `None`
    /// means [`ErosionConfig::server`]'s pool when one is set, otherwise
    /// the `ULBA_BACKEND` environment variable, else the global pool (the
    /// one rule of `ulba_runtime::RunConfig::resolve`).
    pub backend: Option<Backend>,
    /// Worker threads of the parallel backend (`None` = runtime default:
    /// the `ULBA_WORKERS` environment variable, falling back to all
    /// available cores). Ignored by the sequential backend.
    pub workers: Option<usize>,
    /// Leaf shard count of the runtime's collective rendezvous hub
    /// (`None` = runtime default: the `ULBA_HUB_SHARDS` environment
    /// variable, falling back to `min(effective workers, 64)`). Purely a
    /// contention knob — results are bit-identical for any value.
    pub hub_shards: Option<usize>,
    /// Submit the run to this existing [`JobServer`] instead of standing up
    /// (or routing to) a pool of its own — unless an explicit
    /// [`ErosionConfig::backend`] says sequential. Not serialized — a server is a live handle, not a
    /// parameter; deserialized configs always start with `None`.
    #[serde(skip)]
    pub server: Option<JobServer>,
}

impl ErosionConfig {
    /// Paper-scale domain (§IV-B): 1000 columns × 1000 rows per PE
    /// (1 M cells/PE), radius-250 discs, 400 iterations, erosion
    /// probabilities 0.02 / 0.4, ULBA α = 0.4 trigger per Zhai.
    ///
    /// Memory: ~1 MB per PE (one byte per cell); fine for `P ≤ 64` on a
    /// laptop, heavy above.
    pub fn paper(ranks: usize, strong_rocks: usize) -> Self {
        Self {
            ranks,
            cols_per_pe: 1000,
            height: 1000,
            rock_radius: 250,
            strong_rocks,
            p_weak: 0.02,
            p_strong: 0.4,
            flop_per_cell: 200.0,
            iterations: 400,
            seed: 0x0E05_1019,
            policy: LbPolicy::ulba_fixed(0.4),
            trigger: TriggerKind::Zhai,
            gossip: GossipMode::RandomPush { fanout: 2 },
            gossip_wire: GossipWire::default(),
            wir_window: 8,
            anticipatory_partitioning: false,
            initial_lb_cost_factor: 1.0,
            lb_fixed_cost_factor: 2.0,
            lb_root_walk_flop_per_cell: 6.0,
            omega: 1.0e9,
            backend: None,
            workers: None,
            hub_shards: None,
            server: None,
        }
    }

    /// Route this experiment to an existing shared [`JobServer`]. An
    /// explicit [`ErosionConfig::backend`] wins; otherwise a server target
    /// means that pool; otherwise `ULBA_BACKEND`, else the global pool.
    /// Figure harnesses use this to run whole sweeps concurrently on one
    /// pool; see [`crate::app::run_erosion_batch`].
    pub fn with_server(mut self, server: JobServer) -> Self {
        self.server = Some(server);
        self
    }

    /// Quarter-linear-scale domain used by the figure harnesses:
    /// 250 × 250 cells per PE, radius-62 discs.
    ///
    /// To preserve the paper's *timescales* the erosion probabilities shrink
    /// with the radius (a disc erodes in `≈ area/(frontier·p) ∝ r/p`
    /// iterations, so `p` scales by 62/250) and `flop_per_cell` grows 16×
    /// (the per-PE cell count shrank 16×), keeping per-iteration virtual
    /// times and LB-cost ratios at paper magnitude.
    pub fn scaled(ranks: usize, strong_rocks: usize) -> Self {
        Self {
            cols_per_pe: 250,
            height: 250,
            rock_radius: 62,
            p_weak: 0.005,
            p_strong: 0.1,
            flop_per_cell: 3200.0,
            lb_root_walk_flop_per_cell: 96.0,
            ..Self::paper(ranks, strong_rocks)
        }
    }

    /// A tiny domain for unit/integration tests (64 × 64 per PE).
    pub fn tiny(ranks: usize, strong_rocks: usize) -> Self {
        Self {
            cols_per_pe: 64,
            height: 64,
            rock_radius: 14,
            p_weak: 0.02,
            p_strong: 0.35,
            flop_per_cell: 1000.0,
            iterations: 60,
            ..Self::paper(ranks, strong_rocks)
        }
    }

    /// Validate cross-field invariants: the geometry and physics checks
    /// here, the LB-loop and placement checks every application shares on
    /// the driver's [`LbParams`] / [`Placement`].
    pub fn validate(&self) -> Result<(), String> {
        self.placement().validate()?;
        if self.height > 1 << 16 {
            return Err(format!(
                "height {} exceeds the u16 row-index space of the erosion frontier \
                 (rows 0..height−1 must fit u16, so height ≤ 65536)",
                self.height
            ));
        }
        if self.strong_rocks > self.ranks {
            return Err(format!(
                "{} strong rocks but only {} discs exist",
                self.strong_rocks, self.ranks
            ));
        }
        if 2 * self.rock_radius >= self.cols_per_pe {
            return Err("disc diameter must fit inside one stripe".into());
        }
        if 2 * self.rock_radius >= self.height {
            return Err("disc diameter must fit the domain height".into());
        }
        for (name, p) in [("p_weak", self.p_weak), ("p_strong", self.p_strong)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        require_positive("flop_per_cell", self.flop_per_cell)?;
        require_non_negative("lb_fixed_cost_factor", self.lb_fixed_cost_factor)?;
        require_non_negative("lb_root_walk_flop_per_cell", self.lb_root_walk_flop_per_cell)?;
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

    /// Total domain width in columns.
    pub fn width(&self) -> usize {
        self.ranks * self.cols_per_pe
    }

    /// The initial balanced per-PE compute time of one iteration (seconds):
    /// the unit in which Table II expresses the LB cost `C`.
    pub fn base_iteration_secs(&self) -> f64 {
        (self.cols_per_pe * self.height) as f64 * self.flop_per_cell / self.omega
    }

    /// The fixed per-call LB overhead in seconds.
    pub fn lb_fixed_cost_secs(&self) -> f64 {
        self.lb_fixed_cost_factor * self.base_iteration_secs()
    }

    /// Root-side repartitioning work per LB call, in seconds
    /// (`walk_flop × total cells / ω`): grows linearly with `P`.
    pub fn lb_root_walk_secs(&self) -> f64 {
        self.lb_root_walk_flop_per_cell * (self.width() * self.height) as f64 / self.omega
    }

    /// Total modelled LB cost per call in seconds (fixed + root walk),
    /// before the (small) real collective/migration costs.
    pub fn lb_modelled_cost_secs(&self) -> f64 {
        self.lb_fixed_cost_secs() + self.lb_root_walk_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        ErosionConfig::paper(32, 1).validate().unwrap();
        ErosionConfig::scaled(256, 3).validate().unwrap();
        ErosionConfig::tiny(4, 1).validate().unwrap();
    }

    #[test]
    fn scaled_preserves_erosion_timescale() {
        let paper = ErosionConfig::paper(32, 1);
        let scaled = ErosionConfig::scaled(32, 1);
        // r/p is the erosion-duration scale: it must match between presets.
        let t_paper = paper.rock_radius as f64 / paper.p_strong;
        let t_scaled = scaled.rock_radius as f64 / scaled.p_strong;
        assert!((t_paper - t_scaled).abs() / t_paper < 0.05);
        // Per-iteration FLOP per PE must match too.
        let f_paper = (paper.cols_per_pe * paper.height) as f64 * paper.flop_per_cell;
        let f_scaled = (scaled.cols_per_pe * scaled.height) as f64 * scaled.flop_per_cell;
        assert!((f_paper - f_scaled).abs() / f_paper < 0.05);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ErosionConfig::tiny(4, 1);
        c.strong_rocks = 5;
        assert!(c.validate().is_err());
        let mut c = ErosionConfig::tiny(4, 1);
        c.rock_radius = 40;
        assert!(c.validate().is_err());
        let mut c = ErosionConfig::tiny(4, 1);
        c.p_strong = 1.5;
        assert!(c.validate().is_err());
        let mut c = ErosionConfig::tiny(4, 1);
        c.iterations = 0;
        assert!(c.validate().is_err());
        let mut c = ErosionConfig::tiny(4, 1);
        c.workers = Some(0);
        assert!(c.validate().is_err());
        let mut c = ErosionConfig::tiny(4, 1);
        c.hub_shards = Some(0);
        assert!(c.validate().is_err());
        let mut c = ErosionConfig::tiny(4, 1);
        c.gossip_wire = GossipWire::Delta { full_every: 0 };
        assert!(c.validate().is_err());
        let mut c = ErosionConfig::tiny(4, 1);
        c.height = (1 << 16) + 1; // row indices of the frontier are u16
        assert!(c.validate().is_err());
        // Non-finite costs and speeds: `NaN` passes any `x <= 0.0` test.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let good = ErosionConfig::tiny(4, 1);
            for (cfg, field) in [
                (ErosionConfig { flop_per_cell: bad, ..good.clone() }, "flop_per_cell"),
                (
                    ErosionConfig { lb_fixed_cost_factor: bad, ..good.clone() },
                    "lb_fixed_cost_factor",
                ),
                (
                    ErosionConfig { lb_root_walk_flop_per_cell: bad, ..good.clone() },
                    "lb_root_walk_flop_per_cell",
                ),
                (ErosionConfig { omega: bad, ..good.clone() }, "omega"),
                (
                    ErosionConfig { initial_lb_cost_factor: bad, ..good.clone() },
                    "initial_lb_cost_factor",
                ),
            ] {
                let err = cfg.validate().expect_err(field);
                assert!(err.contains(field), "{field} = {bad}: {err}");
            }
        }
        // P = 65536 itself is valid: rock cells carry no id, so the rank
        // count is not bounded by the cell packing.
        let c = ErosionConfig::tiny(1 << 16, 1);
        c.validate().unwrap();
    }

    #[test]
    fn backend_and_worker_overrides_validate() {
        let mut c = ErosionConfig::tiny(4, 1);
        assert_eq!(c.backend, None, "presets defer to the runtime default");
        c.backend = Some(Backend::Sequential);
        c.validate().unwrap();
        c.backend = Some(Backend::Parallel);
        c.workers = Some(2);
        c.validate().unwrap();
        c.hub_shards = Some(8);
        c.validate().unwrap();
    }
}
