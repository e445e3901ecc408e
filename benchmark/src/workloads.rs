//! The six workloads: how their inputs derive from `--seed`, what one op
//! runs, and how an op's results reduce to the virtual-time metrics.
//!
//! Every SPMD run goes through an explicit `JobServer` (the engine ROADMAP
//! item 2 keeps); the program receives only the generated configs.

use std::ops::Range;
use ulba_core::gossip::{GossipMode, GossipWire};
use ulba_core::policy::LbPolicy;
use ulba_core::trigger::TriggerKind;
use ulba_erosion::{run_erosion, run_erosion_batch, ErosionConfig, ExperimentResult};
use ulba_model::schedule::{menon_schedule, sigma_plus_schedule, total_time, Method};
use ulba_model::search::{anneal_schedule, optimal_schedule, AnnealSearchConfig};
use ulba_model::{Instance, InstanceDistribution};
use ulba_runtime::{Backend, JobServer, RankMetrics};
use ulba_scenario::{run_scenario, ScenarioConfig, ScenarioKind, ScenarioResult};

/// The ULBA arm every workload compares against the standard method.
pub const ULBA_ALPHA: f64 = 0.4;
/// The α sweep of `sweep_batch` (index 0 is the standard method).
const SWEEP_ALPHAS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];
/// Seeds per policy in `sweep_batch` (the paper's "median among five runs").
const SWEEP_SEEDS: usize = 5;

/// One of the six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ErosionWide,
    ErosionPaper,
    ScenarioDelta,
    ScenarioFull,
    SweepBatch,
    ModelFig2,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::ErosionWide,
        Kind::ErosionPaper,
        Kind::ScenarioDelta,
        Kind::ScenarioFull,
        Kind::SweepBatch,
        Kind::ModelFig2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ErosionWide => "erosion_wide",
            Kind::ErosionPaper => "erosion_paper",
            Kind::ScenarioDelta => "scenario_delta",
            Kind::ScenarioFull => "scenario_full",
            Kind::SweepBatch => "sweep_batch",
            Kind::ModelFig2 => "model_fig2",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The same scenario on the other gossip wire (scenario workloads only).
    pub fn other_wire(self) -> Option<Kind> {
        match self {
            Kind::ScenarioDelta => Some(Kind::ScenarioFull),
            Kind::ScenarioFull => Some(Kind::ScenarioDelta),
            _ => None,
        }
    }
}

/// Seed of `stream` for `workload` under `--seed`: a pure function of its
/// three arguments (never of the repeat index), SplitMix64-mixed so nearby
/// `--seed` values give unrelated configs.
pub fn derive_seed(seed: u64, workload: &str, stream: u64) -> u64 {
    let mut z = seed;
    for b in workload.bytes() {
        z = mix(z ^ u64::from(b));
    }
    mix(z ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `--seed 0` keeps the repo's `default` seed; any other value derives one.
fn config_seed(seed: u64, kind: Kind, stream: u64, default: u64) -> u64 {
    if seed == 0 {
        default
    } else {
        derive_seed(seed, kind.name(), stream)
    }
}

/// The generated inputs of one workload: what the program is handed.
#[derive(Clone)]
pub enum Inputs {
    Erosion {
        cfgs: Vec<ErosionConfig>,
        /// One `run_erosion_batch` (true) or one `run_erosion` after another.
        batched: bool,
        /// Result indexes of the standard arm (`None`: not part of the op).
        std: Option<Range<usize>>,
        /// Result indexes of the ULBA α = 0.4 arm.
        ulba: Range<usize>,
    },
    /// `[standard, ULBA]`.
    Scenario { cfgs: Vec<ScenarioConfig> },
    Model {
        /// Every instance goes through σ⁺ and Menon (microseconds each)…
        instances: Vec<Instance>,
        /// …and the first `heavy` also through annealing and the exact DP.
        heavy: usize,
        sa: AnnealSearchConfig,
    },
}

/// The `weak_scaling --smoke` configuration at `ranks` ranks under ULBA
/// (`crates/bench/src/figures/weak_scaling.rs::config_for`): a tiny domain
/// per PE, ten iterations, ring gossip, one strong rock per 64 PEs.
pub fn wide_config(ranks: usize) -> ErosionConfig {
    let mut cfg = ErosionConfig::tiny(ranks, (ranks / 64).max(1));
    cfg.cols_per_pe = 32;
    cfg.height = 32;
    cfg.rock_radius = 7;
    cfg.iterations = 10;
    cfg.gossip = GossipMode::Ring;
    cfg.policy = LbPolicy::ulba_fixed(ULBA_ALPHA);
    cfg
}

/// Build the inputs of `kind` from `--seed`.
pub fn build_inputs(kind: Kind, seed: u64, smoke: bool) -> Inputs {
    match kind {
        Kind::ErosionWide => {
            // The `weak_scaling --smoke` leg, at a quarter of the canonical
            // 16384 ranks so that a run times twenty ops, not two.
            let mut cfg = wide_config(if smoke { 256 } else { 4096 });
            if smoke {
                cfg.iterations = 8;
            }
            cfg.seed = config_seed(seed, kind, 0, cfg.seed);
            Inputs::single(cfg)
        }
        Kind::ErosionPaper => {
            // §IV-B as published, at the smallest P the paper runs.
            let mut cfg = if smoke {
                ErosionConfig { iterations: 8, ..ErosionConfig::scaled(8, 1) }
            } else {
                ErosionConfig::paper(32, 1)
            };
            cfg.seed = config_seed(seed, kind, 0, cfg.seed);
            let std = ErosionConfig { policy: LbPolicy::Standard, ..cfg.clone() };
            let ulba = ErosionConfig { policy: LbPolicy::ulba_fixed(ULBA_ALPHA), ..cfg };
            Inputs::Erosion { cfgs: vec![std, ulba], batched: false, std: Some(0..1), ulba: 1..2 }
        }
        Kind::ScenarioDelta | Kind::ScenarioFull => {
            let ranks = if smoke { 64 } else { 256 };
            let mut cfg = ScenarioConfig::new(ScenarioKind::DriftingHotspot, ranks);
            cfg.gossip_wire =
                if kind == Kind::ScenarioDelta { GossipWire::delta() } else { GossipWire::Full };
            // Misaligned with the 8-iteration phases, as figures/scenarios.rs.
            cfg.trigger = TriggerKind::Periodic(12);
            if smoke {
                cfg.iterations = 8;
                cfg.phase_len = 2;
                cfg.trigger = TriggerKind::Periodic(3);
            }
            // Both wires share stream 0: their makespans must be bit-equal.
            cfg.seed = config_seed(seed, Kind::ScenarioDelta, 0, cfg.seed);
            let std = ScenarioConfig { policy: LbPolicy::Standard, ..cfg.clone() };
            let ulba = ScenarioConfig { policy: LbPolicy::ulba_fixed(ULBA_ALPHA), ..cfg };
            Inputs::Scenario { cfgs: vec![std, ulba] }
        }
        Kind::SweepBatch => {
            // The fig5/fig4a shape: {standard, ULBA α ∈ 0.1…0.5} × 5 seeds.
            // `ErosionConfig::scaled` halved once more in linear size by the
            // preset's own rule (probabilities × ½, FLOP/cell × 4), 16 ranks.
            let mut base = ErosionConfig::scaled(if smoke { 4 } else { 16 }, 1);
            base.cols_per_pe = 125;
            base.height = 125;
            base.rock_radius = 31;
            base.p_weak = 0.0025;
            base.p_strong = 0.05;
            base.flop_per_cell = 12_800.0;
            base.lb_root_walk_flop_per_cell = 384.0;
            if smoke {
                base.iterations = 8;
            }
            let policies = std::iter::once(LbPolicy::Standard)
                .chain(SWEEP_ALPHAS.iter().map(|&a| LbPolicy::ulba_fixed(a)));
            let mut cfgs = Vec::new();
            for policy in policies {
                for s in 0..SWEEP_SEEDS as u64 {
                    let mut cfg = ErosionConfig { policy, ..base.clone() };
                    cfg.seed = config_seed(seed, kind, s, base.seed.wrapping_add(s));
                    cfgs.push(cfg);
                }
            }
            let arm =
                |policy_index: usize| policy_index * SWEEP_SEEDS..(policy_index + 1) * SWEEP_SEEDS;
            let ulba_index =
                1 + SWEEP_ALPHAS.iter().position(|&a| a == ULBA_ALPHA).expect("0.4 is swept");
            Inputs::Erosion { cfgs, batched: true, std: Some(arm(0)), ulba: arm(ulba_index) }
        }
        Kind::ModelFig2 => {
            // fig2's default seed is 2019 for both the sampler and the SA.
            let (light, heavy, steps) = if smoke { (64, 4, 2_000) } else { (4096, 24, 20_000) };
            let instances = InstanceDistribution::default()
                .sample_many(light, config_seed(seed, kind, 0, 2019));
            let sa = AnnealSearchConfig {
                steps,
                seed: config_seed(seed, kind, 1, 2019),
                ..AnnealSearchConfig::default()
            };
            Inputs::Model { instances, heavy, sa }
        }
    }
}

impl Inputs {
    /// The same inputs cut to one iteration (two annealed instances): the
    /// untimed warm-up op of a set-up.
    pub fn warm_up(&self) -> Inputs {
        let mut warm = self.clone();
        match &mut warm {
            Inputs::Erosion { cfgs, .. } => cfgs.iter_mut().for_each(|c| c.iterations = 1),
            Inputs::Scenario { cfgs } => cfgs.iter_mut().for_each(|c| c.iterations = 1),
            Inputs::Model { heavy, .. } => *heavy = 2.min(*heavy),
        }
        warm
    }

    /// Units one op attempts: runs, jobs, or annealed instances.
    pub fn units(&self) -> u64 {
        match self {
            Inputs::Erosion { cfgs, .. } => cfgs.len() as u64,
            Inputs::Scenario { cfgs } => cfgs.len() as u64,
            Inputs::Model { heavy, .. } => *heavy as u64,
        }
    }

    /// Fixed work of one op, the numerator of `work_per_s`: rank-iterations
    /// (Σ over runs of ranks × iterations), or annealed instances.
    pub fn work(&self) -> f64 {
        match self {
            Inputs::Erosion { cfgs, .. } => {
                cfgs.iter().map(|c| c.ranks as f64 * c.iterations as f64).sum()
            }
            Inputs::Scenario { cfgs } => {
                cfgs.iter().map(|c| c.ranks as f64 * c.iterations as f64).sum()
            }
            Inputs::Model { heavy, .. } => *heavy as f64,
        }
    }

    /// One erosion run as an op of its own.
    pub fn single(cfg: ErosionConfig) -> Inputs {
        Inputs::Erosion { cfgs: vec![cfg], batched: false, std: None, ulba: 0..1 }
    }

    /// Each job of an erosion op as an op of its own (empty otherwise).
    pub fn singles(&self) -> Vec<Inputs> {
        match self {
            Inputs::Erosion { cfgs, .. } => cfgs.iter().cloned().map(Inputs::single).collect(),
            _ => Vec::new(),
        }
    }

    /// Whether the workload runs on the SPMD runtime at all.
    pub fn is_spmd(&self) -> bool {
        !matches!(self, Inputs::Model { .. })
    }
}

/// One Table II instance after the model op.
#[derive(Debug, Clone, Copy)]
pub struct ModelPoint {
    /// σ⁺ schedule under ULBA with the instance's α.
    pub sigma_time: f64,
    /// Menon schedule under the standard method.
    pub menon_time: f64,
    /// Annealed and exact-optimal ULBA schedules (annealed instances only).
    pub searched: Option<(f64, f64)>,
}

/// What one op produced.
pub enum Outputs {
    Erosion(Vec<ExperimentResult>),
    Scenario(Vec<ScenarioResult>),
    Model(Vec<ModelPoint>),
}

/// Route an erosion config to `server` with `workers` hub shards,
/// whatever the environment says.
fn routed_erosion(cfg: &ErosionConfig, server: &JobServer, workers: usize) -> ErosionConfig {
    let mut cfg = cfg.clone();
    cfg.backend = Some(Backend::Parallel);
    cfg.workers = Some(workers);
    cfg.with_server(server.clone())
}

fn routed_scenario(cfg: &ScenarioConfig, server: &JobServer, workers: usize) -> ScenarioConfig {
    let mut cfg = cfg.clone();
    cfg.backend = Some(Backend::Parallel);
    cfg.workers = Some(workers);
    cfg.with_server(server.clone())
}

/// Run one op of `inputs`. SPMD workloads need `server`; a failed run
/// panics (the caller counts it).
pub fn run_op(inputs: &Inputs, server: Option<&JobServer>) -> Outputs {
    let pool = || server.expect("SPMD workloads run on a JobServer");
    match inputs {
        Inputs::Erosion { cfgs, batched, .. } => {
            let workers = pool().workers();
            let cfgs: Vec<ErosionConfig> =
                cfgs.iter().map(|c| routed_erosion(c, pool(), workers)).collect();
            Outputs::Erosion(if *batched {
                run_erosion_batch(&cfgs)
            } else {
                cfgs.iter().map(run_erosion).collect()
            })
        }
        Inputs::Scenario { cfgs } => {
            let workers = pool().workers();
            Outputs::Scenario(
                cfgs.iter().map(|c| run_scenario(&routed_scenario(c, pool(), workers))).collect(),
            )
        }
        Inputs::Model { instances, heavy, sa } => Outputs::Model(
            instances
                .iter()
                .enumerate()
                .map(|(i, inst)| {
                    let params = &inst.params;
                    let ulba = Method::Ulba { alpha: inst.alpha };
                    let sigma = sigma_plus_schedule(params, inst.alpha);
                    let sigma_time = total_time(params, &sigma, ulba);
                    let menon_time = total_time(params, &menon_schedule(params), Method::Standard);
                    let searched = (i < *heavy).then(|| {
                        let cfg =
                            AnnealSearchConfig { seed: sa.seed.wrapping_add(i as u64), ..*sa };
                        (
                            anneal_schedule(params, ulba, cfg).time,
                            optimal_schedule(params, ulba).time,
                        )
                    });
                    ModelPoint { sigma_time, menon_time, searched }
                })
                .collect(),
        ),
    }
}

/// Median by value (upper median for even counts, as `median_result`).
fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite makespans"));
    values[values.len() / 2]
}

/// The virtual-time summary of one op.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// ULBA α = 0.4 makespan in virtual seconds (`sweep_batch`: median over
    /// the five seeds; `model_fig2`: mean σ⁺ total time).
    pub t_ulba: f64,
    /// The standard method's, when the op ran it.
    pub t_std: Option<f64>,
    /// Everything that must repeat bit-for-bit from op to op: makespans,
    /// LB calls, eroded cells / executed work units.
    pub fingerprint: Vec<u64>,
}

impl Summary {
    /// `T_std / T_ulba`; > 1 when anticipation pays.
    pub fn speedup(&self) -> Option<f64> {
        self.t_std.map(|t_std| t_std / self.t_ulba)
    }
}

/// Reduce an op's outputs to its [`Summary`].
pub fn summarize(inputs: &Inputs, outputs: &Outputs) -> Summary {
    match (inputs, outputs) {
        (Inputs::Erosion { std, ulba, .. }, Outputs::Erosion(results)) => {
            let arm = |r: &Range<usize>| {
                median_of(results[r.clone()].iter().map(|x| x.makespan).collect())
            };
            Summary {
                t_ulba: arm(ulba),
                t_std: std.as_ref().map(arm),
                fingerprint: results
                    .iter()
                    .flat_map(|r| [r.makespan.to_bits(), r.lb_calls as u64, r.total_eroded])
                    .collect(),
            }
        }
        (Inputs::Scenario { .. }, Outputs::Scenario(results)) => Summary {
            t_ulba: results[1].makespan,
            t_std: Some(results[0].makespan),
            fingerprint: results
                .iter()
                .flat_map(|r| [r.makespan.to_bits(), r.lb_calls as u64, r.total_work_units])
                .collect(),
        },
        (Inputs::Model { .. }, Outputs::Model(points)) => {
            let n = points.len() as f64;
            let t_ulba = points.iter().map(|p| p.sigma_time).sum::<f64>() / n;
            // Mean of per-instance ratios, so that the largest instances
            // (W0 spans 20×) do not decide the figure alone.
            let speedup = points.iter().map(|p| p.menon_time / p.sigma_time).sum::<f64>() / n;
            Summary {
                t_ulba,
                t_std: Some(speedup * t_ulba),
                fingerprint: points
                    .iter()
                    .flat_map(|p| {
                        let (sa, opt) = p.searched.unwrap_or((0.0, 0.0));
                        [
                            p.sigma_time.to_bits(),
                            p.menon_time.to_bits(),
                            sa.to_bits(),
                            opt.to_bits(),
                        ]
                    })
                    .collect(),
            }
        }
        _ => unreachable!("outputs come from run_op on the same inputs"),
    }
}

/// Rank metrics of the op's ULBA run (first ULBA run for a sweep).
pub fn ulba_rank_metrics<'a>(inputs: &Inputs, outputs: &'a Outputs) -> &'a [RankMetrics] {
    match (inputs, outputs) {
        (Inputs::Erosion { ulba, .. }, Outputs::Erosion(results)) => {
            &results[ulba.start].rank_metrics
        }
        (_, Outputs::Scenario(results)) => &results[1].rank_metrics,
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_a_pure_function_of_seed_workload_and_stream() {
        let a = derive_seed(7, "erosion_wide", 0);
        assert_eq!(a, derive_seed(7, "erosion_wide", 0), "no hidden state, no repeat index");
        assert_ne!(a, derive_seed(8, "erosion_wide", 0));
        assert_ne!(a, derive_seed(7, "erosion_paper", 0));
        assert_ne!(a, derive_seed(7, "erosion_wide", 1));
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let seeds = |kind, seed| match build_inputs(kind, seed, true) {
            Inputs::Erosion { cfgs, .. } => cfgs.iter().map(|c| c.seed).collect::<Vec<_>>(),
            Inputs::Scenario { cfgs } => cfgs.iter().map(|c| c.seed).collect(),
            Inputs::Model { instances, sa, .. } => {
                vec![instances[0].params.w0.to_bits(), sa.seed]
            }
        };
        for kind in Kind::ALL {
            assert_eq!(seeds(kind, 7), seeds(kind, 7), "{}", kind.name());
            assert_ne!(seeds(kind, 7), seeds(kind, 8), "{}", kind.name());
        }
    }

    #[test]
    fn seed_zero_keeps_the_repo_defaults() {
        let Inputs::Erosion { cfgs, .. } = build_inputs(Kind::ErosionWide, 0, false) else {
            panic!("erosion inputs")
        };
        assert_eq!(cfgs[0].seed, ErosionConfig::tiny(4, 1).seed);
        let Inputs::Scenario { cfgs } = build_inputs(Kind::ScenarioFull, 0, false) else {
            panic!("scenario inputs")
        };
        assert_eq!(cfgs[0].seed, ScenarioConfig::new(ScenarioKind::DriftingHotspot, 4).seed);
    }

    #[test]
    fn both_scenario_wires_get_the_same_scenario() {
        for seed in [0, 7] {
            let (Inputs::Scenario { cfgs: delta }, Inputs::Scenario { cfgs: full }) = (
                build_inputs(Kind::ScenarioDelta, seed, false),
                build_inputs(Kind::ScenarioFull, seed, false),
            ) else {
                panic!("scenario inputs")
            };
            assert_eq!(delta[1].seed, full[1].seed);
            assert_eq!(delta[1].gossip_wire, GossipWire::delta());
            assert_eq!(full[1].gossip_wire, GossipWire::Full);
        }
    }

    #[test]
    fn sweep_has_thirty_jobs_with_the_compared_arms_in_place() {
        let Inputs::Erosion { cfgs, batched, std, ulba } = build_inputs(Kind::SweepBatch, 0, false)
        else {
            panic!("erosion inputs")
        };
        assert!(batched);
        assert_eq!(cfgs.len(), 30);
        assert!(cfgs[std.unwrap()].iter().all(|c| c.policy == LbPolicy::Standard));
        assert!(cfgs[ulba].iter().all(|c| c.policy == LbPolicy::ulba_fixed(ULBA_ALPHA)));
        for cfg in &cfgs {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn every_preset_validates_at_both_sizes() {
        for kind in Kind::ALL {
            for smoke in [true, false] {
                match build_inputs(kind, 3, smoke) {
                    Inputs::Erosion { cfgs, .. } => cfgs.iter().for_each(|c| c.validate().unwrap()),
                    Inputs::Scenario { cfgs } => cfgs.iter().for_each(|c| c.validate().unwrap()),
                    Inputs::Model { instances, heavy, .. } => assert!(heavy <= instances.len()),
                }
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("erosion"), None);
        let declared: Vec<&str> = crate::metrics::WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(declared, Kind::ALL.map(Kind::name));
    }
}
