//! The distributed erosion application (§IV-B): the mesh dynamics as a
//! [`Workload`] of the ULBA driver.
//!
//! Per iteration, each rank (in [`Workload::step`]):
//!
//! 1. exchanges halo columns with its neighbours and refreshes the exposure
//!    of its boundary columns;
//! 2. charges the fluid compute (`fluid weight × FLOP/cell`) plus a small
//!    frontier-scan term;
//! 3. executes the probabilistic erosion step (real state mutation).
//!
//! WIR measurement, gossip, the iteration-end reduction, the trigger
//! decision and the LB step (Algorithms 1–2) are [`ulba_core::driver`]'s;
//! this module only says what a column weighs (optionally extrapolated —
//! anticipatory partitioning), what an LB call costs on top of its
//! collectives, and how columns migrate.
//!
//! [`run_erosion`], [`submit_erosion`] and [`run_erosion_batch`] are the
//! driver's run / submit / batch over an [`ErosionConfig`]; determinism
//! makes all three bit-identical for the same config.

use crate::config::ErosionConfig;
use crate::erode::erosion_step;
use crate::geometry::Geometry;
use crate::stripe::{exchange_halos_reusing, migrate, HaloScratch, Stripe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use ulba_core::balancer::LB_ROOT;
use ulba_core::driver::{run_batch, LbJob, LbLaunch, LbRun, LbStepRecord, Workload};
use ulba_core::partition::{predicted_weights, Partition};
use ulba_runtime::{Backend, IterationStats, JobServer, RankMetrics, SpmdCtx};

/// FLOP charged per exposed frontier cell per iteration (neighbour scan +
/// probability sampling).
pub const FRONTIER_FLOP: f64 = 16.0;

/// Everything measured over one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Virtual makespan in seconds (the paper's "Time [s]" axis).
    pub makespan: f64,
    /// Number of LB steps performed.
    pub lb_calls: usize,
    /// Iterations at which LB steps happened.
    pub lb_iterations: Vec<u64>,
    /// What rank 0 knew at each executed LB step (cost, α, share decision),
    /// parallel to [`lb_iterations`](Self::lb_iterations).
    pub lb_steps: Vec<LbStepRecord>,
    /// Per-iteration wall time / mean utilization series (Fig. 4b).
    pub iterations: Vec<IterationStats>,
    /// Average PE utilization over the whole run.
    pub mean_utilization: f64,
    /// Final total fluid weight (workload units) across ranks.
    pub final_total_weight: u64,
    /// Total rock cells eroded.
    pub total_eroded: u64,
    /// Final per-rank time accounting.
    pub rank_metrics: Vec<RankMetrics>,
    /// The backend that drove the run — what [`ErosionConfig::backend`],
    /// [`ErosionConfig::server`] and `ULBA_BACKEND` resolved to.
    pub backend: Backend,
    /// Leaf shard count the rendezvous hub actually ran with (the resolved
    /// [`ErosionConfig::hub_shards`]); see [`LbRun::hub_shards`].
    pub hub_shards: usize,
    /// Sum over ranks of WIR-database entries resident at run end; see
    /// [`LbRun::db_entries_total`].
    pub db_entries_total: u64,
    /// Sum over ranks of delta-gossip peer watermarks resident at run end
    /// (0 under the full-snapshot wire).
    pub gossip_watermarks_total: u64,
}

/// The driver's measurements plus the workload's
/// `(final total weight, total eroded)`, flattened.
impl From<LbRun<(u64, u64)>> for ExperimentResult {
    fn from(run: LbRun<(u64, u64)>) -> Self {
        let (final_total_weight, total_eroded) = run.extras;
        Self {
            makespan: run.makespan,
            lb_calls: run.lb_calls,
            lb_iterations: run.lb_iterations,
            lb_steps: run.lb_steps,
            iterations: run.iterations,
            mean_utilization: run.mean_utilization,
            final_total_weight,
            total_eroded,
            rank_metrics: run.rank_metrics,
            backend: run.backend,
            hub_shards: run.hub_shards,
            db_entries_total: run.db_entries_total,
            gossip_watermarks_total: run.gossip_watermarks_total,
        }
    }
}

/// Deterministically pick which rock discs are strongly erodible
/// ("It is not known in advance where the rocks with a high eroding
/// probability are located" — unknown to the PEs, fixed by the seed).
pub fn choose_strong_rocks(cfg: &ErosionConfig) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x57F0_4C0C);
    let mut ids: Vec<usize> = (0..cfg.ranks).collect();
    // Partial Fisher–Yates: the first `strong_rocks` entries.
    for i in 0..cfg.strong_rocks.min(cfg.ranks) {
        let j = rng.random_range(i..ids.len());
        ids.swap(i, j);
    }
    let mut strong: Vec<usize> = ids[..cfg.strong_rocks.min(cfg.ranks)].to_vec();
    strong.sort_unstable();
    strong
}

/// The immutable inputs of one run, built once and shared by every rank.
struct Inputs {
    /// The config, minus its server handle (the rank bodies never need it,
    /// and a handle captured inside the job's own futures would keep the
    /// pool alive from within itself).
    cfg: ErosionConfig,
    geometry: Geometry,
    strong: Vec<usize>,
}

/// One rank's kernel state: its stripe and what the physics accumulates.
struct ErosionWorkload {
    inputs: Arc<Inputs>,
    stripe: Stripe,
    /// Halo send buffers, refilled from the halos received the previous
    /// iteration so the steady-state exchange allocates nothing.
    halo_scratch: HaloScratch,
    /// Running [`Stripe::fluid_weight`] / [`Stripe::exposed_count`], re-derived on migration.
    fluid_weight: u64,
    exposed: usize,
    eroded_total: u64,
    /// Anticipatory partitioning only: the stripe's per-column weights as
    /// of `history_iter` (the construction or the last migration — the
    /// only points at which the stripe's column range changes).
    history: Vec<u64>,
    history_iter: u64,
}

impl Workload for ErosionWorkload {
    type Extras = (u64, u64);

    async fn step(&mut self, ctx: &mut SpmdCtx, iter: u64) -> f64 {
        let Inputs { cfg, strong, .. } = &*self.inputs;
        let halos = exchange_halos_reusing(ctx, &self.stripe, &mut self.halo_scratch).await;
        self.exposed -= self.stripe.boundary_exposed_count();
        self.stripe.refresh_boundary_exposure(halos.left.as_deref(), halos.right.as_deref());
        self.exposed += self.stripe.boundary_exposed_count();

        let workload_flops = self.fluid_weight as f64 * cfg.flop_per_cell;
        ctx.compute(workload_flops + self.exposed as f64 * FRONTIER_FLOP);

        // Disc membership is positional (one disc per initial stripe);
        // rock cells carry no id — see `cell.rs`.
        let prob_of = |col: usize| {
            if strong.binary_search(&(col / cfg.cols_per_pe)).is_ok() {
                cfg.p_strong
            } else {
                cfg.p_weak
            }
        };
        let first_col = self.stripe.first_col();
        let delta = erosion_step(
            self.stripe.cols_mut(),
            first_col,
            halos.left.as_deref(),
            halos.right.as_deref(),
            cfg.seed,
            iter,
            &prob_of,
        );
        self.eroded_total += delta.eroded as u64;
        self.fluid_weight += u64::from(crate::cell::REFINED_WEIGHT) * delta.eroded as u64;
        self.exposed = self.exposed + delta.newly_exposed - delta.eroded;
        debug_assert_eq!(self.fluid_weight, self.stripe.fluid_weight());
        debug_assert_eq!(self.exposed, self.stripe.exposed_count());
        // The halos are fully consumed: feed their buffers back into the
        // next iteration's sends.
        halos.recycle_into(&mut self.halo_scratch);
        workload_flops
    }

    /// Fixed per-call overhead restoring the paper's LB-cost regime (see
    /// [`ErosionConfig::lb_fixed_cost_factor`]), plus the root's
    /// cell-granularity repartitioning walk (grows with P). Two charges,
    /// not one sum: the clock is an `f64`.
    fn charge_lb_overhead(&self, ctx: &mut SpmdCtx) {
        ctx.elapse_lb(self.inputs.cfg.lb_fixed_cost_secs());
        if ctx.rank() == LB_ROOT {
            ctx.elapse_lb(self.inputs.cfg.lb_root_walk_secs());
        }
    }

    fn weights_into(&mut self, iter: u64, out: &mut Vec<u64>) -> usize {
        self.stripe.col_weights_into(out);
        if self.inputs.cfg.anticipatory_partitioning {
            // Extrapolate column weights over the expected next interval
            // (persistence: ≈ the last interval length).
            let elapsed_iters = (iter - self.history_iter).max(1) as f64;
            let rates: Vec<f64> = out
                .iter()
                .zip(&self.history)
                .map(|(&w, &old)| (w as f64 - old as f64) / elapsed_iters)
                .collect();
            *out = predicted_weights(out, &rates, elapsed_iters);
        }
        self.stripe.first_col()
    }

    async fn migrate(&mut self, ctx: &mut SpmdCtx, iter: u64, old: &Partition, new: &Partition) {
        // The range allgather stays for its virtual cost, but its payload
        // is redundant — every rank's range *is* its slot of `old` — so
        // nothing is folded out of it and no rank copies it.
        ctx.allgather_with((self.stripe.first_col(), self.stripe.len()), 16, |_| ()).await;
        self.stripe = migrate(ctx, std::mem::take(&mut self.stripe), old, new).await;
        self.fluid_weight = self.stripe.fluid_weight();
        self.exposed = self.stripe.exposed_count();
        if self.inputs.cfg.anticipatory_partitioning {
            self.stripe.col_weights_into(&mut self.history);
            self.history_iter = iter;
        }
    }

    async fn finish(self, ctx: &mut SpmdCtx) -> (u64, u64) {
        let final_weight = ctx.allreduce_sum(self.fluid_weight as f64).await as u64;
        let eroded = ctx.allreduce_sum(self.eroded_total as f64).await as u64;
        (final_weight, eroded)
    }
}

/// Validate `cfg` and build the immutable shared inputs (geometry,
/// strong-rock set, initial uniform partition) once; the driver does the
/// rest.
fn prepare(
    cfg: &ErosionConfig,
) -> Result<LbLaunch<impl Fn(&SpmdCtx) -> ErosionWorkload + Send + Sync + 'static>, String> {
    cfg.validate()?;
    let mut cfg = cfg.clone();
    let placement = cfg.placement();
    cfg.server = None;
    let lb = cfg.lb_params();
    let initial = Partition::uniform(cfg.ranks, cfg.cols_per_pe);
    let inputs = Arc::new(Inputs {
        geometry: Geometry::new(cfg.ranks, cfg.cols_per_pe, cfg.height, cfg.rock_radius),
        strong: choose_strong_rocks(&cfg),
        cfg,
    });
    let make = move |ctx: &SpmdCtx| {
        let cols = inputs.cfg.cols_per_pe;
        let stripe = Stripe::initial(&inputs.geometry, ctx.rank() * cols..(ctx.rank() + 1) * cols);
        let mut history = Vec::new();
        if inputs.cfg.anticipatory_partitioning {
            stripe.col_weights_into(&mut history);
        }
        ErosionWorkload {
            inputs: Arc::clone(&inputs),
            fluid_weight: stripe.fluid_weight(),
            exposed: stripe.exposed_count(),
            stripe,
            halo_scratch: HaloScratch::new(),
            eroded_total: 0,
            history,
            history_iter: 0,
        }
    };
    Ok(LbLaunch { lb, placement, initial, make })
}

/// Validate, prepare and launch `cfg`; `pool` as in [`LbLaunch::submit`].
fn start(cfg: &ErosionConfig, pool: Option<&JobServer>) -> ErosionJob {
    prepare(cfg).unwrap_or_else(|err| panic!("invalid erosion config: {err}")).submit(pool)
}

/// Run one erosion experiment and collect its measurements.
pub fn run_erosion(cfg: &ErosionConfig) -> ExperimentResult {
    start(cfg, None).join()
}

/// A launched erosion experiment; see [`submit_erosion`]. A
/// [`Backend::Parallel`] job is already running on its server; a
/// [`Backend::Sequential`] one runs inside `join`.
pub type ErosionJob = LbJob<(u64, u64), ExperimentResult>;

/// Launch one experiment without waiting for it; a pooled job goes to
/// `server`.
///
/// Which backend the config means is decided exactly as in [`run_erosion`]
/// (see [`ErosionConfig::with_server`]) — `server` only names the pool. A
/// config that means the sequential backend (explicitly, or through
/// `ULBA_BACKEND`) occupies no pool worker and runs serially when the job
/// is joined. Either way the measurements are bit-identical.
pub fn submit_erosion(server: &JobServer, cfg: &ErosionConfig) -> ErosionJob {
    start(cfg, Some(server))
}

/// Run a whole sweep concurrently and return the results in input order
/// ([`run_batch`]): each config routes to its own [`ErosionConfig::server`]
/// when set, else to [`JobServer::global`], and every config is validated
/// before the first job is submitted (the panic names the offending index).
pub fn run_erosion_batch(cfgs: &[ErosionConfig]) -> Vec<ExperimentResult> {
    run_batch(cfgs, prepare)
}

/// Run the same configuration under several seeds and return the median
/// makespan result (the paper compares "the median running time among five
/// runs"). The seeds run concurrently through [`run_erosion_batch`].
pub fn run_erosion_median(cfg: &ErosionConfig, seeds: &[u64]) -> ExperimentResult {
    assert!(!seeds.is_empty());
    let cfgs: Vec<ErosionConfig> =
        seeds.iter().map(|&seed| ErosionConfig { seed, ..cfg.clone() }).collect();
    median_result(run_erosion_batch(&cfgs))
}

/// Median-by-makespan reduction of a batch of results (upper median for
/// even counts) — the reduction step of [`run_erosion_median`], exposed so
/// batch clients that submit a whole sweep at once can reduce per-seed
/// chunks themselves.
pub fn median_result(mut results: Vec<ExperimentResult>) -> ExperimentResult {
    assert!(!results.is_empty());
    results.sort_by(|a, b| a.makespan.partial_cmp(&b.makespan).expect("finite"));
    results.swap_remove(results.len() / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TriggerKind;
    use ulba_core::gossip::GossipMode;
    use ulba_core::policy::LbPolicy;

    /// One record per executed LB step, in schedule order.
    fn assert_lb_steps_match(res: &ExperimentResult) {
        assert_eq!(res.lb_steps.len(), res.lb_calls);
        for (step, &iter) in res.lb_steps.iter().zip(&res.lb_iterations) {
            assert_eq!(step.iteration, iter);
            assert!(step.cost_secs > 0.0 && step.iter_wall_secs > 0.0);
        }
    }

    #[test]
    fn strong_rock_choice_is_deterministic_and_distinct() {
        let cfg = ErosionConfig::tiny(8, 3);
        let a = choose_strong_rocks(&cfg);
        let b = choose_strong_rocks(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
        assert!(a.iter().all(|&id| id < 8));
    }

    #[test]
    fn different_seeds_choose_differently() {
        let mut cfg = ErosionConfig::tiny(8, 2);
        let a = choose_strong_rocks(&cfg);
        cfg.seed ^= 0xFFFF;
        let b = choose_strong_rocks(&cfg);
        // Not guaranteed different, but with 28 possible pairs it is for
        // these fixed seeds.
        assert_ne!(a, b);
    }

    #[test]
    fn tiny_run_completes_with_standard_policy() {
        let mut cfg = ErosionConfig::tiny(4, 1);
        cfg.policy = LbPolicy::Standard;
        let res = run_erosion(&cfg);
        assert!(res.makespan > 0.0);
        assert_eq!(res.iterations.len(), cfg.iterations as usize);
        assert!(res.total_eroded > 0, "the strong rock must erode");
        assert!(res.mean_utilization > 0.2 && res.mean_utilization <= 1.0);
        assert_lb_steps_match(&res);
    }

    #[test]
    fn tiny_run_completes_with_ulba_policy() {
        let cfg = ErosionConfig::tiny(4, 1); // default policy: ULBA α = 0.4
        let res = run_erosion(&cfg);
        assert!(res.makespan > 0.0);
        assert_eq!(res.iterations.len(), cfg.iterations as usize);
        assert_lb_steps_match(&res);
    }

    #[test]
    fn physics_identical_across_policies() {
        // Stateless erosion sampling: the eroded-cell count and final weight
        // must be identical regardless of the LB policy.
        let mut std_cfg = ErosionConfig::tiny(4, 1);
        std_cfg.policy = LbPolicy::Standard;
        let ulba_cfg = ErosionConfig::tiny(4, 1);
        let a = run_erosion(&std_cfg);
        let b = run_erosion(&ulba_cfg);
        assert_eq!(a.total_eroded, b.total_eroded);
        assert_eq!(a.final_total_weight, b.final_total_weight);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = ErosionConfig::tiny(4, 1);
        let a = run_erosion(&cfg);
        let b = run_erosion(&cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.lb_iterations, b.lb_iterations);
        assert_eq!(a.total_eroded, b.total_eroded);
    }

    #[test]
    fn never_trigger_never_balances() {
        let mut cfg = ErosionConfig::tiny(4, 1);
        cfg.trigger = TriggerKind::Never;
        let res = run_erosion(&cfg);
        assert_eq!(res.lb_calls, 0);
    }

    #[test]
    fn periodic_trigger_balances_on_schedule() {
        let mut cfg = ErosionConfig::tiny(4, 1);
        cfg.trigger = TriggerKind::Periodic(20);
        let res = run_erosion(&cfg);
        // Fires at iterations 19 and 39 (the 59 slot is suppressed as the
        // last iteration).
        assert_eq!(res.lb_iterations, vec![19, 39]);
        assert_lb_steps_match(&res);
    }

    #[test]
    fn zhai_triggers_at_least_once_under_imbalance() {
        let mut cfg = ErosionConfig::tiny(8, 1);
        cfg.iterations = 120;
        cfg.policy = LbPolicy::Standard;
        cfg.initial_lb_cost_factor = 0.05;
        let res = run_erosion(&cfg);
        assert!(res.lb_calls >= 1, "a strongly eroding rock must eventually trip the Zhai trigger");
    }

    #[test]
    fn gossip_mode_does_not_change_physics() {
        let mut ring = ErosionConfig::tiny(4, 1);
        ring.gossip = GossipMode::Ring;
        let mut push = ErosionConfig::tiny(4, 1);
        push.gossip = GossipMode::RandomPush { fanout: 2 };
        let a = run_erosion(&ring);
        let b = run_erosion(&push);
        assert_eq!(a.total_eroded, b.total_eroded);
    }

    #[test]
    fn gossip_wire_does_not_change_physics() {
        use ulba_core::gossip::GossipWire;
        // Erosion sampling is stateless in (seed, iteration): whatever the
        // wire format does to virtual timing, the physics cannot move.
        let full = run_erosion(&ErosionConfig::tiny(8, 2));
        for wire in [GossipWire::delta(), GossipWire::Delta { full_every: 3 }] {
            let mut cfg = ErosionConfig::tiny(8, 2);
            cfg.gossip_wire = wire;
            let delta = run_erosion(&cfg);
            assert_eq!(full.total_eroded, delta.total_eroded, "{wire}");
            assert_eq!(full.final_total_weight, delta.final_total_weight, "{wire}");
        }
    }

    #[test]
    fn delta_wire_is_lossless_and_never_slower_without_lb() {
        use ulba_core::gossip::GossipWire;
        // With LB disabled the two wire formats run the exact same
        // computation; delta payloads are subsets of the full snapshots, so
        // every database converges identically (same entry totals) and every
        // message arrives no later — the makespan can only shrink.
        let mut cfg = ErosionConfig::tiny(8, 2);
        cfg.trigger = TriggerKind::Never;
        // The default wire is delta — pin the full wire for the baseline.
        cfg.gossip_wire = GossipWire::Full;
        let full = run_erosion(&cfg);
        cfg.gossip_wire = GossipWire::delta();
        let delta = run_erosion(&cfg);
        assert_eq!(full.lb_calls, 0);
        assert_eq!(delta.lb_calls, 0);
        assert_eq!(full.db_entries_total, delta.db_entries_total, "delta gossip lost an entry");
        assert!(
            delta.makespan <= full.makespan,
            "delta payloads can only shrink the gossip bytes ({} vs {})",
            delta.makespan,
            full.makespan
        );
        assert_eq!(full.gossip_watermarks_total, 0, "full wire keeps no watermarks");
        assert!(delta.gossip_watermarks_total > 0);
    }

    #[test]
    fn database_footprint_is_reported_and_bounded() {
        let mut cfg = ErosionConfig::tiny(8, 1);
        cfg.gossip = GossipMode::Ring;
        cfg.gossip_wire = ulba_core::gossip::GossipWire::delta();
        let res = run_erosion(&cfg);
        let p = cfg.ranks as u64;
        assert!(res.db_entries_total > 0, "ranks heard about each other");
        assert!(res.db_entries_total <= p * p, "entries are at most one per (holder, subject)");
        assert_eq!(res.gossip_watermarks_total, p, "Ring tracks exactly one peer per rank");
    }

    #[test]
    fn median_of_runs() {
        let mut cfg = ErosionConfig::tiny(2, 1);
        cfg.iterations = 20;
        let res = run_erosion_median(&cfg, &[1, 2, 3]);
        assert!(res.makespan > 0.0);
    }

    #[test]
    fn submitted_jobs_match_serial_runs() {
        // One shared pool, several concurrent experiments: every result
        // must be bit-identical to the serial run of the same config.
        let server = JobServer::new(2);
        let cfgs: Vec<ErosionConfig> = (0..4)
            .map(|i| {
                let mut c = ErosionConfig::tiny(4, 1);
                c.iterations = 30;
                c.seed = 0xA5A5 + i;
                c
            })
            .collect();
        let jobs: Vec<ErosionJob> = cfgs.iter().map(|c| submit_erosion(&server, c)).collect();
        for (job, cfg) in jobs.into_iter().zip(&cfgs) {
            let batched = job.join();
            let serial = run_erosion(cfg);
            assert_eq!(batched.makespan.to_bits(), serial.makespan.to_bits());
            assert_eq!(batched.lb_iterations, serial.lb_iterations);
            assert_eq!(batched.total_eroded, serial.total_eroded);
            assert_eq!(batched.final_total_weight, serial.final_total_weight);
        }
    }

    #[test]
    fn explicit_backend_defers_instead_of_pooling() {
        let server = JobServer::new(1);
        let mut cfg = ErosionConfig::tiny(2, 1);
        cfg.iterations = 10;
        cfg.backend = Some(Backend::Sequential);
        let job = submit_erosion(&server, &cfg);
        assert_eq!(job.backend(), Backend::Sequential, "sequential runs must not be pooled");
        let res = job.join();
        assert_eq!(run_erosion(&cfg).makespan.to_bits(), res.makespan.to_bits());
    }

    /// Regression: the batch used to launch configs 0..k before it looked
    /// at config k, stranding them on the pool when k was invalid — and a
    /// zero gossip fanout, a one-sample WIR window or a `NaN` cost (which
    /// every `x <= 0.0` check lets through) used to pass `validate` and
    /// panic inside every rank future on the pool workers instead, while an
    /// infinite one ran to an infinite makespan.
    #[test]
    fn batch_rejects_a_bad_config_by_index_before_launching_any() {
        let good = ErosionConfig::tiny(4, 1);
        let bad = [
            (ErosionConfig { strong_rocks: 5, ..good.clone() }, "strong rocks"),
            (
                ErosionConfig { gossip: GossipMode::RandomPush { fanout: 0 }, ..good.clone() },
                "fanout",
            ),
            (ErosionConfig { wir_window: 1, ..good.clone() }, "wir_window"),
            (ErosionConfig { flop_per_cell: f64::NAN, ..good.clone() }, "flop_per_cell"),
            (
                ErosionConfig { lb_root_walk_flop_per_cell: f64::INFINITY, ..good.clone() },
                "lb_root_walk_flop_per_cell",
            ),
        ];
        let count = bad.len();
        for (index, (bad, names)) in bad.into_iter().enumerate() {
            let mut cfgs = vec![good.clone(); count];
            cfgs[index] = bad;
            let panic = std::panic::catch_unwind(|| run_erosion_batch(&cfgs)).expect_err(names);
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(message.contains(&format!("index {index}")), "{message}");
            assert!(message.contains(names), "{message}");
        }
    }

    /// `run_erosion` and `submit_erosion` mean the same backend by the
    /// same config, for every way of (not) naming one — `Sequential` +
    /// server used to be pooled by the former and deferred by the latter.
    #[test]
    fn run_and_submit_resolve_the_same_backend() {
        let pool = JobServer::new(1);
        for backend in [None, Some(Backend::Sequential), Some(Backend::Parallel)] {
            for server in [None, Some(JobServer::new(1))] {
                let mut cfg = ErosionConfig::tiny(2, 1);
                cfg.iterations = 10;
                cfg.backend = backend;
                cfg.server = server;
                let label = format!("{backend:?} + {:?}", cfg.server);
                let ran = run_erosion(&cfg);
                let submitted = submit_erosion(&pool, &cfg).join();
                assert_eq!(ran.backend, submitted.backend, "{label}");
                if let Some(explicit) = backend {
                    assert_eq!(ran.backend, explicit, "{label}: an explicit backend wins");
                } else if cfg.server.is_some() {
                    assert_eq!(ran.backend, Backend::Parallel, "{label}: a server is that pool");
                }
                assert_eq!(ran.makespan.to_bits(), submitted.makespan.to_bits(), "{label}");
                assert_eq!(ran.lb_iterations, submitted.lb_iterations, "{label}");
                assert_eq!(ran.total_eroded, submitted.total_eroded, "{label}");
                // The shard (= block) count follows the pool a job runs on:
                // with no server named, `run` goes to the machine-sized
                // global pool and `submit` to `pool`, which may differ.
                if backend == Some(Backend::Sequential) || cfg.server.is_some() {
                    assert_eq!(ran.hub_shards, submitted.hub_shards, "{label}");
                }
            }
        }
    }
}
