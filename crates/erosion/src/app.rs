//! The full distributed erosion application (§IV-B), wiring the mesh
//! dynamics to the ULBA machinery on the SPMD runtime.
//!
//! Per iteration, each rank:
//!
//! 1. exchanges halo columns with its neighbours and refreshes the exposure
//!    of its boundary columns;
//! 2. charges the fluid compute (`fluid weight × FLOP/cell`) plus a small
//!    frontier-scan term;
//! 3. executes the probabilistic erosion step (real state mutation);
//! 4. updates its WIR estimate and performs one gossip dissemination step;
//! 5. joins the iteration-end reduction of `(elapsed, workload)`, folded
//!    once per round on the shared hub round — the max elapsed is the
//!    iteration wall time fed to the trigger, the sum the total workload;
//! 6. learns (via broadcast from rank 0) whether to run the LB step; if so,
//!    computes its α from its WIR z-score (Algorithm 1), joins the
//!    centralized rebalancing (Algorithm 2), migrates columns, and the
//!    measured cost updates the trigger's EWMA LB-cost model.
//!
//! Experiments execute through three entry points that share one launch
//! path (the rank body handed to the runtime's `submit`):
//! [`run_erosion`] (run one config, blocking), [`submit_erosion`] (launch
//! one config, pooled jobs going to a shared [`JobServer`], and join
//! later), and [`run_erosion_batch`] (launch a whole sweep, join in
//! order). The runtime's determinism guarantee makes all three
//! bit-identical for the same config — batching is purely a wall-time
//! optimization.

use crate::config::ErosionConfig;
#[cfg(test)]
use crate::config::TriggerKind;
use crate::erode::erosion_step;
use crate::geometry::Geometry;
use crate::stripe::{exchange_halos_reusing, migrate, HaloScratch, Stripe};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use ulba_core::balancer::{centralized_rebalance, RebalanceOutcome};
use ulba_core::db::{wire_bytes, WirDatabase, WirEntry};
use ulba_core::gossip::{select_peers, GossipOutbox};
use ulba_core::outlier::z_scores;
use ulba_core::partition::{predicted_weights, Partition};
#[cfg(test)]
use ulba_core::policy::LbPolicy;
use ulba_core::policy::{estimate_ulba_overhead, outlier_score};
use ulba_core::trigger::{AnyTrigger, LbTrigger};
use ulba_core::wir::WirEstimator;
use ulba_runtime::{
    submit, Backend, IterationStats, JobHandle, JobServer, MachineSpec, RankMetrics, RoundValues,
    RunConfig, SpmdCtx, Tag,
};

/// Message tag of gossip snapshots.
pub const GOSSIP_TAG: Tag = 0x474F;
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
    /// [`ErosionConfig::server`] and `ULBA_BACKEND` resolved to. Pure
    /// metadata, like the shard count below.
    pub backend: Backend,
    /// Leaf shard count the runtime's rendezvous hub actually ran with
    /// (the resolved value of [`ErosionConfig::hub_shards`]). Pure
    /// contention metadata: it never influences the measurements above.
    pub hub_shards: usize,
    /// Sum over ranks of WIR-database entries resident at run end — the
    /// sparse database's aggregate footprint in entries. Bounded by what
    /// gossip actually delivered (`O(P · min(P, fanout · iterations))`),
    /// where the dense layout always held `P²`. Pure memory metadata: it
    /// never influences the measurements above.
    pub db_entries_total: u64,
    /// Sum over ranks of delta-gossip peer watermarks resident at run end
    /// (0 under the full-snapshot wire). Memory metadata, like
    /// [`db_entries_total`](Self::db_entries_total).
    pub gossip_watermarks_total: u64,
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

/// Out-of-band measurements a run records on its way out: rank 0's final
/// physics totals and every rank's database-footprint contribution. A side
/// channel, not a collective: it must not perturb the virtual-time
/// measurements. Owned per prepared run, so concurrent jobs on a shared
/// [`JobServer`] can never cross-contaminate each other's accounting.
#[derive(Default)]
struct SideChannels {
    /// `(final total weight, total eroded)`, recorded by rank 0.
    extras: Mutex<Option<(u64, u64)>>,
    /// Aggregate memory accounting `(db entries, gossip watermarks)`,
    /// summed by every rank on its way out.
    db_footprint: Mutex<(u64, u64)>,
}

/// Diagnostic `eprintln!` switches, read from the environment once per run
/// (never inside the iteration loop).
#[derive(Clone, Copy)]
struct DebugFlags {
    /// `ULBA_DEBUG`: one line per LB step (cost, α, share decision).
    lb: bool,
    /// `ULBA_DEBUG2`: the slowest rank, every 8th iteration.
    slowest: bool,
    /// `ULBA_DEBUG3`: the top WIR z-scores at each LB step.
    wir: bool,
}

impl DebugFlags {
    fn from_env() -> Self {
        let set = |name| std::env::var_os(name).is_some();
        Self { lb: set("ULBA_DEBUG"), slowest: set("ULBA_DEBUG2"), wir: set("ULBA_DEBUG3") }
    }
}

/// What one iteration's `(elapsed, workload)` pairs reduce to.
#[derive(Clone, Copy)]
struct IterEnd {
    /// The slowest PE's elapsed time: the iteration wall time.
    t_iter: f64,
    /// Total workload (FLOP) across PEs.
    wtot_flops: f64,
    /// `(rank, workload)` of the slowest PE, for the `ULBA_DEBUG2` line.
    slowest: (usize, f64),
}

impl IterEnd {
    /// The fold of the iteration-end reduction: a pure function of the
    /// round's values in rank order, as [`SpmdCtx::allgather_with`] needs.
    fn fold(stats: &RoundValues<(f64, f64)>) -> Self {
        let t_iter = stats.iter().map(|s| s.0).fold(0.0f64, f64::max);
        let wtot_flops: f64 = stats.iter().map(|s| s.1).sum();
        let slowest = stats
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite"))
            .map(|(rank, s)| (rank, s.1))
            .expect("non-empty");
        Self { t_iter, wtot_flops, slowest }
    }
}

/// One rank's whole program, from initial stripe to final accounting.
///
/// Everything captured is owned (`Arc`s and clones): the future is
/// `'static`, as the runtime requires — a submitted job outlives the stack
/// frame that prepared it.
async fn rank_program(
    mut ctx: SpmdCtx,
    cfg: Arc<ErosionConfig>,
    geometry: Arc<Geometry>,
    strong: Arc<Vec<usize>>,
    initial_partition: Partition,
    side: Arc<SideChannels>,
    debug: DebugFlags,
) {
    let rank = ctx.rank();
    let p = ctx.size();
    // Disc membership is positional (one disc per initial stripe);
    // rock cells carry no id — see `cell.rs`.
    let prob_of = |col: usize| {
        if strong.binary_search(&(col / cfg.cols_per_pe)).is_ok() {
            cfg.p_strong
        } else {
            cfg.p_weak
        }
    };

    let mut stripe =
        Stripe::initial(&geometry, rank * cfg.cols_per_pe..(rank + 1) * cfg.cols_per_pe);
    // Every rank's stripe equals its range of this partition at all
    // times (initially by construction, after every LB step by
    // migration) — so migration routing never needs the per-rank
    // `O(P)` materialization of everyone's old ranges.
    let mut prev_partition = initial_partition;
    let mut wir = WirEstimator::new(cfg.wir_window);
    let mut db = WirDatabase::new(p);
    let mut outbox = GossipOutbox::new();
    // The trigger lives on rank 0 (decisions are broadcast); it is
    // created at iteration 0 once the first wall time seeds the LB-cost
    // estimate.
    let mut trigger: Option<AnyTrigger> = None;
    let mut eroded_total = 0u64;
    // Per-column weight history for anticipatory partitioning: weights
    // by global column index as of `history_iter`.
    let mut history: HashMap<usize, u64> = HashMap::new();
    let mut history_iter = 0u64;
    // Scratch reused across iterations/LB steps so the steady-state loop
    // allocates nothing: halo send buffers are refilled from the halos
    // received the previous iteration, and the per-column weight vector
    // is cleared and refilled in place at each LB step.
    let mut halo_scratch = HaloScratch::new();
    let mut weights_scratch: Vec<u64> = Vec::new();
    if cfg.anticipatory_partitioning {
        stripe.col_weights_into(&mut weights_scratch);
        for (i, &w) in weights_scratch.iter().enumerate() {
            history.insert(stripe.first_col() + i, w);
        }
    }

    for iter in 0..cfg.iterations {
        let iter_start = ctx.now();

        // (1) Halo exchange + boundary exposure refresh.
        let halos = exchange_halos_reusing(&mut ctx, &stripe, &mut halo_scratch).await;
        stripe.refresh_boundary_exposure(halos.left.as_deref(), halos.right.as_deref());

        // (2) Fluid compute + frontier scan (charged).
        let workload_flops = stripe.fluid_weight() as f64 * cfg.flop_per_cell;
        ctx.compute(workload_flops + stripe.exposed_count() as f64 * FRONTIER_FLOP);

        // (3) Erosion dynamics (actual state mutation).
        let first_col = stripe.first_col();
        let delta = erosion_step(
            stripe.cols_mut(),
            first_col,
            halos.left.as_deref(),
            halos.right.as_deref(),
            cfg.seed,
            iter,
            &prob_of,
        );
        eroded_total += delta.eroded as u64;
        // The halos are fully consumed: feed their buffers back into the
        // next iteration's sends.
        halos.recycle_into(&mut halo_scratch);

        // (4) WIR measurement + one gossip dissemination step.
        wir.push(iter, workload_flops);
        if let Some(rate) = wir.rate() {
            db.update(WirEntry { rank, wir: rate, iteration: iter });
        }
        for peer in select_peers(cfg.gossip, rank, p, iter, cfg.seed) {
            let payload = outbox.message(&db, peer, iter, cfg.gossip_wire);
            let payload_bytes = wire_bytes(&payload);
            ctx.send(peer, GOSSIP_TAG, payload, payload_bytes);
        }

        // (5) Iteration-end sync: reduce (elapsed, workload) to the slowest
        // PE's time and the total workload — folded once for the whole
        // round, never copied out as a per-rank `O(P)` vector.
        let elapsed = ctx.now() - iter_start;
        let IterEnd { t_iter, wtot_flops, slowest } =
            ctx.allgather_with((elapsed, workload_flops), 16, IterEnd::fold).await;

        // Drain gossip *after* the rendezvous: every message posted this
        // iteration is now guaranteed present, so the merged set (and
        // with it every LB decision) is deterministic.
        for (_, snap) in ctx.drain::<Vec<WirEntry>>(GOSSIP_TAG) {
            db.merge(&snap);
        }

        if rank == 0 && debug.slowest && iter % 8 == 0 {
            let (argmax, w) = slowest;
            eprintln!("[it {iter}] max rank {argmax} t={t_iter:.4} w={w:.3e}");
        }

        // (6) LB decision on rank 0, broadcast to everyone.
        let my_flag = if rank == 0 {
            let trig = trigger
                .get_or_insert_with(|| cfg.trigger.build(cfg.initial_lb_cost_factor * t_iter));
            trig.set_overhead_estimate(estimate_ulba_overhead(
                &cfg.policy,
                &db,
                wtot_flops,
                cfg.omega,
                p,
            ));
            Some(trig.observe(iter, t_iter))
        } else {
            None
        };
        let lb_now = ctx.broadcast(0, my_flag, 1).await;
        ctx.mark_iteration(iter);

        // (7) The LB step (Algorithms 1–2 + migration).
        if lb_now && iter + 1 < cfg.iterations {
            ctx.begin_lb();
            let lb_started = ctx.now();
            // Fixed per-call overhead restoring the paper's LB-cost
            // regime (see ErosionConfig::lb_fixed_cost_factor), plus the
            // root's cell-granularity repartitioning walk (grows with P).
            ctx.elapse_lb(cfg.lb_fixed_cost_secs());
            if rank == 0 {
                ctx.elapse_lb(cfg.lb_root_walk_secs());
            }
            let my_z = outlier_score(&cfg.policy, &db, rank);
            let my_alpha = cfg.policy.alpha_for(my_z);
            // Optionally extrapolate column weights over the expected
            // next interval (persistence: ≈ the last interval length).
            stripe.col_weights_into(&mut weights_scratch);
            let current_weights = &weights_scratch;
            let split_weights = if cfg.anticipatory_partitioning {
                let elapsed_iters = (iter - history_iter).max(1) as f64;
                let rates: Vec<f64> = current_weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| {
                        let global = stripe.first_col() + i;
                        match history.get(&global) {
                            Some(&old) => (w as f64 - old as f64) / elapsed_iters,
                            None => 0.0, // migrated in: no history yet
                        }
                    })
                    .collect();
                predicted_weights(current_weights, &rates, elapsed_iters)
            } else {
                current_weights.clone()
            };
            // Every range of the new partition is non-empty (repaired once,
            // on the root), and its bounds are one allocation shared by
            // all ranks.
            let RebalanceOutcome { partition, decision, .. } =
                centralized_rebalance(&mut ctx, my_alpha, stripe.first_col(), &split_weights).await;
            // The range allgather stays for its virtual cost, but its
            // payload is redundant — every rank's range *is* its slot of
            // the cached previous partition — so nothing is folded out of
            // it and no rank copies it.
            ctx.allgather_with((stripe.first_col(), stripe.len()), 16, |_| ()).await;
            stripe = migrate(&mut ctx, stripe, &prev_partition, &partition).await;
            let measured = ctx.now() - lb_started;
            let cost = ctx.allreduce_max(measured).await;
            ctx.end_lb();
            if rank == 0 {
                if debug.wir {
                    let wirs = db.wirs_or(0.0);
                    let zs = z_scores(&wirs);
                    let mut top: Vec<(usize, f64, f64)> =
                        wirs.iter().zip(&zs).enumerate().map(|(r, (&w, &z))| (r, w, z)).collect();
                    top.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));
                    eprintln!("[wir] iter={iter} top: {:?}", &top[..4.min(top.len())]);
                }
                if debug.lb {
                    eprintln!(
                        "[lb] iter={iter} measured_cost={cost:.4}s alpha_root={my_alpha:.2} \
                         N={} fallback={} bounds[28..32]={:?}",
                        decision.overloading,
                        decision.majority_fallback,
                        &partition.bounds()[28.min(p)..]
                    );
                }
                if let Some(trig) = trigger.as_mut() {
                    trig.lb_completed(iter, cost);
                }
                ctx.mark_lb_event(iter);
            }
            prev_partition = partition;
            // Workload jumped with the migration: restart the local WIR
            // estimate (the persistence principle applies *between* LB
            // steps).
            wir.reset();
            if cfg.anticipatory_partitioning {
                history.clear();
                stripe.col_weights_into(&mut weights_scratch);
                for (i, &w) in weights_scratch.iter().enumerate() {
                    history.insert(stripe.first_col() + i, w);
                }
                history_iter = iter;
            }
        }
    }

    // Final accounting.
    let final_weight = ctx.allreduce_sum(stripe.fluid_weight() as f64).await as u64;
    let eroded = ctx.allreduce_sum(eroded_total as f64).await as u64;
    if rank == 0 {
        *side.extras.lock() = Some((final_weight, eroded));
    }
    let mut footprint = side.db_footprint.lock();
    footprint.0 += db.known_count() as u64;
    footprint.1 += outbox.tracked_peers() as u64;
}

/// The one launch path of an experiment: validate `cfg`, build the
/// immutable shared inputs (geometry, strong-rock set, initial partition)
/// once, resolve the runtime config, and hand the rank body to the
/// runtime's `submit`. `pool`, when given, is where a pool job goes
/// (instead of the config's own server); which backend the config *means*
/// never depends on it.
fn launch(cfg: &ErosionConfig, pool: Option<&JobServer>) -> ErosionJob {
    cfg.validate().expect("invalid erosion config");
    let geometry = Arc::new(Geometry::new(cfg.ranks, cfg.cols_per_pe, cfg.height, cfg.rock_radius));
    let strong = Arc::new(choose_strong_rocks(cfg));
    // The initial (uniform) partition, built once and Arc-shared: every
    // rank's cached "previous partition" clone is a reference bump, never a
    // per-rank `O(P)` bounds copy.
    let initial_partition =
        Partition::from_bounds((0..=cfg.ranks).map(|r| r * cfg.cols_per_pe).collect(), cfg.width());
    let side = Arc::new(SideChannels::default());

    let mut cfg = cfg.clone();
    // The server handle only routes the run; the rank bodies never need it,
    // and a handle captured inside the job's own futures would keep the
    // pool alive from within itself.
    let server = cfg.server.take();
    let mut run_cfg =
        RunConfig::resolve(cfg.ranks, cfg.backend, cfg.workers, cfg.hub_shards, server)
            .with_spec(MachineSpec::homogeneous(cfg.omega));
    if let Some(pool) = pool {
        run_cfg.server = Some(pool.clone());
    }
    let hub_shards = run_cfg.effective_hub_shards();

    let cfg = Arc::new(cfg);
    let side_tx = Arc::clone(&side);
    let debug = DebugFlags::from_env();
    let handle = submit(run_cfg, move |ctx| {
        rank_program(
            ctx,
            Arc::clone(&cfg),
            Arc::clone(&geometry),
            Arc::clone(&strong),
            initial_partition.clone(),
            Arc::clone(&side_tx),
            debug,
        )
    });
    ErosionJob { handle, side, hub_shards }
}

/// Run one erosion experiment and collect its measurements.
pub fn run_erosion(cfg: &ErosionConfig) -> ExperimentResult {
    launch(cfg, None).join()
}

/// A launched erosion experiment; see [`submit_erosion`].
pub struct ErosionJob {
    handle: JobHandle,
    side: Arc<SideChannels>,
    hub_shards: usize,
}

impl ErosionJob {
    /// The backend driving the experiment: a [`Backend::Parallel`] job is
    /// already running on its server; a [`Backend::Sequential`] one
    /// occupies no pool worker and runs inside [`ErosionJob::join`].
    pub fn backend(&self) -> Backend {
        self.handle.backend()
    }

    /// Block until the experiment finishes and combine the runtime's
    /// report with the run's side channels into the final measurements.
    /// Panics if the job deadlocked or a rank panicked.
    pub fn join(self) -> ExperimentResult {
        let backend = self.handle.backend();
        let report = self.handle.join().unwrap_or_else(|err| panic!("{err}"));
        let (final_total_weight, total_eroded) =
            self.side.extras.lock().take().expect("rank 0 recorded the extras");
        let (db_entries_total, gossip_watermarks_total) = *self.side.db_footprint.lock();
        ExperimentResult {
            makespan: report.makespan().as_secs(),
            lb_calls: report.lb_call_count(),
            lb_iterations: report.lb_iterations.clone(),
            mean_utilization: report.mean_utilization(),
            iterations: report.iterations,
            final_total_weight,
            total_eroded,
            rank_metrics: report.rank_metrics,
            backend,
            hub_shards: self.hub_shards,
            db_entries_total,
            gossip_watermarks_total,
        }
    }
}

/// Launch one experiment without waiting for it; a pooled job goes to
/// `server`.
///
/// Which backend the config means is decided exactly as in [`run_erosion`]
/// (see [`ErosionConfig::with_server`]) — `server` only names the pool. A
/// config that means the sequential backend — explicitly, or through
/// `ULBA_BACKEND` when it names neither backend nor server — occupies no
/// pool worker: it runs serially when the returned job is joined, so a
/// `ULBA_BACKEND=sequential` CI leg still exercises the sequential
/// scheduler even through the batch API. Either way the measurements are
/// bit-identical; only wall time and concurrency differ.
pub fn submit_erosion(server: &JobServer, cfg: &ErosionConfig) -> ErosionJob {
    launch(cfg, Some(server))
}

/// Run a whole sweep concurrently on a shared pool and return the results
/// in input order.
///
/// Each config routes to its own [`ErosionConfig::server`] when set, else
/// to the process-global [`JobServer::global`] pool. The runtime's
/// determinism guarantee makes every result bit-identical to a serial
/// [`run_erosion`] of the same config — batching only buys wall time.
pub fn run_erosion_batch(cfgs: &[ErosionConfig]) -> Vec<ExperimentResult> {
    let jobs: Vec<ErosionJob> = cfgs
        .iter()
        .map(|cfg| submit_erosion(cfg.server.as_ref().unwrap_or_else(|| JobServer::global()), cfg))
        .collect();
    jobs.into_iter().map(ErosionJob::join).collect()
}

/// Run the same configuration under several seeds and return the median
/// makespan result (the paper compares "the median running time among five
/// runs"). The seeds run concurrently through [`run_erosion_batch`].
pub fn run_erosion_median(cfg: &ErosionConfig, seeds: &[u64]) -> ExperimentResult {
    assert!(!seeds.is_empty());
    let cfgs: Vec<ErosionConfig> = seeds
        .iter()
        .map(|&s| {
            let mut c = cfg.clone();
            c.seed = s;
            c
        })
        .collect();
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
    use ulba_core::gossip::GossipMode;

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
    }

    #[test]
    fn tiny_run_completes_with_ulba_policy() {
        let cfg = ErosionConfig::tiny(4, 1); // default policy: ULBA α = 0.4
        let res = run_erosion(&cfg);
        assert!(res.makespan > 0.0);
        assert_eq!(res.iterations.len(), cfg.iterations as usize);
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
                assert_eq!(ran.hub_shards, submitted.hub_shards, "{label}");
            }
        }
    }
}
