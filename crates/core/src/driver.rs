//! The one LB loop (§III-C, §IV-B) as a generic rank program, and the
//! launch/join scaffolding around it.
//!
//! The paper's contribution is a single iteration shape: run the
//! application step, measure the workload-increase rate, gossip it, let
//! rank 0's degradation trigger decide, turn a z-score into α
//! (Algorithm 1), rebalance centrally (Algorithm 2), migrate, and feed the
//! measured cost back into the trigger. This module owns all of it; an
//! application plugs in through the [`Workload`] trait and supplies only
//! its kernel (what one step computes, what its items weigh, how they
//! move).
//!
//! Per iteration, each rank:
//!
//! 1. runs [`Workload::step`] (application sends, then charged compute);
//! 2. pushes the step's workload into its [`WirEstimator`], updates its
//!    own [`WirDatabase`] entry and sends one gossip message per selected
//!    peer: a [`WirView`] of its database, shared by reference and charged
//!    as the entries it carries;
//! 3. joins the iteration-end reduction of `(elapsed, workload)`, folded
//!    once per round to the iteration wall time (max) and the total
//!    workload (sum);
//! 4. drains the gossip it received and merges each view in place
//!    ([`WirDatabase::merge_view`]), then runs [`Workload::after_sync`];
//! 5. learns, by broadcast from rank 0, whether its [`Trigger`] fired
//!    (it never fires on the last iteration);
//! 6. if so: charges the modelled overhead, derives its α from its
//!    outlier score, hands its item weights to [`centralized_rebalance`],
//!    migrates, and the measured cost (max over ranks) updates the
//!    trigger's LB-cost estimate.
//!
//! # One record, one launch path
//!
//! [`LbLaunch::run`] runs one launch and [`run_batch`] a sweep of them;
//! both return an [`LbRun`], the only record of a run. Its LB schedule is
//! rank 0's [`LbStepRecord`]s: the runtime keeps no LB log of its own.
//!
//! # The bit-identity contract
//!
//! Virtual time is the paper's measurement and it is an `f64`: the
//! sequence of clock-touching calls a rank issues *is* the result. The
//! driver fixes its own part of that sequence (gossip sends after the
//! step, the drain after the rendezvous, `mark_iteration` after the
//! decision broadcast, the LB clock started before the modelled overhead);
//! a workload fixes the rest by what it calls on the [`SpmdCtx`] inside its
//! hooks. Runs of the same parameters are bit-identical across backends,
//! hub-shard counts, pools and batching.

use crate::balancer::{centralized_rebalance, RebalanceOutcome, LB_ROOT};
use crate::db::{WirDatabase, WirEntry, WirView};
use crate::gossip::{select_peers, GossipMode, GossipOutbox, GossipWire};
use crate::partition::Partition;
use crate::policy::{estimate_ulba_overhead, outlier_score, LbPolicy};
use crate::trigger::{Trigger, TriggerKind};
use crate::wir::WirEstimator;
use serde::{Deserialize, Serialize};
use std::future::Future;
use std::ops::Deref;
use std::sync::{Arc, Mutex};
use ulba_runtime::{
    Backend, IterationStats, JobHandle, MachineSpec, RankMetrics, RunConfig, SpmdCtx, Tag,
};

/// Message tag of gossip views.
pub const GOSSIP_TAG: Tag = 0x474F;

/// An application kernel the LB loop can drive: a contiguous, rank-ordered
/// range of weighted items per rank, a step that computes on them, and a
/// way to move them.
///
/// Every hook that touches the [`SpmdCtx`] advances this rank's virtual
/// clock, so the order of calls inside a hook is part of the run's result
/// (see the [module docs](self)). Collective hooks (`migrate`, `finish`)
/// are entered by every rank of the run.
pub trait Workload: Send + 'static {
    /// What [`Workload::finish`] reduces the run to (recorded from rank 0).
    type Extras: Send + 'static;

    /// One application iteration: communicate, charge the compute, mutate
    /// the state. Returns the workload (FLOP) this rank just executed —
    /// the quantity whose growth rate ULBA anticipates.
    fn step(&mut self, ctx: &mut SpmdCtx, iter: u64) -> impl Future<Output = f64> + Send;

    /// Called after the iteration-end rendezvous and the gossip drain:
    /// every message posted during [`Workload::step`] of this iteration is
    /// guaranteed delivered, so a drain here is deterministic.
    fn after_sync(&mut self, _ctx: &mut SpmdCtx, _iter: u64) {}

    /// Charge the modelled per-call LB overhead (inside the LB section,
    /// before Algorithm 2's collectives).
    fn charge_lb_overhead(&self, ctx: &mut SpmdCtx);

    /// Fill `out` (cleared first) with the weights of this rank's items,
    /// in global item order, as the balancer should see them after
    /// iteration `iter`; returns the global index of the first item.
    fn weights_into(&mut self, iter: u64, out: &mut Vec<u64>) -> usize;

    /// Move items so that this rank owns `new.range(rank)`; it owned
    /// `old.range(rank)`. Both partitions are the same object on every
    /// rank.
    fn migrate(
        &mut self,
        ctx: &mut SpmdCtx,
        iter: u64,
        old: &Partition,
        new: &Partition,
    ) -> impl Future<Output = ()> + Send;

    /// The run's closing collectives.
    fn finish(self, ctx: &mut SpmdCtx) -> impl Future<Output = Self::Extras> + Send;
}

/// `value` must be finite and positive; the error names `field`. Written
/// as the accepted range, not as `value <= 0.0`, because `NaN` passes every
/// such comparison and then trips an assert inside a rank future, while an
/// infinite speed or cost silently yields an infinite makespan.
pub fn require_positive(field: &str, value: f64) -> Result<(), String> {
    if value > 0.0 && value.is_finite() {
        Ok(())
    } else {
        Err(format!("{field} must be positive and finite, got {value}"))
    }
}

/// `value` must be finite and non-negative; see [`require_positive`].
pub fn require_non_negative(field: &str, value: f64) -> Result<(), String> {
    if value >= 0.0 && value.is_finite() {
        Ok(())
    } else {
        Err(format!("{field} must be non-negative and finite, got {value}"))
    }
}

/// The LB-side parameters the loop reads.
#[derive(Debug, Clone)]
pub struct LbParams {
    /// Load-balancing policy under test.
    pub policy: LbPolicy,
    /// Adaptive trigger (instantiated on rank 0).
    pub trigger: TriggerKind,
    /// WIR dissemination mode (one step per iteration).
    pub gossip: GossipMode,
    /// Gossip wire format.
    pub gossip_wire: GossipWire,
    /// Sliding window of the per-PE WIR estimator (≥ 2 samples).
    pub wir_window: usize,
    /// Initial LB-cost estimate, as a fraction of the first iteration's
    /// wall time.
    pub initial_lb_cost_factor: f64,
    /// Seed of the gossip peer stream.
    pub seed: u64,
    /// PE speed ω in FLOP/s.
    pub omega: f64,
    /// Number of application iterations.
    pub iterations: u64,
}

impl LbParams {
    /// The checks every application config shares on these fields.
    pub fn validate(&self) -> Result<(), String> {
        if self.iterations == 0 {
            return Err("need at least one iteration".into());
        }
        require_positive("omega", self.omega)?;
        require_non_negative("initial_lb_cost_factor", self.initial_lb_cost_factor)?;
        if self.wir_window < 2 {
            return Err(format!(
                "wir_window must be at least 2 (a rate needs two samples), got {}",
                self.wir_window
            ));
        }
        self.trigger.validate()?;
        self.gossip.validate()?;
        self.gossip_wire.validate()
    }
}

/// What rank 0 knew when it executed one LB step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LbStepRecord {
    /// Iteration after which the step ran.
    pub iteration: u64,
    /// Measured cost of the step (max over ranks), fed back to the trigger.
    pub cost_secs: f64,
    /// Wall time of the iteration that fired the trigger.
    pub iter_wall_secs: f64,
    /// ULBA overhead (Eq. (11)) the trigger had been told to expect.
    pub overhead_estimate_secs: f64,
    /// Number of PEs that submitted `α > 0`.
    pub overloading: usize,
    /// Whether Algorithm 2 fell back to an even split (≥ 50 % overloading).
    pub majority_fallback: bool,
    /// The α rank 0 itself submitted.
    pub root_alpha: f64,
}

/// The one record of an LB run: everything the driver measures, plus the
/// workload's rank-0 extras. Applications name it for their extras type
/// (`ExperimentResult`, `ScenarioResult`); through [`Deref`] the extras'
/// fields read like the run's own (`result.total_eroded`).
#[derive(Debug, Clone)]
pub struct LbRun<X> {
    /// Virtual makespan in seconds (the paper's "Time \[s\]" axis).
    pub makespan: f64,
    /// Number of LB steps performed (`lb_steps.len()`).
    pub lb_calls: usize,
    /// Iterations at which LB steps happened (`lb_steps[i].iteration`).
    pub lb_iterations: Vec<u64>,
    /// What rank 0 knew at each executed LB step (cost, α, share
    /// decision), in schedule order.
    pub lb_steps: Vec<LbStepRecord>,
    /// Per-iteration wall time / mean utilization series (Fig. 4b).
    pub iterations: Vec<IterationStats>,
    /// Average PE utilization over the whole run.
    pub mean_utilization: f64,
    /// Final per-rank time accounting.
    pub rank_metrics: Vec<RankMetrics>,
    /// The backend that drove the run — what the launch's [`RunConfig`]
    /// resolved to. Pure metadata, like the shard count.
    pub backend: Backend,
    /// The block count the run was admitted with: shards of the rendezvous
    /// hub, its rank share of the workers of the pool it went to (one per
    /// worker when alone there, at most 64; 1 on the sequential backend).
    /// Pure contention metadata: it never influences the measurements
    /// above.
    pub hub_shards: usize,
    /// Sum over ranks of WIR-database entries resident at run end — the
    /// sparse database's aggregate footprint. Bounded by what gossip
    /// actually delivered (`O(P · min(P, fanout · iterations))`), where a
    /// dense layout would hold `P²`. Pure memory metadata.
    pub db_entries_total: u64,
    /// Sum over ranks of delta-gossip peer watermarks resident at run end
    /// (0 under the full-snapshot wire). Memory metadata, like
    /// [`db_entries_total`](Self::db_entries_total).
    pub gossip_watermarks_total: u64,
    /// What [`Workload::finish`] returned on rank 0.
    pub extras: X,
}

impl<X> Deref for LbRun<X> {
    type Target = X;

    fn deref(&self) -> &X {
        &self.extras
    }
}

/// Out-of-band results a run records on its way out: a side channel, not a
/// collective, so it cannot perturb the virtual-time measurements. Owned
/// per launched job, so concurrent jobs on a shared `JobServer` never
/// cross-contaminate.
struct Side<X> {
    /// Rank 0's extras and LB-step records.
    root: Option<(X, Vec<LbStepRecord>)>,
    /// `(db entries, gossip watermarks)`, summed by every rank.
    footprint: (u64, u64),
}

/// One prepared run: the loop's parameters, where it executes, the initial
/// partition (one range per rank, matching what `make` builds), and the
/// per-rank workload constructor. `make` runs inside the rank's own
/// future, so per-rank state is built where (and when) the rank first
/// executes.
pub struct LbLaunch<F> {
    /// The LB-side parameters.
    pub lb: LbParams,
    /// Where the run executes, as its application resolved it
    /// ([`RunConfig::resolve`]); the driver sets its machine model from
    /// [`LbParams::omega`].
    pub config: RunConfig,
    /// The partition every rank starts from.
    pub initial: Partition,
    /// Builds one rank's workload.
    pub make: F,
}

impl<W, F> LbLaunch<F>
where
    W: Workload,
    F: Fn(&SpmdCtx) -> W + Send + Sync + 'static,
{
    /// Launch without waiting, where [`LbLaunch::config`] says
    /// ([`ulba_runtime::submit`] picks the pool). Panics on invalid
    /// parameters.
    fn submit(self) -> LbJob<W::Extras> {
        self.lb.validate().unwrap_or_else(|err| panic!("invalid LB launch: {err}"));
        let Self { lb, config, initial, make } = self;
        let config = config.with_spec(MachineSpec::homogeneous(lb.omega));
        let side = Arc::new(Mutex::new(Side { root: None, footprint: (0, 0) }));
        let shared = Arc::new(Shared { lb, initial, make, side: Arc::clone(&side) });
        let handle =
            ulba_runtime::submit(config, move |ctx| rank_program(ctx, Arc::clone(&shared)));
        LbJob { handle, side }
    }

    /// Run and wait for the record. Panics on invalid parameters, a
    /// deadlock or a rank panic.
    pub fn run(self) -> LbRun<W::Extras> {
        self.submit().join()
    }
}

/// A launched run, joined for its [`LbRun`]. A [`Backend::Parallel`] job
/// is already running on its server; a [`Backend::Sequential`] one
/// occupies no pool worker and runs inside [`LbJob::join`].
struct LbJob<X> {
    handle: JobHandle,
    side: Arc<Mutex<Side<X>>>,
}

impl<X> LbJob<X> {
    /// Block until the run finishes and combine the runtime's report with
    /// what the ranks recorded on their way out; the LB schedule is rank
    /// 0's step records. Panics if the job deadlocked or a rank panicked.
    fn join(self) -> LbRun<X> {
        let (backend, hub_shards) = (self.handle.backend(), self.handle.blocks());
        let report = self.handle.join().unwrap_or_else(|err| panic!("{err}"));
        let mut side = self.side.lock().expect("no rank panics while recording");
        let (extras, lb_steps) = side.root.take().expect("rank 0 recorded its results");
        LbRun {
            makespan: report.makespan().as_secs(),
            mean_utilization: report.mean_utilization(),
            lb_calls: lb_steps.len(),
            lb_iterations: lb_steps.iter().map(|step| step.iteration).collect(),
            lb_steps,
            iterations: report.iterations,
            rank_metrics: report.rank_metrics,
            backend,
            hub_shards,
            db_entries_total: side.footprint.0,
            gossip_watermarks_total: side.footprint.1,
            extras,
        }
    }
}

/// Run a whole sweep concurrently and return the records in input order.
///
/// Every config is prepared and validated **before the first job is
/// submitted** — a bad config mid-sweep must not strand the jobs before it
/// on a shared pool — and the panic names the offending index. Each launch
/// then goes exactly where [`LbLaunch::run`] would send it. Determinism
/// makes every record bit-identical to a serial run of the same launch;
/// batching only buys wall time.
pub fn run_batch<C, W, F>(
    cfgs: &[C],
    prepare: impl Fn(&C) -> Result<LbLaunch<F>, String>,
) -> Vec<LbRun<W::Extras>>
where
    W: Workload,
    F: Fn(&SpmdCtx) -> W + Send + Sync + 'static,
{
    let launches: Vec<LbLaunch<F>> = cfgs
        .iter()
        .enumerate()
        .map(|(index, cfg)| {
            prepare(cfg)
                .and_then(|launch| launch.lb.validate().map(|()| launch))
                .unwrap_or_else(|err| panic!("invalid config at batch index {index}: {err}"))
        })
        .collect();
    let jobs: Vec<LbJob<W::Extras>> = launches.into_iter().map(LbLaunch::submit).collect();
    jobs.into_iter().map(LbJob::join).collect()
}

/// What every rank future of one job shares.
struct Shared<F, X> {
    lb: LbParams,
    initial: Partition,
    make: F,
    side: Arc<Mutex<Side<X>>>,
}

/// One rank's whole program. Everything it captures is owned (the future
/// is `'static`: a submitted job outlives the frame that prepared it).
async fn rank_program<W, F>(mut ctx: SpmdCtx, shared: Arc<Shared<F, W::Extras>>)
where
    W: Workload,
    F: Fn(&SpmdCtx) -> W + Send + Sync + 'static,
{
    let lb = &shared.lb;
    let rank = ctx.rank();
    let p = ctx.size();
    let mut workload = (shared.make)(&ctx);
    // Every rank's items equal its range of this partition at all times
    // (initially by construction, after every LB step by migration), so
    // migration routing never needs everyone's old ranges materialized.
    let mut partition = shared.initial.clone();
    let mut wir = WirEstimator::new(lb.wir_window);
    let mut db = WirDatabase::new(p);
    let mut outbox = GossipOutbox::new();
    // The trigger lives on rank 0 (decisions are broadcast); it is created
    // at iteration 0, once the first wall time seeds the LB-cost estimate.
    let mut trigger: Option<Trigger> = None;
    let mut lb_steps: Vec<LbStepRecord> = Vec::new();
    // Reused across LB steps: cleared and refilled in place.
    let mut weights: Vec<u64> = Vec::new();

    for iter in 0..lb.iterations {
        let iter_start = ctx.now();
        let workload_flops = workload.step(&mut ctx, iter).await;

        // WIR measurement + one gossip dissemination step.
        wir.push(iter, workload_flops);
        if let Some(rate) = wir.rate() {
            db.update(WirEntry { rank, wir: rate, iteration: iter });
        }
        for peer in select_peers(lb.gossip, rank, p, iter, lb.seed) {
            let view = outbox.view(&db, peer, iter, lb.gossip_wire);
            let view_bytes = view.wire_bytes();
            ctx.send(peer, GOSSIP_TAG, view, view_bytes);
        }

        // Iteration-end sync: (elapsed, workload) reduce to the slowest
        // PE's time and the total workload — folded once for the whole
        // round, never copied out as a per-rank `O(P)` vector.
        let elapsed = ctx.now() - iter_start;
        let (t_iter, wtot_flops) = ctx
            .allgather_with((elapsed, workload_flops), 16, |stats| {
                let t_iter = stats.iter().map(|s| s.0).fold(0.0f64, f64::max);
                let wtot_flops: f64 = stats.iter().map(|s| s.1).sum();
                (t_iter, wtot_flops)
            })
            .await;

        // Drain gossip *after* the rendezvous: every message posted this
        // iteration is now guaranteed present, so the merged set (and with
        // it every LB decision) is deterministic.
        for (_, view) in ctx.drain::<WirView>(GOSSIP_TAG) {
            db.merge_view(&view);
        }
        workload.after_sync(&mut ctx, iter);

        // LB decision on rank 0, broadcast to everyone.
        let mut overhead_estimate = 0.0;
        let my_flag = if rank == LB_ROOT {
            let trig = trigger.get_or_insert_with(|| {
                lb.trigger.build(lb.initial_lb_cost_factor * t_iter, lb.iterations)
            });
            overhead_estimate = estimate_ulba_overhead(&lb.policy, &db, wtot_flops, lb.omega, p);
            Some(trig.observe(iter, t_iter, overhead_estimate))
        } else {
            None
        };
        let lb_now = ctx.broadcast(LB_ROOT, my_flag, 1).await;
        ctx.mark_iteration(iter);

        // The LB step (Algorithms 1–2 + migration).
        if lb_now {
            ctx.begin_lb();
            let lb_started = ctx.now();
            workload.charge_lb_overhead(&mut ctx);
            // The standard method submits α = 0 whatever the score.
            let my_alpha = match lb.policy {
                LbPolicy::Standard => 0.0,
                LbPolicy::Ulba(cfg) => cfg.alpha_for(outlier_score(&lb.policy, &db, rank)),
            };
            let range_start = workload.weights_into(iter, &mut weights);
            // Every range of the new partition is non-empty (repaired once,
            // on the root), and its bounds are one allocation shared by
            // all ranks.
            let RebalanceOutcome { partition: rebalanced, decision } =
                centralized_rebalance(&mut ctx, my_alpha, range_start, &weights).await;
            workload.migrate(&mut ctx, iter, &partition, &rebalanced).await;
            let measured = ctx.now() - lb_started;
            let cost = ctx.allreduce_max(measured).await;
            ctx.end_lb();
            if let Some(trig) = trigger.as_mut() {
                trig.lb_completed(iter, cost);
                lb_steps.push(LbStepRecord {
                    iteration: iter,
                    cost_secs: cost,
                    iter_wall_secs: t_iter,
                    overhead_estimate_secs: overhead_estimate,
                    overloading: decision.overloading,
                    majority_fallback: decision.majority_fallback,
                    root_alpha: my_alpha,
                });
            }
            partition = rebalanced;
            // Workload jumped with the migration: restart the local WIR
            // estimate (the persistence principle applies *between* LB
            // steps).
            wir.reset();
        }
    }

    let extras = workload.finish(&mut ctx).await;
    let mut side = shared.side.lock().expect("no rank panics while recording");
    if rank == LB_ROOT {
        side.root = Some((extras, lb_steps));
    }
    side.footprint.0 += db.known_count() as u64;
    side.footprint.1 += outbox.tracked_peers() as u64;
}
