//! The scenario application: adversarial generated work driven through the
//! full ULBA machinery on the SPMD runtime.
//!
//! Per iteration, each rank:
//!
//! 1. (task-graph only) pushes traffic payloads to pseudo-random partners —
//!    irregular point-to-point communication beyond the halo-only BSP
//!    baseline;
//! 2. charges the compute of the tasks it currently owns, as dictated by
//!    the active phase of the generated [`WorkTable`];
//! 3. updates its WIR estimate and performs one gossip dissemination step;
//! 4. joins the iteration-end reduction of `(elapsed, workload)` (folded once
//!    per round on the shared hub round);
//! 5. learns (via broadcast from rank 0) whether to run the LB step; if so,
//!    computes its α from its WIR outlier score, joins the centralized
//!    rebalancing over per-task weights, and charges the modelled
//!    migration cost of the tasks that changed owner.
//!
//! The three entry points mirror the erosion app's and share one launch
//! path: [`run_scenario`] (blocking), [`submit_scenario`] (launch, pooled
//! jobs going to a shared [`JobServer`]), and [`run_scenario_batch`]
//! (launch a sweep, join in order) — all bit-identical for the same config.

use crate::config::ScenarioConfig;
use crate::generator::{ScenarioKind, WorkTable};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;
use ulba_core::balancer::centralized_rebalance;
use ulba_core::db::{wire_bytes, WirDatabase, WirEntry};
use ulba_core::gossip::{select_peers, GossipMode, GossipOutbox};
use ulba_core::policy::{estimate_ulba_overhead, outlier_score};
use ulba_core::trigger::{AnyTrigger, LbTrigger};
use ulba_core::wir::WirEstimator;
use ulba_runtime::{
    submit, Backend, IterationStats, JobHandle, JobServer, MachineSpec, RankMetrics, RunConfig,
    SpmdCtx, Tag,
};

/// Message tag of gossip snapshots (distinct from the erosion app's).
pub const GOSSIP_TAG: Tag = 0x5C47;
/// Message tag of task-graph traffic payloads.
pub const TRAFFIC_TAG: Tag = 0x5C54;

/// Everything measured over one scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Virtual makespan in seconds.
    pub makespan: f64,
    /// Number of LB steps performed.
    pub lb_calls: usize,
    /// Iterations at which LB steps happened.
    pub lb_iterations: Vec<u64>,
    /// Per-iteration wall time / mean utilization series.
    pub iterations: Vec<IterationStats>,
    /// Average PE utilization over the whole run.
    pub mean_utilization: f64,
    /// Final per-rank time accounting.
    pub rank_metrics: Vec<RankMetrics>,
    /// The backend that drove the run — what [`ScenarioConfig::backend`],
    /// [`ScenarioConfig::server`] and `ULBA_BACKEND` resolved to. Pure
    /// metadata, like the shard count below.
    pub backend: Backend,
    /// Leaf shard count the rendezvous hub actually ran with. Pure
    /// contention metadata: it never influences the measurements above.
    pub hub_shards: usize,
    /// Sum over ranks of WIR-database entries resident at run end.
    pub db_entries_total: u64,
    /// Sum over ranks of delta-gossip peer watermarks resident at run end
    /// (0 under the full-snapshot wire).
    pub gossip_watermarks_total: u64,
    /// Work units executed across all ranks and iterations — must equal
    /// `iterations · ranks · avg_units_per_rank` whatever the balancer did
    /// (work conservation; asserted by the run).
    pub total_work_units: u64,
    /// Order-independent checksum over every delivered traffic payload
    /// word (0 for non-task-graph scenarios). Bit-identical across
    /// backends and hub-shard counts.
    pub traffic_checksum: u64,
    /// The λ = max/mean the generator was asked for.
    pub lambda_target: f64,
    /// The λ the generated table actually realizes (verified within 5% of
    /// the target at build time).
    pub lambda_achieved: f64,
}

/// Deterministic traffic payload pushed by `rank` at `iter` — a keyed
/// counter stream, cheap to generate and summing to an order-independent
/// checksum on the receiving side.
fn traffic_payload(rank: usize, iter: u64, words: usize, seed: u64) -> Vec<u64> {
    let key = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((rank as u64) << 32)
        .wrapping_add(iter);
    (0..words as u64).map(|i| key.wrapping_mul(i.wrapping_add(1))).collect()
}

/// Out-of-band measurements a run records on its way out; a side channel,
/// not a collective — it must not perturb the virtual-time measurements.
#[derive(Default)]
struct SideChannels {
    /// `(total work units, traffic checksum)`, recorded by rank 0.
    extras: Mutex<Option<(u64, u64)>>,
    /// Aggregate memory accounting `(db entries, gossip watermarks)`,
    /// summed by every rank on its way out.
    db_footprint: Mutex<(u64, u64)>,
}

/// Tasks migrated when this rank's range changes from `old` to `new`:
/// everything it gave up plus everything it received (both directions
/// cost wire time on this rank's clock).
fn tasks_moved(old: &Range<usize>, new: &Range<usize>) -> usize {
    let overlap = old.end.min(new.end).saturating_sub(old.start.max(new.start));
    (old.len() - overlap) + (new.len() - overlap)
}

/// One rank's whole program, from initial task range to final accounting.
async fn rank_program(
    mut ctx: SpmdCtx,
    cfg: Arc<ScenarioConfig>,
    table: Arc<WorkTable>,
    side: Arc<SideChannels>,
) {
    let rank = ctx.rank();
    let p = ctx.size();
    let tpr = cfg.tasks_per_rank;
    let mut my_range = rank * tpr..(rank + 1) * tpr;
    let mut wir = WirEstimator::new(cfg.wir_window);
    let mut db = WirDatabase::new(p);
    let mut outbox = GossipOutbox::new();
    let mut trigger: Option<AnyTrigger> = None;
    let mut weights_scratch: Vec<u64> = Vec::new();
    let mut units_done = 0u64;
    let mut traffic_checksum = 0u64;
    // Decorrelate the traffic partner stream from the gossip stream.
    let traffic_seed = cfg.seed ^ 0x7AF1_C0DE;

    for iter in 0..cfg.iterations {
        let iter_start = ctx.now();
        let phase = table.phase_of(iter, cfg.phase_len);

        // (1) Irregular task-graph traffic (beyond the halo-only baseline).
        if cfg.kind == ScenarioKind::TaskGraph {
            let partners = select_peers(
                GossipMode::RandomPush { fanout: cfg.traffic_fanout },
                rank,
                p,
                iter,
                traffic_seed,
            );
            for peer in partners {
                let payload = traffic_payload(rank, iter, cfg.traffic_payload_len, cfg.seed);
                let bytes = payload.len() * 8;
                ctx.send(peer, TRAFFIC_TAG, payload, bytes);
            }
        }

        // (2) Compute the tasks this rank currently owns.
        let units = table.range_units(phase, &my_range, tpr);
        units_done += units;
        let workload_flops = units as f64 * cfg.flop_per_unit;
        ctx.compute(workload_flops);

        // (3) WIR measurement + one gossip dissemination step.
        wir.push(iter, workload_flops);
        if let Some(rate) = wir.rate() {
            db.update(WirEntry { rank, wir: rate, iteration: iter });
        }
        for peer in select_peers(cfg.gossip, rank, p, iter, cfg.seed) {
            let payload = outbox.message(&db, peer, iter, cfg.gossip_wire);
            let payload_bytes = wire_bytes(&payload);
            ctx.send(peer, GOSSIP_TAG, payload, payload_bytes);
        }

        // (4) Iteration-end sync: share (elapsed, workload).
        let elapsed = ctx.now() - iter_start;
        // Folded once for the whole round to the slowest PE's time and
        // the total workload; no rank copies the O(P) vector.
        let (t_iter, wtot_flops) = ctx
            .allgather_with((elapsed, workload_flops), 16, |stats| {
                let t_iter = stats.iter().map(|s| s.0).fold(0.0f64, f64::max);
                let wtot_flops: f64 = stats.iter().map(|s| s.1).sum();
                (t_iter, wtot_flops)
            })
            .await;

        // Drain after the rendezvous: every message posted this iteration
        // is guaranteed present, so the merged set is deterministic.
        for (_, snap) in ctx.drain::<Vec<WirEntry>>(GOSSIP_TAG) {
            db.merge(&snap);
        }
        // Wrapping sums are commutative: the checksum is independent of
        // arrival order, hence bit-identical across backends.
        for (_, payload) in ctx.drain::<Vec<u64>>(TRAFFIC_TAG) {
            for word in payload {
                traffic_checksum = traffic_checksum.wrapping_add(word);
            }
        }

        // (5) LB decision on rank 0, broadcast to everyone.
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

        // (6) The LB step over per-task weights of the *current* phase.
        if lb_now && iter + 1 < cfg.iterations {
            ctx.begin_lb();
            let lb_started = ctx.now();
            ctx.elapse_lb(cfg.lb_fixed_cost_secs());
            let my_z = outlier_score(&cfg.policy, &db, rank);
            let my_alpha = cfg.policy.alpha_for(my_z);
            table.task_weights_into(phase, &my_range, tpr, &mut weights_scratch);
            let outcome =
                centralized_rebalance(&mut ctx, my_alpha, my_range.start, &weights_scratch).await;
            // Every range is non-empty: the root repaired the partition
            // before broadcasting it.
            let bounds = outcome.partition.bounds();
            let new_range = bounds[rank]..bounds[rank + 1];
            // Migration cost: tasks that changed owner drag `task_bytes`
            // each over the wire (modelled — the tasks have no real
            // payload state, their weight lives in the table).
            let moved = tasks_moved(&my_range, &new_range);
            if moved > 0 {
                ctx.elapse_lb(ctx.machine().p2p_secs(moved * cfg.task_bytes));
            }
            my_range = new_range;
            let measured = ctx.now() - lb_started;
            let cost = ctx.allreduce_max(measured).await;
            ctx.end_lb();
            if rank == 0 {
                if let Some(trig) = trigger.as_mut() {
                    trig.lb_completed(iter, cost);
                }
                ctx.mark_lb_event(iter);
            }
            // Workload jumped with the migration: restart the local WIR
            // estimate (persistence applies *between* LB steps).
            wir.reset();
        }
    }

    // Final accounting: work conservation across whatever partitions the
    // balancer produced, plus the order-independent traffic checksum.
    let total_units = ctx.allreduce(units_done, 8, |a, b| a.wrapping_add(*b)).await;
    assert_eq!(
        total_units,
        cfg.iterations * table.total_units,
        "work conservation: every unit is executed exactly once per iteration"
    );
    let checksum = ctx.allreduce(traffic_checksum, 8, |a, b| a.wrapping_add(*b)).await;
    if rank == 0 {
        *side.extras.lock() = Some((total_units, checksum));
    }
    let mut footprint = side.db_footprint.lock();
    footprint.0 += db.known_count() as u64;
    footprint.1 += outbox.tracked_peers() as u64;
}

/// The one launch path of an experiment (see the erosion app's): validate
/// `cfg`, build the work table once, resolve the runtime config, and hand
/// the rank body to the runtime's `submit`. `pool`, when given, is where a
/// pool job goes; which backend the config means never depends on it.
fn launch(cfg: &ScenarioConfig, pool: Option<&JobServer>) -> ScenarioJob {
    cfg.validate().expect("invalid scenario config");
    let table = Arc::new(
        WorkTable::build(
            cfg.kind,
            cfg.ranks,
            cfg.phases,
            cfg.lambda,
            cfg.avg_units_per_rank,
            cfg.seed,
        )
        .expect("config validation admits only feasible tables"),
    );
    let lambda = (table.lambda_target, table.lambda_achieved);
    let side = Arc::new(SideChannels::default());

    let mut cfg = cfg.clone();
    // The server handle only routes the run; captured inside the job's own
    // futures it would keep the pool alive from within itself.
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
    let handle = submit(run_cfg, move |ctx| {
        rank_program(ctx, Arc::clone(&cfg), Arc::clone(&table), Arc::clone(&side_tx))
    });
    ScenarioJob { handle, side, hub_shards, lambda }
}

/// Run one scenario experiment and collect its measurements.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioResult {
    launch(cfg, None).join()
}

/// A launched scenario experiment; see [`submit_scenario`].
pub struct ScenarioJob {
    handle: JobHandle,
    side: Arc<SideChannels>,
    hub_shards: usize,
    lambda: (f64, f64),
}

impl ScenarioJob {
    /// The backend driving the experiment: a [`Backend::Sequential`] one
    /// occupies no pool worker and runs inside [`ScenarioJob::join`].
    pub fn backend(&self) -> Backend {
        self.handle.backend()
    }

    /// Block until the experiment finishes and combine the runtime's
    /// report with the run's side channels. Panics if the job deadlocked
    /// or a rank panicked.
    pub fn join(self) -> ScenarioResult {
        let backend = self.handle.backend();
        let report = self.handle.join().unwrap_or_else(|err| panic!("{err}"));
        let (total_work_units, traffic_checksum) =
            self.side.extras.lock().take().expect("rank 0 recorded the extras");
        let (db_entries_total, gossip_watermarks_total) = *self.side.db_footprint.lock();
        ScenarioResult {
            makespan: report.makespan().as_secs(),
            lb_calls: report.lb_call_count(),
            lb_iterations: report.lb_iterations.clone(),
            mean_utilization: report.mean_utilization(),
            iterations: report.iterations,
            rank_metrics: report.rank_metrics,
            backend,
            hub_shards: self.hub_shards,
            db_entries_total,
            gossip_watermarks_total,
            total_work_units,
            traffic_checksum,
            lambda_target: self.lambda.0,
            lambda_achieved: self.lambda.1,
        }
    }
}

/// Launch one experiment without waiting for it; a pooled job goes to
/// `server`.
///
/// Same contract as the erosion app's `submit_erosion`: which backend the
/// config means is decided exactly as in [`run_scenario`] (see
/// [`ScenarioConfig::with_server`]), and one that means the sequential
/// backend runs serially at join time. Either way the measurements are
/// bit-identical.
pub fn submit_scenario(server: &JobServer, cfg: &ScenarioConfig) -> ScenarioJob {
    launch(cfg, Some(server))
}

/// Run a whole sweep concurrently on a shared pool and return the results
/// in input order. Each config routes to its own
/// [`ScenarioConfig::server`] when set, else to [`JobServer::global`].
pub fn run_scenario_batch(cfgs: &[ScenarioConfig]) -> Vec<ScenarioResult> {
    let jobs: Vec<ScenarioJob> = cfgs
        .iter()
        .map(|cfg| submit_scenario(cfg.server.as_ref().unwrap_or_else(|| JobServer::global()), cfg))
        .collect();
    jobs.into_iter().map(ScenarioJob::join).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TriggerKind;
    use ulba_core::policy::LbPolicy;

    #[test]
    fn tiny_run_completes_for_every_kind() {
        for kind in ScenarioKind::ALL {
            let cfg = ScenarioConfig::tiny(kind, 4);
            let res = run_scenario(&cfg);
            assert!(res.makespan > 0.0, "{kind}");
            assert_eq!(res.iterations.len(), cfg.iterations as usize, "{kind}");
            assert_eq!(
                res.total_work_units,
                cfg.iterations * 4 * cfg.avg_units_per_rank,
                "{kind}: work must be conserved"
            );
            assert!(
                (res.lambda_achieved - cfg.lambda).abs() <= 0.05 * cfg.lambda,
                "{kind}: λ {} vs target {}",
                res.lambda_achieved,
                cfg.lambda
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = ScenarioConfig::tiny(ScenarioKind::TaskGraph, 4);
        let a = run_scenario(&cfg);
        let b = run_scenario(&cfg);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.lb_iterations, b.lb_iterations);
        assert_eq!(a.traffic_checksum, b.traffic_checksum);
    }

    #[test]
    fn task_graph_traffic_is_delivered() {
        let res = run_scenario(&ScenarioConfig::tiny(ScenarioKind::TaskGraph, 4));
        assert_ne!(res.traffic_checksum, 0, "payload words must arrive");
        let halo_free = run_scenario(&ScenarioConfig::tiny(ScenarioKind::Scatter, 4));
        assert_eq!(halo_free.traffic_checksum, 0, "only task-graph sends traffic");
    }

    #[test]
    fn ulba_beats_never_on_a_slow_node() {
        // A persistent slow node is the best case for any balancer: one
        // good LB step repairs it for the rest of the run.
        let mut never = ScenarioConfig::tiny(ScenarioKind::SlowNode, 8);
        never.trigger = TriggerKind::Never;
        never.iterations = 48;
        let mut ulba = never.clone();
        ulba.trigger = TriggerKind::Periodic(8);
        ulba.policy = LbPolicy::ulba_fixed(0.4);
        let a = run_scenario(&never);
        let b = run_scenario(&ulba);
        assert_eq!(a.lb_calls, 0);
        assert!(b.lb_calls > 0);
        assert!(
            b.makespan < a.makespan,
            "balancing a persistent slow node must pay off ({} vs {})",
            b.makespan,
            a.makespan
        );
    }

    #[test]
    fn never_trigger_never_balances() {
        let mut cfg = ScenarioConfig::tiny(ScenarioKind::Scatter, 4);
        cfg.trigger = TriggerKind::Never;
        let res = run_scenario(&cfg);
        assert_eq!(res.lb_calls, 0);
        assert_eq!(res.lb_iterations, Vec::<u64>::new());
    }

    #[test]
    fn submitted_jobs_match_serial_runs() {
        let server = JobServer::new(2);
        let cfgs: Vec<ScenarioConfig> = ScenarioKind::ALL
            .iter()
            .map(|&kind| {
                let mut c = ScenarioConfig::tiny(kind, 4);
                c.iterations = 24;
                c
            })
            .collect();
        let jobs: Vec<ScenarioJob> = cfgs.iter().map(|c| submit_scenario(&server, c)).collect();
        for (job, cfg) in jobs.into_iter().zip(&cfgs) {
            let batched = job.join();
            let serial = run_scenario(cfg);
            assert_eq!(batched.makespan.to_bits(), serial.makespan.to_bits(), "{}", cfg.kind);
            assert_eq!(batched.lb_iterations, serial.lb_iterations);
            assert_eq!(batched.traffic_checksum, serial.traffic_checksum);
        }
    }

    #[test]
    fn explicit_backend_defers_instead_of_pooling() {
        let server = JobServer::new(1);
        let mut cfg = ScenarioConfig::tiny(ScenarioKind::Scatter, 2);
        cfg.iterations = 8;
        cfg.backend = Some(Backend::Sequential);
        let job = submit_scenario(&server, &cfg);
        assert_eq!(job.backend(), Backend::Sequential, "sequential runs must not be pooled");
        let res = job.join();
        assert_eq!(run_scenario(&cfg).makespan.to_bits(), res.makespan.to_bits());
    }

    /// `run_scenario` and `submit_scenario` mean the same backend by the
    /// same config, for every way of (not) naming one — `Sequential` +
    /// server used to be pooled by the former and deferred by the latter.
    #[test]
    fn run_and_submit_resolve_the_same_backend() {
        let pool = JobServer::new(1);
        for backend in [None, Some(Backend::Sequential), Some(Backend::Parallel)] {
            for server in [None, Some(JobServer::new(1))] {
                let mut cfg = ScenarioConfig::tiny(ScenarioKind::TaskGraph, 3);
                cfg.iterations = 8;
                cfg.backend = backend;
                cfg.server = server;
                let label = format!("{backend:?} + {:?}", cfg.server);
                let ran = run_scenario(&cfg);
                let submitted = submit_scenario(&pool, &cfg).join();
                assert_eq!(ran.backend, submitted.backend, "{label}");
                if let Some(explicit) = backend {
                    assert_eq!(ran.backend, explicit, "{label}: an explicit backend wins");
                } else if cfg.server.is_some() {
                    assert_eq!(ran.backend, Backend::Parallel, "{label}: a server is that pool");
                }
                assert_eq!(ran.makespan.to_bits(), submitted.makespan.to_bits(), "{label}");
                assert_eq!(ran.lb_iterations, submitted.lb_iterations, "{label}");
                assert_eq!(ran.traffic_checksum, submitted.traffic_checksum, "{label}");
                assert_eq!(ran.hub_shards, submitted.hub_shards, "{label}");
            }
        }
    }

    #[test]
    fn tasks_moved_counts_both_directions() {
        assert_eq!(tasks_moved(&(0..10), &(0..10)), 0);
        assert_eq!(tasks_moved(&(0..10), &(5..15)), 10, "5 given up + 5 received");
        assert_eq!(tasks_moved(&(0..10), &(20..30)), 20, "disjoint: full churn");
        assert_eq!(tasks_moved(&(0..10), &(0..4)), 6);
    }
}
