//! The scenario application: adversarial generated work as a [`Workload`]
//! of the ULBA driver.
//!
//! Per iteration, each rank (in [`Workload::step`]):
//!
//! 1. (task-graph only) pushes traffic payloads to pseudo-random partners —
//!    irregular point-to-point communication beyond the halo-only BSP
//!    baseline;
//! 2. charges the compute of the tasks it currently owns, as dictated by
//!    the active phase of the generated [`WorkTable`].
//!
//! WIR measurement, gossip, the trigger decision and the LB step are
//! [`ulba_core::driver`]'s; this module says what a task weighs in the
//! current phase and charges the modelled migration cost of the tasks that
//! changed owner.
//!
//! [`run_scenario`] and [`run_scenario_batch`] are the driver's run and
//! batch over a [`ScenarioConfig`] — bit-identical for the same config.
//! Either returns the driver's record, [`ScenarioResult`].

use crate::config::ScenarioConfig;
use crate::generator::{ScenarioKind, WorkTable};
use std::ops::Range;
use std::sync::Arc;
use ulba_core::driver::{run_batch, LbLaunch, LbRun, Workload};
use ulba_core::gossip::{select_peers, GossipMode};
use ulba_core::partition::Partition;
use ulba_runtime::{RunConfig, SpmdCtx, Tag};

/// Message tag of task-graph traffic payloads.
pub const TRAFFIC_TAG: Tag = 0x5C54;

/// What a scenario run reduces to on its way out ([`Workload::finish`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioTotals {
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

/// Everything measured over one scenario run: the driver's record, whose
/// [`ScenarioTotals`] read as its own fields (`result.lambda_achieved`).
pub type ScenarioResult = LbRun<ScenarioTotals>;

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

/// Tasks migrated when this rank's range changes from `old` to `new`:
/// everything it gave up plus everything it received (both directions
/// cost wire time on this rank's clock).
fn tasks_moved(old: &Range<usize>, new: &Range<usize>) -> usize {
    let overlap = old.end.min(new.end).saturating_sub(old.start.max(new.start));
    (old.len() - overlap) + (new.len() - overlap)
}

/// One rank's kernel state: the task range it owns and what it executed.
struct ScenarioWorkload {
    /// The generated table and the config, shared by every rank — minus
    /// the config's server handle, which captured inside the job's own
    /// futures would keep the pool alive from within itself.
    inputs: Arc<(ScenarioConfig, WorkTable)>,
    range: Range<usize>,
    units_done: u64,
    traffic_checksum: u64,
}

impl Workload for ScenarioWorkload {
    type Extras = ScenarioTotals;

    async fn step(&mut self, ctx: &mut SpmdCtx, iter: u64) -> f64 {
        let (cfg, table) = &*self.inputs;
        if cfg.kind == ScenarioKind::TaskGraph {
            let partners = select_peers(
                GossipMode::RandomPush { fanout: cfg.traffic_fanout },
                ctx.rank(),
                ctx.size(),
                iter,
                // Decorrelate the traffic partner stream from the gossip
                // stream.
                cfg.seed ^ 0x7AF1_C0DE,
            );
            for peer in partners {
                let payload = traffic_payload(ctx.rank(), iter, cfg.traffic_payload_len, cfg.seed);
                let bytes = payload.len() * 8;
                ctx.send(peer, TRAFFIC_TAG, payload, bytes);
            }
        }

        let phase = table.phase_of(iter, cfg.phase_len);
        let units = table.range_units(phase, &self.range, cfg.tasks_per_rank);
        self.units_done += units;
        let workload_flops = units as f64 * cfg.flop_per_unit;
        ctx.compute(workload_flops);
        workload_flops
    }

    /// Wrapping sums are commutative: the checksum is independent of
    /// arrival order, hence bit-identical across backends.
    fn after_sync(&mut self, ctx: &mut SpmdCtx, _iter: u64) {
        for (_, payload) in ctx.drain::<Vec<u64>>(TRAFFIC_TAG) {
            for word in payload {
                self.traffic_checksum = self.traffic_checksum.wrapping_add(word);
            }
        }
    }

    fn charge_lb_overhead(&self, ctx: &mut SpmdCtx) {
        ctx.elapse_lb(self.inputs.0.lb_fixed_cost_secs());
    }

    /// Per-task weights of the *current* phase.
    fn weights_into(&mut self, iter: u64, out: &mut Vec<u64>) -> usize {
        let (cfg, table) = &*self.inputs;
        let phase = table.phase_of(iter, cfg.phase_len);
        table.task_weights_into(phase, &self.range, cfg.tasks_per_rank, out);
        self.range.start
    }

    /// Migration cost: tasks that changed owner drag `task_bytes` each over
    /// the wire (modelled — the tasks have no real payload state, their
    /// weight lives in the table).
    async fn migrate(&mut self, ctx: &mut SpmdCtx, _iter: u64, _old: &Partition, new: &Partition) {
        let new_range = new.range(ctx.rank());
        let moved = tasks_moved(&self.range, &new_range);
        if moved > 0 {
            ctx.elapse_lb(ctx.machine().p2p_secs(moved * self.inputs.0.task_bytes));
        }
        self.range = new_range;
    }

    /// Work conservation across whatever partitions the balancer produced,
    /// plus the order-independent traffic checksum.
    async fn finish(self, ctx: &mut SpmdCtx) -> ScenarioTotals {
        let (cfg, table) = &*self.inputs;
        let total_work_units = ctx.allreduce(self.units_done, 8, |a, b| a.wrapping_add(*b)).await;
        assert_eq!(
            total_work_units,
            cfg.iterations * table.total_units,
            "work conservation: every unit is executed exactly once per iteration"
        );
        let traffic_checksum =
            ctx.allreduce(self.traffic_checksum, 8, |a, b| a.wrapping_add(*b)).await;
        ScenarioTotals {
            total_work_units,
            traffic_checksum,
            lambda_target: table.lambda_target,
            lambda_achieved: table.lambda_achieved,
        }
    }
}

/// Validate `cfg` and build the work table once; the driver does the rest.
fn prepare(
    cfg: &ScenarioConfig,
) -> Result<LbLaunch<impl Fn(&SpmdCtx) -> ScenarioWorkload + Send + Sync + 'static>, String> {
    cfg.validate()?;
    let table = WorkTable::build(
        cfg.kind,
        cfg.ranks,
        cfg.phases,
        cfg.lambda,
        cfg.avg_units_per_rank,
        cfg.seed,
    )?;
    let mut cfg = cfg.clone();
    // The server only routes the run: the inputs the rank futures share
    // must not keep its pool alive.
    let config = RunConfig::resolve(cfg.ranks, cfg.backend, cfg.workers, cfg.server.take())?;
    let lb = cfg.lb_params();
    let tpr = cfg.tasks_per_rank;
    let initial = Partition::uniform(cfg.ranks, tpr);
    let inputs = Arc::new((cfg, table));
    let make = move |ctx: &SpmdCtx| ScenarioWorkload {
        inputs: Arc::clone(&inputs),
        range: ctx.rank() * tpr..(ctx.rank() + 1) * tpr,
        units_done: 0,
        traffic_checksum: 0,
    };
    Ok(LbLaunch { lb, config, initial, make })
}

/// Run one scenario experiment and collect its measurements. A config
/// that names a [`ScenarioConfig::server`] runs on that pool.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioResult {
    prepare(cfg).unwrap_or_else(|err| panic!("invalid scenario config: {err}")).run()
}

/// Run a whole sweep concurrently and return the results in input order
/// ([`run_batch`]): each config runs where [`run_scenario`] would run it;
/// every config is validated before the first job is submitted.
pub fn run_scenario_batch(cfgs: &[ScenarioConfig]) -> Vec<ScenarioResult> {
    run_batch(cfgs, prepare)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TriggerKind;
    use ulba_core::policy::LbPolicy;
    use ulba_runtime::{Backend, JobServer};

    #[test]
    fn tiny_run_completes_for_every_kind() {
        for kind in ScenarioKind::ALL {
            let cfg = ScenarioConfig::tiny(kind, 4);
            let res = run_scenario(&cfg);
            assert!(res.makespan > 0.0, "{kind}");
            assert_eq!(res.iterations.len(), cfg.iterations as usize, "{kind}");
            assert_eq!(res.lb_steps.len(), res.lb_calls, "{kind}");
            for (step, &iter) in res.lb_steps.iter().zip(&res.lb_iterations) {
                assert_eq!(step.iteration, iter, "{kind}");
            }
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
        assert_eq!(b.lb_steps.len(), b.lb_calls);
        assert!(b.lb_steps.iter().zip(&b.lb_iterations).all(|(s, &i)| s.iteration == i));
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
    fn batch_on_a_shared_server_matches_serial_runs() {
        let server = JobServer::new(2);
        let cfgs: Vec<ScenarioConfig> = ScenarioKind::ALL
            .iter()
            .map(|&kind| {
                let mut c = ScenarioConfig::tiny(kind, 4);
                c.iterations = 24;
                c
            })
            .collect();
        let shared: Vec<ScenarioConfig> =
            cfgs.iter().map(|c| c.clone().with_server(server.clone())).collect();
        for (batched, cfg) in run_scenario_batch(&shared).into_iter().zip(&cfgs) {
            let serial = run_scenario(cfg);
            assert_eq!(batched.makespan.to_bits(), serial.makespan.to_bits(), "{}", cfg.kind);
            assert_eq!(batched.lb_iterations, serial.lb_iterations);
            assert_eq!(batched.traffic_checksum, serial.traffic_checksum);
        }
    }

    #[test]
    fn explicit_backend_defers_instead_of_pooling() {
        let mut cfg = ScenarioConfig::tiny(ScenarioKind::Scatter, 2).with_server(JobServer::new(1));
        cfg.iterations = 8;
        cfg.backend = Some(Backend::Sequential);
        let res = run_scenario_batch(std::slice::from_ref(&cfg)).remove(0);
        assert_eq!(res.backend, Backend::Sequential, "sequential runs must not be pooled");
        assert_eq!(run_scenario(&cfg).makespan.to_bits(), res.makespan.to_bits());
    }

    /// Regression: the batch used to launch configs 0..k before it looked
    /// at config k, stranding them on the pool when k was invalid — and a
    /// zero gossip fanout, a one-sample WIR window or a `NaN` cost (which
    /// every `x <= 0.0` check lets through) used to pass `validate` and
    /// panic inside every rank future on the pool workers instead, while an
    /// infinite one ran to an infinite makespan.
    #[test]
    fn batch_rejects_a_bad_config_by_index_before_launching_any() {
        let good = ScenarioConfig::tiny(ScenarioKind::Scatter, 4);
        let bad = [
            (ScenarioConfig { lambda: 5.0, ..good.clone() }, "lambda"),
            (
                ScenarioConfig { gossip: GossipMode::RandomPush { fanout: 0 }, ..good.clone() },
                "fanout",
            ),
            (ScenarioConfig { wir_window: 1, ..good.clone() }, "wir_window"),
            (ScenarioConfig { flop_per_unit: f64::NAN, ..good.clone() }, "flop_per_unit"),
            (
                ScenarioConfig { lb_fixed_cost_factor: f64::INFINITY, ..good.clone() },
                "lb_fixed_cost_factor",
            ),
        ];
        let count = bad.len();
        for (index, (bad, names)) in bad.into_iter().enumerate() {
            let mut cfgs = vec![good.clone(); count];
            cfgs[index] = bad;
            let panic = std::panic::catch_unwind(|| run_scenario_batch(&cfgs)).expect_err(names);
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(message.contains(&format!("index {index}")), "{message}");
            assert!(message.contains(names), "{message}");
        }
    }

    /// `run_scenario` and `run_scenario_batch` mean the same backend by
    /// the same config, for every way of (not) naming one — `Sequential` +
    /// server was once pooled by one launch path and deferred by another,
    /// and a worker count without a server gave the run a private pool
    /// and the batch the global one.
    #[test]
    fn run_and_batch_resolve_the_same_backend() {
        for backend in [None, Some(Backend::Sequential), Some(Backend::Parallel)] {
            for server in [None, Some(JobServer::new(1))] {
                for workers in [None, Some(1)] {
                    let mut cfg = ScenarioConfig::tiny(ScenarioKind::TaskGraph, 3);
                    cfg.iterations = 8;
                    cfg.backend = backend;
                    cfg.server = server.clone();
                    cfg.workers = workers;
                    let label = format!("{backend:?} + {:?} + {workers:?} workers", cfg.server);
                    let ran = run_scenario(&cfg);
                    let batched = run_scenario_batch(std::slice::from_ref(&cfg)).remove(0);
                    assert_eq!(ran.backend, batched.backend, "{label}");
                    if let Some(explicit) = backend {
                        assert_eq!(ran.backend, explicit, "{label}: an explicit backend wins");
                    } else if cfg.server.is_some() {
                        assert_eq!(
                            ran.backend,
                            Backend::Parallel,
                            "{label}: a server is that pool"
                        );
                    }
                    assert_eq!(ran.makespan.to_bits(), batched.makespan.to_bits(), "{label}");
                    assert_eq!(ran.lb_iterations, batched.lb_iterations, "{label}");
                    assert_eq!(ran.traffic_checksum, batched.traffic_checksum, "{label}");
                    // Both go to the same pool: the named server, else the
                    // private pool a worker count names, else the global
                    // pool — whose block count another test's job sharing
                    // it at the same moment could change.
                    if backend == Some(Backend::Sequential)
                        || cfg.server.is_some()
                        || workers.is_some()
                    {
                        assert_eq!(ran.hub_shards, batched.hub_shards, "{label}");
                    }
                }
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
