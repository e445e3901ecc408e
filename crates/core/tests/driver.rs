//! The LB loop on its own: `ulba_core::driver` driven by a toy workload,
//! with no application crate in sight.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use ulba_core::driver::run_batch;
use ulba_core::prelude::*;
use ulba_runtime::{Backend, JobServer, SpmdCtx};

const RANKS: usize = 4;
const ITEMS: usize = 8;
const ITERATIONS: u64 = 30;

/// Uniform unit weights, except that the items rank 2 started with gain
/// one unit per iteration wherever they live now.
struct Toy {
    start: usize,
    weights: Vec<u64>,
    /// Bumped once per `step`, shared by every rank of the job.
    steps: Arc<AtomicUsize>,
}

impl Workload for Toy {
    type Extras = u64;

    async fn step(&mut self, ctx: &mut SpmdCtx, _iter: u64) -> f64 {
        self.steps.fetch_add(1, Ordering::Relaxed);
        for (i, w) in self.weights.iter_mut().enumerate() {
            *w += u64::from((self.start + i) / ITEMS == 2);
        }
        let flops = self.weights.iter().sum::<u64>() as f64 * 1.0e6;
        ctx.compute(flops);
        flops
    }

    fn charge_lb_overhead(&self, ctx: &mut SpmdCtx) {
        ctx.elapse_lb(1.0e-3);
    }

    fn weights_into(&mut self, _iter: u64, out: &mut Vec<u64>) -> usize {
        out.clear();
        out.extend_from_slice(&self.weights);
        self.start
    }

    async fn migrate(&mut self, ctx: &mut SpmdCtx, _iter: u64, old: &Partition, new: &Partition) {
        assert_eq!(old.range(ctx.rank()), self.start..self.start + self.weights.len());
        let bytes = self.weights.len() * 8;
        let all: Vec<u64> =
            ctx.allgather(self.weights.clone(), bytes).await.into_iter().flatten().collect();
        let range = new.range(ctx.rank());
        self.start = range.start;
        self.weights = all[range].to_vec();
    }

    async fn finish(self, ctx: &mut SpmdCtx) -> u64 {
        ctx.allreduce(self.weights.iter().sum(), 8, |a, b| a + b).await
    }
}

/// [`Toy`] with an `after_sync` override that only counts its calls.
struct Hooked(Toy, Arc<AtomicUsize>);

impl Workload for Hooked {
    type Extras = u64;

    async fn step(&mut self, ctx: &mut SpmdCtx, iter: u64) -> f64 {
        self.0.step(ctx, iter).await
    }

    fn after_sync(&mut self, _ctx: &mut SpmdCtx, _iter: u64) {
        self.1.fetch_add(1, Ordering::Relaxed);
    }

    fn charge_lb_overhead(&self, ctx: &mut SpmdCtx) {
        self.0.charge_lb_overhead(ctx);
    }

    fn weights_into(&mut self, iter: u64, out: &mut Vec<u64>) -> usize {
        self.0.weights_into(iter, out)
    }

    async fn migrate(&mut self, ctx: &mut SpmdCtx, iter: u64, old: &Partition, new: &Partition) {
        self.0.migrate(ctx, iter, old, new).await;
    }

    async fn finish(self, ctx: &mut SpmdCtx) -> u64 {
        self.0.finish(ctx).await
    }
}

fn params(trigger: TriggerKind) -> LbParams {
    LbParams {
        policy: LbPolicy::Standard,
        trigger,
        gossip: GossipMode::Ring,
        gossip_wire: GossipWire::Full,
        wir_window: 4,
        initial_lb_cost_factor: 0.05,
        seed: 7,
        omega: 1.0e9,
        iterations: ITERATIONS,
    }
}

fn toy(ctx: &SpmdCtx, steps: &Arc<AtomicUsize>) -> Toy {
    Toy { start: ctx.rank() * ITEMS, weights: vec![1; ITEMS], steps: Arc::clone(steps) }
}

fn launch(
    lb: LbParams,
    placement: Placement,
    steps: Arc<AtomicUsize>,
) -> LbLaunch<impl Fn(&SpmdCtx) -> Toy + Send + Sync + 'static> {
    let initial = Partition::uniform(RANKS, ITEMS);
    LbLaunch { lb, placement, initial, make: move |ctx: &SpmdCtx| toy(ctx, &steps) }
}

fn run(trigger: TriggerKind, backend: Backend) -> LbRun<u64> {
    let placement = Placement { backend: Some(backend), ..Placement::new(RANKS) };
    launch(params(trigger), placement, Arc::default()).run()
}

#[test]
fn runs_are_deterministic_across_repeats_and_backends() {
    let a = run(TriggerKind::Zhai, Backend::Parallel);
    assert!(a.lb_calls > 0, "the growing rank must trip the degradation trigger");
    for b in
        [run(TriggerKind::Zhai, Backend::Parallel), run(TriggerKind::Zhai, Backend::Sequential)]
    {
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.lb_steps, b.lb_steps);
        assert_eq!(a.extras, b.extras);
        assert_eq!(a.db_entries_total, b.db_entries_total);
    }
    // 8 items on the hot region, +1 each per iteration, conserved by migration.
    assert_eq!(a.extras, (RANKS * ITEMS) as u64 + ITEMS as u64 * ITERATIONS);
}

#[test]
fn never_never_balances() {
    let run = run(TriggerKind::Never, Backend::Sequential);
    assert_eq!(run.lb_calls, 0);
    assert!(run.lb_steps.is_empty());
    assert_eq!(run.iterations.len(), ITERATIONS as usize);
}

#[test]
fn periodic_balances_on_schedule_and_suppresses_the_last_slot() {
    let run = run(TriggerKind::Periodic(10), Backend::Sequential);
    // The slot at iteration 29 is the last iteration: an LB step there
    // could not pay off.
    assert_eq!(run.lb_iterations, vec![9, 19]);
    assert_eq!(run.lb_steps.len(), run.lb_calls);
    for (step, &iter) in run.lb_steps.iter().zip(&run.lb_iterations) {
        assert_eq!(step.iteration, iter);
        assert!(step.cost_secs >= 1.0e-3, "the modelled overhead is part of the measured cost");
        assert_eq!((step.overloading, step.root_alpha), (0, 0.0), "standard policy: α = 0");
    }
}

#[test]
fn after_sync_runs_once_per_rank_iteration_and_defaults_to_a_no_op() {
    let plain = run(TriggerKind::Periodic(10), Backend::Sequential);
    let calls = Arc::new(AtomicUsize::new(0));
    let hooked: LbRun<u64> = LbLaunch {
        lb: params(TriggerKind::Periodic(10)),
        placement: Placement { backend: Some(Backend::Sequential), ..Placement::new(RANKS) },
        initial: Partition::uniform(RANKS, ITEMS),
        make: {
            let calls = Arc::clone(&calls);
            move |ctx: &SpmdCtx| Hooked(toy(ctx, &Arc::default()), Arc::clone(&calls))
        },
    }
    .run();
    assert_eq!(calls.load(Ordering::Relaxed), RANKS * ITERATIONS as usize);
    assert_eq!(plain.makespan.to_bits(), hooked.makespan.to_bits());
    assert_eq!(plain.lb_steps, hooked.lb_steps);
}

/// Regression: the batch used to submit config `k` only after configs
/// `0..k` were already running, and panic on the first invalid one — the
/// earlier jobs kept burning the shared pool after the caller had unwound.
#[test]
fn a_bad_config_mid_sweep_strands_no_job() {
    let pool = JobServer::new(1);
    let stranded = Arc::new(AtomicUsize::new(0));
    let mut sweep = vec![params(TriggerKind::Never); 3];
    sweep[2].gossip_wire = GossipWire::Delta { full_every: 0 };
    let prepare = |lb: &LbParams| {
        let placement = Placement { server: Some(pool.clone()), ..Placement::new(RANKS) };
        Ok(launch(lb.clone(), placement, Arc::clone(&stranded)))
    };
    let panic =
        catch_unwind(AssertUnwindSafe(|| -> Vec<LbRun<u64>> { run_batch(&sweep, prepare) }))
            .expect_err("the third config is invalid");
    let message = panic.downcast_ref::<String>().expect("a formatted panic message");
    assert!(message.contains("index 2"), "the panic must name the offender: {message}");

    // One worker: had jobs 0 and 1 been submitted, they would have been
    // scheduled ahead of (or alongside) this one and stepped by now.
    let fresh = Arc::new(AtomicUsize::new(0));
    let placement = Placement { server: Some(pool.clone()), ..Placement::new(RANKS) };
    let _: LbRun<u64> = launch(params(TriggerKind::Never), placement, Arc::clone(&fresh)).run();
    assert_eq!(fresh.load(Ordering::Relaxed), RANKS * ITERATIONS as usize);
    assert_eq!(stranded.load(Ordering::Relaxed), 0, "jobs before the bad config were launched");
}
