//! Plugging your own application into the ULBA loop: implement
//! [`Workload`] for the kernel (here a synthetic drifting hotspot over a
//! plain weight vector) and launch it through `ulba::core::driver`, which
//! owns WIR estimation → gossip → trigger → α → centralized rebalancing.
//!
//! Run with: `cargo run --release --example adaptive_runtime`
//!
//! The execution backend is selectable per process: e.g.
//! `ULBA_BACKEND=sequential cargo run --example adaptive_runtime` runs the
//! same program (with a bit-identical report) on the single-threaded
//! scheduler instead of the default work-stealing pool.

use ulba::core::prelude::*;
use ulba::runtime::{RunConfig, SpmdCtx};

const PES: usize = 16;
const ITEMS_PER_RANK: usize = 1_000;
/// Items in this rank's *original* range keep gaining weight (think:
/// refining mesh cells), wherever the balancer has moved them since.
const HOTSPOT: usize = 12;
const FLOP_PER_UNIT: f64 = 1.0e4;

/// One rank's contiguous item range: `(start, weights)`.
struct Hotspot {
    start: usize,
    weights: Vec<u64>,
}

impl Hotspot {
    fn load(&self) -> f64 {
        self.weights.iter().sum::<u64>() as f64
    }
}

impl Workload for Hotspot {
    /// Total weight at the end of the run.
    type Extras = f64;

    async fn step(&mut self, ctx: &mut SpmdCtx, _iter: u64) -> f64 {
        for (i, w) in self.weights.iter_mut().enumerate() {
            let global = self.start + i;
            if global / ITEMS_PER_RANK == HOTSPOT && global.is_multiple_of(7) {
                *w += 4;
            }
        }
        let flops = self.load() * FLOP_PER_UNIT;
        ctx.compute(flops);
        flops
    }

    /// A synthetic fixed LB cost (repartitioning a real domain is never
    /// free; without it the trigger would thrash).
    fn charge_lb_overhead(&self, ctx: &mut SpmdCtx) {
        ctx.elapse_lb(0.05);
    }

    fn weights_into(&mut self, _iter: u64, out: &mut Vec<u64>) -> usize {
        out.clear();
        out.extend_from_slice(&self.weights);
        self.start
    }

    /// Migrate the plain weight vector (no cell payload here): everyone
    /// gathers everything and keeps its new slice.
    async fn migrate(&mut self, ctx: &mut SpmdCtx, _iter: u64, _old: &Partition, new: &Partition) {
        let bytes = self.weights.len() * 8;
        let all: Vec<u64> =
            ctx.allgather(self.weights.clone(), bytes).await.into_iter().flatten().collect();
        let range = new.range(ctx.rank());
        self.start = range.start;
        self.weights = all[range].to_vec();
    }

    async fn finish(self, ctx: &mut SpmdCtx) -> f64 {
        ctx.allreduce_sum(self.load()).await
    }
}

fn main() {
    let launch = LbLaunch {
        lb: LbParams {
            policy: LbPolicy::ulba_fixed(0.3),
            trigger: TriggerKind::Zhai,
            gossip: GossipMode::RandomPush { fanout: 2 },
            // Delta gossip with a 16-iteration anti-entropy period: messages
            // carry only entries the peer has not plausibly seen, and the
            // bytes charged on the (virtual) wire reflect exactly that.
            gossip_wire: GossipWire::Delta { full_every: 16 },
            wir_window: 6,
            initial_lb_cost_factor: 0.05,
            seed: 1,
            omega: 1.0e9,
            iterations: 200,
        },
        config: RunConfig::new(PES),
        initial: Partition::uniform(PES, ITEMS_PER_RANK),
        make: |ctx: &SpmdCtx| Hotspot {
            start: ctx.rank() * ITEMS_PER_RANK,
            weights: vec![100; ITEMS_PER_RANK],
        },
    };
    let run: LbRun<f64> = launch.run();

    println!("backend: {} ({PES} PEs)\n", run.backend);
    for step in &run.lb_steps {
        println!(
            "LB at iteration {:3}: N = {} overloading, cost {:.3} s (root alpha {:.2})",
            step.iteration, step.overloading, step.cost_secs, step.root_alpha
        );
    }
    println!("\nmakespan: {:.2} s over {PES} PEs", run.makespan);
    println!("mean utilization: {:.1} %", run.mean_utilization * 100.0);
    println!("final total weight: {}", run.extras);
}
