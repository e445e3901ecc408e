//! Using the SPMD runtime and the ULBA building blocks directly — without
//! the erosion application — on a synthetic drifting-hotspot workload.
//!
//! Demonstrates the full §III-C loop a user would write for their own
//! application: WIR estimation → gossip → z-score detection → Zhai trigger
//! → centralized weighted rebalancing.
//!
//! Run with: `cargo run --release --example adaptive_runtime`
//!
//! The execution backend is selectable per process: e.g.
//! `ULBA_BACKEND=sequential cargo run --example adaptive_runtime` runs the
//! same program (with a bit-identical report) on the single-threaded
//! scheduler instead of the default work-stealing pool.

use ulba::core::outlier::{z_from, z_params};
use ulba::core::prelude::*;
use ulba::runtime::{run, RunConfig};

const GOSSIP: u64 = 9;
/// Delta gossip with a 16-iteration anti-entropy period: messages carry
/// only entries the peer has not plausibly seen, and the bytes charged on
/// the (virtual) wire reflect exactly that.
const WIRE: GossipWire = GossipWire::Delta { full_every: 16 };

fn main() {
    let pes = 16usize;
    let iterations = 200u64;
    // Each rank owns items of unit weight; rank 12's items keep gaining
    // weight (the "hotspot").
    let items_per_rank = 1_000usize;
    let hotspot = 12usize;

    let config = RunConfig::new(pes);
    println!("backend: {} ({} PEs)\n", config.backend, pes);
    let report = run(config, |mut ctx| async move {
        let rank = ctx.rank();
        let p = ctx.size();
        // (start, weights) of my contiguous item range.
        let mut start = rank * items_per_rank;
        let mut weights: Vec<u64> = vec![100; items_per_rank];
        let mut wir = WirEstimator::new(6);
        let mut db = WirDatabase::new(p);
        let mut outbox = GossipOutbox::new();
        let mut trigger = ZhaiTrigger::new(LbCostModel::default().with_initial(0.05));

        for iter in 0..iterations {
            let t0 = ctx.now();
            // Hotspot dynamics: items currently in the hotspot's original
            // range keep getting heavier (think: refining mesh cells).
            for (i, w) in weights.iter_mut().enumerate() {
                let global = start + i;
                if global / items_per_rank == hotspot && global.is_multiple_of(7) {
                    *w += 4;
                }
            }
            let my_load: u64 = weights.iter().sum();
            ctx.compute(my_load as f64 * 1.0e4);

            // WIR + gossip (one dissemination step per iteration).
            wir.push(iter, my_load as f64);
            if let Some(rate) = wir.rate() {
                db.update(WirEntry { rank, wir: rate, iteration: iter });
            }
            for peer in select_peers(GossipMode::RandomPush { fanout: 2 }, rank, p, iter, 1) {
                let payload = outbox.message(&db, peer, iter, WIRE);
                let bytes = wire_bytes(&payload);
                ctx.send(peer, GOSSIP, payload, bytes);
            }

            // Iteration wall time + deterministic gossip drain.
            let elapsed = ctx.now() - t0;
            let t_iter = ctx.allreduce_max(elapsed).await;
            for (_, snap) in ctx.drain::<Vec<WirEntry>>(GOSSIP) {
                db.merge(&snap);
            }

            // Zhai trigger on rank 0, decision broadcast.
            let flag = (rank == 0).then(|| trigger.observe(iter, t_iter));
            let lb_now = ctx.broadcast(0, flag, 1).await;
            ctx.mark_iteration(iter);

            if lb_now {
                ctx.begin_lb();
                // A synthetic fixed LB cost (repartitioning a real domain
                // is never free; without it the trigger would thrash).
                ctx.elapse_lb(0.05);
                // Streaming z-score: same value z_scores(&db.wirs_or(0.0))[rank]
                // would give, without materializing the dense vector.
                let (m, sd) = z_params(db.wirs_iter(0.0), p);
                let my_z = z_from(db.get(rank).map_or(0.0, |e| e.wir), m, sd);
                let alpha = LbPolicy::ulba_fixed(0.3).alpha_for(my_z);
                let outcome = centralized_rebalance(&mut ctx, alpha, start, &weights).await;
                // Migrate the plain weight vector (no cell payload here).
                let all: Vec<u64> = {
                    let flat = ctx.allgather((start, weights.clone()), weights.len() * 8).await;
                    flat.into_iter().flat_map(|(_, w)| w).collect()
                };
                let range = outcome.partition.range(rank);
                start = range.start;
                weights = all[range.clone()].to_vec();
                let now = ctx.now();
                let cost = ctx.allreduce_max(now - outcome.started_at).await;
                ctx.end_lb();
                if rank == 0 {
                    trigger.lb_completed(iter, cost);
                    ctx.mark_lb_event(iter);
                    println!(
                        "LB at iteration {iter:3}: N = {} overloading, cost {:.3} s",
                        outcome.decision.overloading, cost
                    );
                }
            }
        }
    });

    println!("\nmakespan: {:.2} s over {pes} PEs", report.makespan().as_secs());
    println!("mean utilization: {:.1} %", report.mean_utilization() * 100.0);
    println!("LB steps: {:?}", report.lb_iterations);
}
