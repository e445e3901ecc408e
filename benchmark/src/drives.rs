//! Layer drives: each calls one layer's public functions in isolation, on
//! inputs sized from the workload's own parameters, and reports a unit
//! cost. A unit cost times the workload's known call count projects that
//! layer's share of `wall_s` (see `run::project`).
//!
//! Runtime layers are driven by SPMD micro-programs on the workload's own
//! `JobServer`; `core`, `erosion.erode`, `erosion.stripe` (except halo and
//! migrate, which need an `SpmdCtx`), `scenario.generator`, `model` and
//! `anneal` by direct single-threaded calls. Every drive runs inside a
//! `drive:<metric>` span whose `calls` is the number of unit calls it
//! covers.

use crate::metrics::Values;
use crate::trace::Tracer;
use crate::workloads::{Inputs, ULBA_ALPHA};
use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::time::Instant;
use ulba_core::balancer::centralized_rebalance;
use ulba_core::db::{WirDatabase, WirEntry};
use ulba_core::gossip::{select_peers, simulate_gossip, GossipMode, GossipOutbox, GossipWire};
use ulba_core::partition::{partition_by_shares, Partition};
use ulba_core::policy::{estimate_ulba_overhead, outlier_score, LbPolicy};
use ulba_core::shares::compute_shares;
use ulba_erosion::erode::erosion_step;
use ulba_erosion::{exchange_halos_reusing, migrate, Geometry, HaloScratch, Stripe};
use ulba_model::schedule::{sigma_plus_schedule, total_time, Method};
use ulba_model::search::{anneal_schedule, optimal_schedule, AnnealSearchConfig};
use ulba_model::InstanceDistribution;
use ulba_runtime::{JobServer, RunConfig, SpmdCtx};
use ulba_scenario::{ScenarioKind, WorkTable};

/// What the drives are sized from. Fields a workload does not have (a
/// scenario has no stripes, the model has no ranks) take small nominal
/// values so that every traced run reports every layer metric.
#[derive(Debug, Clone)]
pub struct DriveParams {
    pub ranks: usize,
    /// Jobs resident on the pool at once (a batched sweep), each of `ranks`
    /// ranks: the SPMD micro-programs run as that many concurrent jobs.
    pub jobs: usize,
    /// Stripe geometry: columns per rank, rows, disc radius.
    pub cols: usize,
    pub height: usize,
    pub radius: usize,
    pub p_strong: f64,
    pub tasks_per_rank: usize,
    /// Items the balancer partitions per rank: columns or tasks.
    pub items_per_rank: usize,
    pub mode: GossipMode,
    pub wire: GossipWire,
    /// Gossip rounds replayed (the workload's iterations, capped).
    pub rounds: u64,
    /// Instances through annealing and the DP, and the annealing budget.
    pub searched: usize,
    pub sa_steps: u64,
    pub seed: u64,
}

impl DriveParams {
    pub fn from_inputs(inputs: &Inputs) -> Self {
        let nominal = DriveParams {
            ranks: 64,
            jobs: 1,
            cols: 32,
            height: 32,
            radius: 7,
            p_strong: 0.35,
            tasks_per_rank: 16,
            items_per_rank: 32,
            mode: GossipMode::RandomPush { fanout: 2 },
            wire: GossipWire::default(),
            rounds: 16,
            searched: 2,
            sa_steps: 20_000,
            seed: 0,
        };
        match inputs {
            Inputs::Erosion { cfgs, ulba, batched, .. } => {
                let cfg = &cfgs[ulba.start];
                DriveParams {
                    ranks: cfg.ranks,
                    jobs: if *batched { cfgs.len() } else { 1 },
                    cols: cfg.cols_per_pe,
                    height: cfg.height,
                    radius: cfg.rock_radius,
                    p_strong: cfg.p_strong,
                    items_per_rank: cfg.cols_per_pe,
                    mode: cfg.gossip,
                    wire: cfg.gossip_wire,
                    rounds: cfg.iterations.min(128),
                    seed: cfg.seed,
                    ..nominal
                }
            }
            Inputs::Scenario { cfgs } => DriveParams {
                ranks: cfgs[1].ranks,
                tasks_per_rank: cfgs[1].tasks_per_rank,
                items_per_rank: cfgs[1].tasks_per_rank,
                mode: cfgs[1].gossip,
                wire: cfgs[1].gossip_wire,
                rounds: cfgs[1].iterations.min(128),
                seed: cfgs[1].seed,
                ..nominal
            },
            Inputs::Model { heavy, sa, .. } => {
                DriveParams { searched: *heavy, sa_steps: sa.steps, seed: sa.seed, ..nominal }
            }
        }
    }

    /// Messages one rank pushes per gossip round.
    pub fn fanout(&self) -> usize {
        match self.mode {
            GossipMode::Ring => 1,
            GossipMode::RandomPush { fanout } => fanout,
            GossipMode::Hybrid { fanout } => fanout + 1,
        }
        .min(self.ranks.saturating_sub(1))
    }
}

type RankFuture = Pin<Box<dyn Future<Output = ()> + Send>>;
type Body = Box<dyn Fn(SpmdCtx) -> RankFuture>;

/// Run `jobs` concurrent jobs of `ranks` ranks on `server`, each with a
/// body from `make`; wall seconds until the last has been joined.
fn run_jobs(server: &JobServer, ranks: usize, jobs: usize, make: impl Fn() -> Body) -> f64 {
    let config = RunConfig::defaults(ranks).with_workers(server.workers());
    let started = Instant::now();
    let handles: Vec<_> = (0..jobs).map(|_| server.submit(config.clone(), make())).collect();
    for handle in handles {
        handle.join().unwrap_or_else(|err| panic!("drive job failed: {err}"));
    }
    started.elapsed().as_secs_f64()
}

/// Everything the SPMD drives share.
struct Spmd<'a> {
    server: &'a JobServer,
    ranks: usize,
    jobs: usize,
}

impl Spmd<'_> {
    /// Seconds per unit call of an SPMD micro-program: the jobs with
    /// `rounds` rounds minus the same jobs with none (spawn, per-rank
    /// set-up), over `jobs × ranks × rounds × calls_per_rank_round` calls.
    fn storm(
        &self,
        tr: &mut Tracer,
        metric: &str,
        rounds: u64,
        calls_per_rank_round: f64,
        body: impl Fn(u64) -> Body,
    ) -> f64 {
        let calls = (self.jobs * self.ranks) as f64 * rounds as f64 * calls_per_rank_round;
        let idle = run_jobs(self.server, self.ranks, self.jobs, || body(0));
        let (busy, _) = tr.scope(&format!("drive:{metric}"), calls as u64, |_| {
            run_jobs(self.server, self.ranks, self.jobs, || body(rounds))
        });
        if calls > 0.0 {
            (busy - idle).max(0.0) / calls
        } else {
            0.0
        }
    }
}

/// Rounds of a storm whose round costs `O(ranks)` in total.
fn light_rounds(ranks: usize) -> u64 {
    (65_536 / ranks.max(1)).clamp(4, 256) as u64
}

/// Rounds of a storm whose round costs `O(ranks²)` in total (every rank
/// copies or folds the whole collective result).
fn heavy_rounds(ranks: usize) -> u64 {
    ((1usize << 24) / (ranks * ranks).max(1)).clamp(2, 64) as u64
}

/// Time `calls` repetitions of `f` in one span; seconds per call.
fn repeat(tr: &mut Tracer, metric: &str, calls: u64, mut f: impl FnMut()) -> f64 {
    let ((), secs) = tr.scope(&format!("drive:{metric}"), calls, |_| {
        for _ in 0..calls {
            f();
        }
    });
    secs / calls as f64
}

/// Repetitions that make a call touching `items` items last ~10 ms.
fn reps_for(items: usize) -> u64 {
    (2_000_000 / items.max(1)).clamp(1, 100_000) as u64
}

fn runtime_drives(tr: &mut Tracer, dp: &DriveParams, spmd: &Spmd, out: &mut Values) {
    let (p, server) = (dp.ranks, spmd.server);

    // Spawn: empty jobs of P ranks (boxed futures, contexts, hub); the
    // median of three. Submit+join latency: a one-rank empty job.
    let empty = || -> Body { Box::new(|_ctx| Box::pin(async {})) };
    let mut spawns: Vec<f64> = Vec::new();
    tr.scope("drive:runtime.server.spawn_ns_per_rank", 3 * (dp.jobs * p) as u64, |_| {
        spawns.extend((0..3).map(|_| run_jobs(server, p, dp.jobs, empty)));
    });
    out.set(
        "runtime.server.spawn_ns_per_rank",
        crate::stats::median(&spawns) / (dp.jobs * p) as f64 * 1e9,
    );
    let mut joins: Vec<f64> = Vec::new();
    tr.scope("drive:runtime.server.submit_join_us", 50, |_| {
        joins.extend((0..50).map(|_| run_jobs(server, 1, 1, empty)));
    });
    out.set("runtime.server.submit_join_us", crate::stats::median(&joins) * 1e6);

    let barrier =
        spmd.storm(tr, "runtime.hub.barrier_ns_per_rank_round", light_rounds(p), 1.0, |r| {
            Box::new(move |mut ctx| {
                Box::pin(async move {
                    for _ in 0..r {
                        ctx.barrier().await;
                    }
                })
            })
        });
    out.set("runtime.hub.barrier_ns_per_rank_round", barrier * 1e9);

    let allgather =
        spmd.storm(tr, "runtime.hub.allgather_ns_per_rank_round", heavy_rounds(p), 1.0, |r| {
            Box::new(move |mut ctx| {
                Box::pin(async move {
                    for i in 0..r {
                        let all = ctx.allgather((i as f64, ctx.rank() as f64), 16).await;
                        black_box(all.len());
                    }
                })
            })
        });
    out.set("runtime.hub.allgather_ns_per_rank_round", allgather * 1e9);

    // As both apps do at every iteration end: max of one field, sum of the
    // other, over every rank's deposit.
    let fold =
        spmd.storm(tr, "runtime.hub.allgather_fold_ns_per_rank_round", heavy_rounds(p), 1.0, |r| {
            Box::new(move |mut ctx| {
                Box::pin(async move {
                    for i in 0..r {
                        let stats = ctx.allgather((i as f64, ctx.rank() as f64), 16).await;
                        let t_iter = stats.iter().map(|s| s.0).fold(0.0f64, f64::max);
                        let w_tot: f64 = stats.iter().map(|s| s.1).sum();
                        black_box((t_iter, w_tot));
                    }
                })
            })
        });
    out.set("runtime.hub.allgather_fold_ns_per_rank_round", fold * 1e9);

    let bcast = spmd.storm(tr, "runtime.hub.bcast_ns_per_rank_round", light_rounds(p), 1.0, |r| {
        Box::new(move |mut ctx| {
            Box::pin(async move {
                for i in 0..r {
                    let flag = (ctx.rank() == 0).then_some(i % 2 == 0);
                    black_box(ctx.broadcast(0, flag, 1).await);
                }
            })
        })
    });
    out.set("runtime.hub.bcast_ns_per_rank_round", bcast * 1e9);

    let gather =
        spmd.storm(tr, "runtime.hub.gather_ns_per_rank_round", light_rounds(p), 1.0, |r| {
            Box::new(move |mut ctx| {
                Box::pin(async move {
                    for _ in 0..r {
                        black_box(ctx.gather(0, ctx.rank() as f64, 8).await.map(|all| all.len()));
                    }
                })
            })
        });
    out.set("runtime.hub.gather_ns_per_rank_round", gather * 1e9);

    // Ring send → recv, one message per rank and round.
    let ring = if p > 1 { 1.0 } else { 0.0 };
    let p2p = spmd.storm(tr, "runtime.mailbox.p2p_ns_per_msg", light_rounds(p), ring, |r| {
        Box::new(move |mut ctx| {
            Box::pin(async move {
                let (rank, size) = (ctx.rank(), ctx.size());
                if size == 1 {
                    return;
                }
                for i in 0..r {
                    ctx.send((rank + 1) % size, 0x5032, i, 8);
                    black_box(ctx.recv::<u64>((rank + size - 1) % size, 0x5032).await);
                }
            })
        })
    });
    out.set("runtime.mailbox.p2p_ns_per_msg", p2p * 1e9);

    // The gossip pattern: push to two random peers, rendezvous, drain. The
    // barrier it needs is measured above and taken off.
    let fanout = 2.min(p.saturating_sub(1));
    let seed = dp.seed;
    let push = spmd.storm(
        tr,
        "runtime.mailbox.push_drain_ns_per_msg",
        light_rounds(p),
        fanout as f64,
        |r| {
            Box::new(move |mut ctx| {
                Box::pin(async move {
                    let (rank, size) = (ctx.rank(), ctx.size());
                    for i in 0..r {
                        for peer in
                            select_peers(GossipMode::RandomPush { fanout: 2 }, rank, size, i, seed)
                        {
                            ctx.send(peer, 0x5044, vec![i; 4], 32);
                        }
                        ctx.barrier().await;
                        black_box(ctx.drain::<Vec<u64>>(0x5044).len());
                    }
                })
            })
        },
    );
    let per_msg = if fanout > 0 { (push - barrier / fanout as f64).max(0.0) } else { 0.0 };
    out.set("runtime.mailbox.push_drain_ns_per_msg", per_msg * 1e9);
}

/// Replay the apps' gossip protocol on plain databases: every round each
/// rank refreshes its own entry, builds one payload per peer, and merges
/// what it received. Returns rank 0's final database.
fn gossip_drives(tr: &mut Tracer, dp: &DriveParams, out: &mut Values) -> WirDatabase {
    let p = dp.ranks;
    let mut dbs: Vec<WirDatabase> = (0..p).map(|_| WirDatabase::new(p)).collect();
    let mut outboxes = vec![GossipOutbox::new(); p];
    let (mut peer_secs, mut message_secs, mut merge_secs) = (0.0, 0.0, 0.0);
    let (mut peer_calls, mut messages, mut entries) = (0u64, 0u64, 0u64);
    tr.scope("drive:core.gossip.replay", dp.rounds * p as u64, |_| {
        for round in 0..dp.rounds {
            for (rank, db) in dbs.iter_mut().enumerate() {
                db.update(WirEntry {
                    rank,
                    wir: rank as f64 + 0.5 * round as f64,
                    iteration: round,
                });
            }
            let started = Instant::now();
            let peers: Vec<Vec<usize>> =
                (0..p).map(|rank| select_peers(dp.mode, rank, p, round, dp.seed)).collect();
            peer_secs += started.elapsed().as_secs_f64();
            peer_calls += p as u64;

            let started = Instant::now();
            let mut deliveries: Vec<(usize, Vec<WirEntry>)> = Vec::new();
            for (rank, peers) in peers.iter().enumerate() {
                for &peer in peers {
                    deliveries
                        .push((peer, outboxes[rank].message(&dbs[rank], peer, round, dp.wire)));
                }
            }
            message_secs += started.elapsed().as_secs_f64();
            messages += deliveries.len() as u64;
            entries += deliveries.iter().map(|(_, payload)| payload.len() as u64).sum::<u64>();

            let started = Instant::now();
            for (peer, payload) in &deliveries {
                dbs[*peer].merge(payload);
            }
            merge_secs += started.elapsed().as_secs_f64();
        }
    });
    let per = |secs: f64, calls: u64| if calls > 0 { secs / calls as f64 * 1e9 } else { 0.0 };
    out.set("core.gossip.select_peers_ns_per_call", per(peer_secs, peer_calls));
    out.set("core.gossip.message_ns_per_call", per(message_secs, messages));
    out.set("core.db.update_ns_per_entry", per(merge_secs, entries));
    out.set(
        "core.gossip.payload_entries_per_msg",
        if messages > 0 { entries as f64 / messages as f64 } else { 0.0 },
    );

    // `simulate_gossip` at the workload's P, mode and wire, capped at 24
    // rounds (a 4096-rank ring needs 4095); 0 = not complete by the cap.
    let (sim, secs) = tr.scope("drive:core.gossip.sim_round_us", 24, |_| {
        simulate_gossip(dp.mode, dp.wire, p, dp.seed, 24)
    });
    let rounds_run = sim.rounds.unwrap_or(24).max(1);
    out.set("core.gossip.sim_round_us", secs / rounds_run as f64 * 1e6);
    out.set("core.gossip.rounds_to_complete", sim.rounds.unwrap_or(0) as f64);
    dbs.swap_remove(0)
}

fn core_drives(tr: &mut Tracer, dp: &DriveParams, spmd: &Spmd, db: &WirDatabase, out: &mut Values) {
    let (p, items_per_rank) = (dp.ranks, dp.items_per_rank);
    let known = db.known_count().max(1);
    let reps = reps_for(known);
    let half = db.version() / 2;
    let secs = repeat(tr, "core.db.delta_since_ns_per_slot", reps, || {
        black_box(db.delta_since(black_box(half)).len());
    });
    out.set("core.db.delta_since_ns_per_slot", secs / known as f64 * 1e9);
    let secs = repeat(tr, "core.db.snapshot_ns_per_entry", reps, || {
        black_box(db.snapshot().len());
    });
    out.set("core.db.snapshot_ns_per_entry", secs / known as f64 * 1e9);

    let policy = LbPolicy::ulba_fixed(ULBA_ALPHA);
    let secs = repeat(tr, "core.policy.outlier_score_ns_per_entry", reps_for(p), || {
        black_box(outlier_score(&policy, db, black_box(0)));
    });
    out.set("core.policy.outlier_score_ns_per_entry", secs / p as f64 * 1e9);
    let secs = repeat(tr, "core.policy.overhead_estimate_us", reps_for(p), || {
        black_box(estimate_ulba_overhead(&policy, db, black_box(1.0e12), 1.0e9, p));
    });
    out.set("core.policy.overhead_estimate_us", secs * 1e6);

    // One rank in 64 overloading, as the erosion presets place strong rocks.
    let alphas: Vec<f64> = (0..p).map(|r| if r % 64 == 1 { ULBA_ALPHA } else { 0.0 }).collect();
    let secs = repeat(tr, "core.shares.compute_ns_per_rank", reps_for(p), || {
        black_box(compute_shares(black_box(&alphas)).overloading);
    });
    out.set("core.shares.compute_ns_per_rank", secs / p as f64 * 1e9);

    let items = p * items_per_rank;
    let weights: Vec<u64> = (0..items as u64).map(|i| 900 + (i * 2_654_435_761) % 200).collect();
    let shares = compute_shares(&alphas).shares;
    let secs = repeat(tr, "core.partition.by_shares_ns_per_item", reps_for(items), || {
        black_box(partition_by_shares(black_box(&weights), &shares).num_ranges());
    });
    out.set("core.partition.by_shares_ns_per_item", secs / items as f64 * 1e9);

    // The collective part of one LB step (Algorithm 2: two gathers, shares,
    // partition, broadcast) on the workload's server, every rank owning
    // `items_per_rank` items. Wall seconds per call.
    let rounds = 4;
    let per_rank_call = spmd.storm(tr, "core.balancer.rebalance_us_per_call", rounds, 1.0, |r| {
        Box::new(move |mut ctx| {
            Box::pin(async move {
                let rank = ctx.rank();
                let weights = vec![1000u64; items_per_rank];
                let alpha = if rank % 64 == 1 { ULBA_ALPHA } else { 0.0 };
                for _ in 0..r {
                    let outcome =
                        centralized_rebalance(&mut ctx, alpha, rank * items_per_rank, &weights)
                            .await;
                    black_box(outcome.partition.num_ranges());
                }
            })
        })
    });
    out.set("core.balancer.rebalance_us_per_call", per_rank_call * p as f64 * 1e6);
}

fn erosion_drives(tr: &mut Tracer, dp: &DriveParams, spmd: &Spmd, out: &mut Values) {
    let (cols, height, radius) = (dp.cols, dp.height, dp.radius);
    let geometry = Geometry::new(2, cols, height, radius);
    let (stripe, secs) = tr.scope("drive:erosion.stripe.init_us_per_col", cols as u64, |_| {
        Stripe::initial(&geometry, 0..cols)
    });
    out.set("erosion.stripe.init_us_per_col", secs / cols as f64 * 1e6);

    let reps = reps_for(cols);
    let secs = repeat(tr, "erosion.stripe.fluid_weight_ns_per_col", reps, || {
        black_box(black_box(&stripe).fluid_weight());
    });
    out.set("erosion.stripe.fluid_weight_ns_per_col", secs / cols as f64 * 1e9);
    let mut scratch = Vec::new();
    let secs = repeat(tr, "erosion.stripe.col_weights_ns_per_col", reps, || {
        black_box(&stripe).col_weights_into(&mut scratch);
        black_box(scratch.len());
    });
    out.set("erosion.stripe.col_weights_ns_per_col", secs / cols as f64 * 1e9);

    // Boundary refresh against a neighbour's column (its own first column
    // stands in for both halos).
    let mut eroding = stripe.clone();
    let halo = stripe.cols()[0].cells().to_vec();
    let secs = repeat(tr, "erosion.stripe.refresh_ns_per_call", reps_for(height), || {
        eroding.refresh_boundary_exposure(Some(black_box(&halo)), Some(&halo));
    });
    out.set("erosion.stripe.refresh_ns_per_call", secs * 1e9);

    // The erosion kernel on one strongly erodible stripe, no halos.
    let iterations = dp.rounds.clamp(1, 32);
    let (p_strong, seed) = (dp.p_strong, dp.seed);
    let (mut exposed, mut step_secs) = (0u64, 0.0);
    tr.scope("drive:erosion.erode.step_ns_per_exposed_cell", iterations, |_| {
        for iter in 0..iterations {
            exposed += eroding.exposed_count() as u64;
            let started = Instant::now();
            let delta = erosion_step(eroding.cols_mut(), 0, None, None, seed, iter, &|_| p_strong);
            step_secs += started.elapsed().as_secs_f64();
            black_box(delta);
        }
    });
    out.set("erosion.erode.step_ns_per_exposed_cell", step_secs / exposed.max(1) as f64 * 1e9);
    out.set("erosion.erode.exposed_cells_per_iter", exposed as f64 / iterations as f64);

    // Halo exchange: every rank owns two full-height columns of its own
    // stripe position (only the boundary columns travel).
    let p = dp.ranks;
    let halo = spmd.storm(tr, "erosion.stripe.halo_us_per_rank_iter", light_rounds(p), 1.0, |r| {
        let geometry = Geometry::new(p, cols, height, radius);
        Box::new(move |mut ctx| {
            let stripe = Stripe::initial(&geometry, ctx.rank() * cols..ctx.rank() * cols + 2);
            Box::pin(async move {
                let mut scratch = HaloScratch::new();
                for _ in 0..r {
                    let halos = exchange_halos_reusing(&mut ctx, &stripe, &mut scratch).await;
                    halos.recycle_into(&mut scratch);
                }
            })
        })
    });
    out.set("erosion.stripe.halo_us_per_rank_iter", halo * 1e6);

    // Migration: stripes of up to 64 columns shift by half a stripe and
    // back, so each round trip moves (P − 1) · width columns.
    let width = cols.min(64);
    let shift = width / 2;
    let narrow = Geometry::new(p, width, height, radius.min(width.saturating_sub(1) / 2));
    let even = Partition::from_bounds((0..=p).map(|r| r * width).collect(), p * width);
    let shifted = Partition::from_bounds(
        (0..=p).map(|r| if r == 0 || r == p { r * width } else { r * width + shift }).collect(),
        p * width,
    );
    let moved_per_round_trip = 2 * (p - 1) * shift;
    let round_trips = 2;
    let per_col = spmd.storm(
        tr,
        "erosion.stripe.migrate_us_per_col_moved",
        round_trips,
        moved_per_round_trip as f64 / p as f64,
        |r| {
            let (narrow, even, shifted) = (narrow.clone(), even.clone(), shifted.clone());
            Box::new(move |mut ctx| {
                let mut stripe =
                    Stripe::initial(&narrow, ctx.rank() * width..(ctx.rank() + 1) * width);
                let (even, shifted) = (even.clone(), shifted.clone());
                Box::pin(async move {
                    for _ in 0..r {
                        stripe = migrate(&mut ctx, stripe, &even, &shifted).await;
                        stripe = migrate(&mut ctx, stripe, &shifted, &even).await;
                    }
                    black_box(stripe.len());
                })
            })
        },
    );
    out.set("erosion.stripe.migrate_us_per_col_moved", per_col * 1e6);
}

fn scenario_drives(tr: &mut Tracer, dp: &DriveParams, out: &mut Values) {
    let (p, tpr) = (dp.ranks, dp.tasks_per_rank);
    let lambda = 4.0f64.min(p as f64);
    let (table, secs) = tr.scope("drive:scenario.generator.build_ms", 1, |_| {
        WorkTable::build(ScenarioKind::DriftingHotspot, p, 8, lambda, 1 << 16, dp.seed)
            .expect("the scenario presets are feasible")
    });
    out.set("scenario.generator.build_ms", secs * 1e3);
    out.set(
        "scenario.generator.lambda_error_frac",
        (table.lambda_achieved - table.lambda_target).abs() / table.lambda_target,
    );
    // A rank's range after a rebalance straddles two home regions.
    let start = (p / 2) * tpr + tpr / 2;
    let range = start.min(p * tpr - tpr)..(start + tpr).min(p * tpr);
    let secs = repeat(tr, "scenario.generator.range_units_ns_per_call", 100_000, || {
        black_box(table.range_units(3, black_box(&range), tpr));
    });
    out.set("scenario.generator.range_units_ns_per_call", secs * 1e9);
    let mut weights = Vec::new();
    let secs = repeat(tr, "scenario.generator.task_weights_ns_per_task", reps_for(tpr), || {
        table.task_weights_into(3, black_box(&range), tpr, &mut weights);
        black_box(weights.len());
    });
    out.set("scenario.generator.task_weights_ns_per_task", secs / range.len() as f64 * 1e9);
}

fn model_drives(tr: &mut Tracer, dp: &DriveParams, out: &mut Values) {
    let light = 1000usize;
    let (instances, secs) =
        tr.scope("drive:model.instance.sample_us_per_instance", light as u64, |_| {
            InstanceDistribution::default().sample_many(light, dp.seed)
        });
    out.set("model.instance.sample_us_per_instance", secs / light as f64 * 1e6);

    let ((), secs) =
        tr.scope("drive:model.schedule.sigma_plus_us_per_instance", light as u64, |_| {
            for inst in &instances {
                let schedule = sigma_plus_schedule(&inst.params, inst.alpha);
                black_box(total_time(&inst.params, &schedule, Method::Ulba { alpha: inst.alpha }));
            }
        });
    out.set("model.schedule.sigma_plus_us_per_instance", secs / light as f64 * 1e6);

    let searched = &instances[..dp.searched.clamp(1, light)];
    let (optimal, secs) =
        tr.scope("drive:model.search.dp_ms_per_instance", searched.len() as u64, |_| {
            searched
                .iter()
                .map(|inst| optimal_schedule(&inst.params, Method::Ulba { alpha: inst.alpha }).time)
                .collect::<Vec<f64>>()
        });
    out.set("model.search.dp_ms_per_instance", secs / searched.len() as f64 * 1e3);

    let (annealed, secs) =
        tr.scope("drive:model.search.anneal_ms_per_instance", searched.len() as u64, |_| {
            searched
                .iter()
                .enumerate()
                .map(|(i, inst)| {
                    let config = AnnealSearchConfig {
                        steps: dp.sa_steps,
                        seed: dp.seed.wrapping_add(i as u64),
                        ..AnnealSearchConfig::default()
                    };
                    anneal_schedule(&inst.params, Method::Ulba { alpha: inst.alpha }, config).time
                })
                .collect::<Vec<f64>>()
        });
    out.set("model.search.anneal_ms_per_instance", secs / searched.len() as f64 * 1e3);
    out.set("anneal.moves_per_s", dp.sa_steps as f64 * searched.len() as f64 / secs);

    // The accuracy side: how far the heuristics land from the exact optimum.
    let n = searched.len() as f64;
    let gap = |times: &mut dyn Iterator<Item = f64>| {
        times.zip(&optimal).map(|(t, opt)| (t - opt) / opt * 100.0).sum::<f64>() / n
    };
    out.set("model.search.sa_vs_opt_gap_pct", gap(&mut annealed.iter().copied()));
    out.set(
        "model.schedule.sigma_vs_opt_gap_pct",
        gap(&mut searched.iter().map(|inst| {
            let schedule = sigma_plus_schedule(&inst.params, inst.alpha);
            total_time(&inst.params, &schedule, Method::Ulba { alpha: inst.alpha })
        })),
    );
}

/// Run every layer drive, recording one `drive:*` span and one metric each.
pub fn run_all(tr: &mut Tracer, dp: &DriveParams, server: &JobServer, out: &mut Values) {
    let spmd = Spmd { server, ranks: dp.ranks, jobs: dp.jobs };
    runtime_drives(tr, dp, &spmd, out);
    let db = gossip_drives(tr, dp, out);
    core_drives(tr, dp, &spmd, &db, out);
    erosion_drives(tr, dp, &spmd, out);
    scenario_drives(tr, dp, out);
    model_drives(tr, dp, out);
}
