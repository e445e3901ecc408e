//! Concurrent-jobs equivalence suite for the shared [`JobServer`]: many
//! SPMD jobs on one worker pool must produce reports bit-identical to
//! running each job alone, and per-job failure isolation must hold — one
//! deadlocked job can neither poison another job's result nor take down
//! the pool.

use proptest::prelude::*;
use ulba_runtime::{run, Backend, JobServer, MachineSpec, RunConfig, RunError, RunReport, SpmdCtx};

/// A BSP round mixing compute, ring p2p, and collectives, parameterized so
/// different jobs run genuinely different programs.
async fn bsp_body(mut ctx: SpmdCtx, rounds: u64, salt: u64) {
    for round in 0..rounds {
        let weight = ((ctx.rank() as u64 * 7919 + salt * 131 + round) % 17 + 1) as f64;
        ctx.compute(1.0e6 * weight);
        let next = (ctx.rank() + 1) % ctx.size();
        let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(next, 7, ctx.rank() as u64 ^ salt, 16);
        let _: u64 = ctx.recv(prev, 7).await;
        let _ = ctx.allreduce_sum(weight).await;
        ctx.barrier().await;
        ctx.mark_iteration(round);
    }
}

/// The ground truth: the same program alone, on the lockstep scheduler.
fn serial_reference(ranks: usize, rounds: u64, salt: u64) -> RunReport {
    run(RunConfig::new(ranks).with_backend(Backend::Sequential), move |ctx| {
        bsp_body(ctx, rounds, salt)
    })
}

fn assert_reports_identical(pooled: &RunReport, serial: &RunReport) {
    assert_eq!(pooled.rank_metrics, serial.rank_metrics);
    assert_eq!(pooled.final_clocks, serial.final_clocks);
    assert_eq!(pooled.makespan().as_secs().to_bits(), serial.makespan().as_secs().to_bits());
    assert_eq!(pooled.iterations.len(), serial.iterations.len());
    for (a, b) in pooled.iterations.iter().zip(&serial.iterations) {
        assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits());
        assert_eq!(a.mean_utilization.to_bits(), b.mean_utilization.to_bits());
    }
}

/// The pool a job targets: its workers are the job's block count.
fn on(server: &JobServer, ranks: usize) -> RunConfig {
    RunConfig::new(ranks).with_server(server.clone())
}

#[test]
fn eight_concurrent_jobs_match_serial_runs() {
    let params: Vec<(usize, u64, u64)> =
        (0..8u64).map(|i| (2 + (i as usize % 4), 3 + i % 3, 0xC0FFEE + i)).collect();
    for workers in 1..=4 {
        let server = JobServer::new(workers);
        let handles: Vec<_> = params
            .iter()
            .map(|&(ranks, rounds, salt)| {
                server.submit(on(&server, ranks), move |ctx| bsp_body(ctx, rounds, salt))
            })
            .collect();
        // Job ids are process-unique even while all jobs are in flight.
        let mut ids: Vec<u64> = handles.iter().map(|h| h.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), handles.len(), "job ids must be unique");
        for (handle, &(ranks, rounds, salt)) in handles.into_iter().zip(&params) {
            let pooled = handle.join().expect("healthy job");
            assert_reports_identical(&pooled, &serial_reference(ranks, rounds, salt));
        }
    }
}

#[test]
fn deadlocked_jobs_fail_independently_without_cross_contamination() {
    let server = JobServer::new(2);
    // Job A: ranks 1 and 2 enter a barrier rank 0 never joins.
    let a = server.submit(RunConfig::new(3), |mut ctx| async move {
        if ctx.rank() != 0 {
            ctx.barrier().await;
        }
    });
    // Job B: ranks 0 and 1 wait for messages nobody sends.
    let b = server.submit(RunConfig::new(5), |mut ctx| async move {
        if ctx.rank() < 2 {
            let from = ctx.rank() + 1;
            let _: u64 = ctx.recv(from, 9).await;
        }
    });
    // Job C shares the pool and must be untouched by A's and B's demise.
    let c = server.submit(RunConfig::new(4), move |ctx| bsp_body(ctx, 4, 0xFEED));
    let (id_a, id_b) = (a.id(), b.id());
    assert_ne!(id_a, id_b);

    let err_a = a.join().expect_err("job A deadlocks");
    match &err_a {
        RunError::Deadlock { job, blocked, ranks, .. } => {
            assert_eq!(*job, id_a, "deadlock must be tagged with its own job id");
            assert_eq!(*ranks, 3);
            assert_eq!(blocked, &vec![1, 2]);
        }
        other => panic!("expected a deadlock, got {other}"),
    }
    assert!(
        err_a.to_string().contains(&format!("job #{id_a}")),
        "diagnostic must name the job: {err_a}"
    );

    let err_b = b.join().expect_err("job B deadlocks");
    match &err_b {
        RunError::Deadlock { job, blocked, ranks, .. } => {
            assert_eq!(*job, id_b);
            assert_eq!(*ranks, 5);
            assert_eq!(blocked, &vec![0, 1]);
        }
        other => panic!("expected a deadlock, got {other}"),
    }

    let pooled = c.join().expect("job C is healthy");
    assert_reports_identical(&pooled, &serial_reference(4, 4, 0xFEED));
}

/// FIFO admission starves nothing: a job submitted behind a backlog of
/// small ones, and joined first, completes, and so does the backlog.
#[test]
fn a_late_job_finishes_behind_a_backlog() {
    let server = JobServer::new(2);
    let backlog: Vec<_> =
        (0..6u64).map(|i| server.submit(on(&server, 2), move |ctx| bsp_body(ctx, 2, i))).collect();
    let late = server.submit(on(&server, 4), move |ctx| bsp_body(ctx, 3, 99));
    assert_reports_identical(&late.join().expect("late job"), &serial_reference(4, 3, 99));
    for (i, job) in backlog.into_iter().enumerate() {
        let pooled = job.join().expect("backlog job");
        assert_reports_identical(&pooled, &serial_reference(2, 2, i as u64));
    }
}

/// A job alone on its server is cut into one block per worker, fewer when
/// it has fewer ranks: a body that never waits costs one seeding enqueue
/// and one run per block, and one poll per rank.
#[test]
fn a_job_is_cut_into_one_block_per_worker_of_its_server() {
    for workers in [1usize, 3, 4] {
        for ranks in [2usize, 10] {
            let server = JobServer::new(workers);
            let job =
                server.submit(on(&server, ranks), |mut ctx| async move { ctx.compute(1.0e6) });
            let blocks = workers.min(ranks);
            assert_eq!(job.blocks(), blocks, "W={workers} P={ranks}");
            job.join().expect("completes");
            let blocks = blocks as u64;
            let stats = server.stats();
            let label = format!("W={workers} P={ranks}: {stats:?}");
            assert_eq!(
                (stats.enqueues, stats.block_runs, stats.parks),
                (blocks, blocks, 0),
                "{label}"
            );
            assert_eq!(stats.rank_polls, ranks as u64, "{label}");
        }
    }
}

/// A job's ranks stop counting against the pool's share once its outcome
/// is out — success, deadlock or panic alike — so a job submitted after
/// joining them finds the pool empty and gets one block per worker.
#[test]
fn a_finished_job_releases_its_share_on_every_outcome() {
    let server = JobServer::new(2);
    // A fresh 16-rank job's block count, joined before the next submission.
    let fresh = || {
        let job = server.submit(on(&server, 16), |ctx| bsp_body(ctx, 2, 0xD));
        let blocks = job.blocks();
        assert_reports_identical(&job.join().expect("healthy"), &serial_reference(16, 2, 0xD));
        blocks
    };
    let finished = server.submit(on(&server, 16), |ctx| bsp_body(ctx, 2, 0xA));
    finished.join().expect("completes");
    assert_eq!(fresh(), 2, "after a finished job");
    let deadlocked = server.submit(on(&server, 16), |mut ctx| async move {
        if ctx.rank() != 0 {
            ctx.barrier().await;
        }
    });
    assert!(matches!(deadlocked.join(), Err(RunError::Deadlock { .. })));
    assert_eq!(fresh(), 2, "after a deadlocked job");
    let panicking = server.submit(on(&server, 16), |ctx| async move {
        assert_ne!(ctx.rank(), 3, "rank 3 gives up");
    });
    let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| panicking.join()));
    assert!(joined.is_err(), "the rank panic resumes on the joining thread");
    assert_eq!(fresh(), 2, "after a panicking job");
}

#[test]
fn nested_submission_help_drives_instead_of_blocking_the_pool() {
    // One worker: if the outer rank blocked on the inner join instead of
    // helping, the pool would deadlock.
    let server = JobServer::new(1);
    let inner_server = server.clone();
    let outer = server.submit(RunConfig::new(1), move |mut ctx| {
        let server = inner_server.clone();
        async move {
            ctx.compute(1.0e6);
            let inner = server.submit(RunConfig::new(2), move |ctx| bsp_body(ctx, 2, 0xAB));
            let report = inner.join().expect("inner job");
            assert_reports_identical(&report, &serial_reference(2, 2, 0xAB));
            ctx.compute(1.0e6);
        }
    });
    outer.join().expect("outer job");
}

/// A round mixing every way a rank can park — ring p2p, barrier, a folded
/// allgather, a broadcast from a rotating root — valid from one rank up.
async fn block_body(mut ctx: SpmdCtx, rounds: u64) {
    let (rank, size) = (ctx.rank(), ctx.size());
    for round in 0..rounds {
        ctx.compute(1.0e6 * ((rank as u64 * 31 + round * 7) % 13 + 1) as f64);
        if size > 1 {
            ctx.send((rank + 1) % size, 3, rank as u64 + round, 24);
            let got: u64 = ctx.recv((rank + size - 1) % size, 3).await;
            ctx.compute(1.0e3 * (got % 5) as f64);
        }
        ctx.barrier().await;
        let mine = rank as u64 + round;
        let total = ctx.allgather_with(mine, 8, |values| values.iter().sum::<u64>()).await;
        let root = round as usize % size;
        let word = ctx.broadcast(root, (rank == root).then_some(total ^ round), 8).await;
        ctx.compute(1.0e3 * (word % 7) as f64);
        ctx.mark_iteration(round);
    }
}

/// The block protocol against the lockstep oracle, over every block shape
/// a pool cuts: one block, a ragged last block, one rank per block, and
/// the 64-block cap.
#[test]
fn every_block_shape_matches_the_sequential_oracle() {
    for ranks in [1usize, 2, 5, 17, 64, 257] {
        let oracle = run(RunConfig::defaults(ranks).with_backend(Backend::Sequential), |ctx| {
            block_body(ctx, 4)
        });
        for workers in [1, 2, 3, 5, ranks.min(64)] {
            let server = JobServer::new(workers);
            let config = RunConfig::defaults(ranks).with_server(server.clone());
            let pooled = server.submit(config, |ctx| block_body(ctx, 4)).join();
            let pooled = pooled.unwrap_or_else(|err| panic!("P={ranks} W={workers}: {err}"));
            assert_reports_identical(&pooled, &oracle);
        }
    }
}

/// A rank panics mid-round while every other rank of its block — and of
/// the job's other block — is parked at a barrier, with two healthy jobs
/// on the same pool: the bad handle re-raises that rank's payload, the
/// healthy jobs are untouched, and the pool takes new work afterwards.
#[test]
fn a_panic_among_parked_ranks_fails_only_its_own_job() {
    let server = JobServer::new(2);
    let healthy_a = server.submit(RunConfig::new(6), |ctx| bsp_body(ctx, 6, 0xA));
    // Blocks {0..4} and {4..8}. Ranks 5 and 6 wait for rank 0's word and
    // then panic; everyone else goes straight to the second barrier.
    let bad = server.submit(on(&server, 8), |mut ctx| async move {
        ctx.barrier().await;
        match ctx.rank() {
            0 => {
                ctx.send(5, 1, 7u64, 8);
                ctx.send(6, 1, 7u64, 8);
            }
            rank @ (5 | 6) => {
                let _: u64 = ctx.recv(0, 1).await;
                panic!("rank {rank} gives up");
            }
            _ => {}
        }
        ctx.barrier().await;
    });
    let healthy_b = server.submit(RunConfig::new(3), |ctx| bsp_body(ctx, 5, 0xB));

    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.join()))
        .expect_err("the rank panic resumes on the joining thread");
    // Rank 5 is polled before rank 6 in their block's pass, and its panic
    // cancels the job before rank 6 runs: the lowest rank's payload.
    assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("rank 5 gives up"));

    assert_reports_identical(
        &healthy_a.join().expect("healthy job A"),
        &serial_reference(6, 6, 0xA),
    );
    assert_reports_identical(
        &healthy_b.join().expect("healthy job B"),
        &serial_reference(3, 5, 0xB),
    );
    let fresh = server.submit(RunConfig::new(4), |ctx| bsp_body(ctx, 3, 0xC)).join();
    assert_reports_identical(&fresh.expect("the pool survives"), &serial_reference(4, 3, 0xC));
}

/// A deadlock confined to one block — rank 2 skips the barrier its block
/// mates enter — while the job's other block keeps waking that block
/// (rank 6 plays ping-pong with rank 2): the error names exactly the three
/// stuck ranks and their one shard.
#[test]
fn a_deadlock_inside_one_block_names_its_ranks_and_shard() {
    let server = JobServer::new(2);
    let handle = server.submit(on(&server, 8), |mut ctx| async move {
        match ctx.rank() {
            0 | 1 | 3 => ctx.barrier().await,
            2 => {
                for _ in 0..200 {
                    let ball: u64 = ctx.recv(6, 1).await;
                    ctx.send(6, 2, ball + 1, 8);
                }
            }
            6 => {
                for ball in 0..200u64 {
                    ctx.send(2, 1, ball, 8);
                    let _: u64 = ctx.recv(2, 2).await;
                }
            }
            _ => {}
        }
    });
    let id = handle.id();
    match handle.join().expect_err("ranks 0, 1 and 3 can never leave the barrier") {
        RunError::Deadlock { job, blocked, ranks, shards } => {
            assert_eq!((job, ranks), (id, 8));
            assert_eq!(blocked, vec![0, 1, 3]);
            assert_eq!(shards, vec![0]);
        }
        other => panic!("expected a deadlock, got {other}"),
    }
}

/// Two one-rank blocks on two workers bouncing a message 10 000 times:
/// nearly every wake finds its block still running (RUNNING → NOTIFIED) or
/// just parked, so a wake lost in either window would hang this test.
#[test]
fn ping_pong_across_a_block_boundary_keeps_every_wake() {
    const ROUNDS: u64 = 10_000;
    let body = |mut ctx: SpmdCtx| async move {
        let peer = 1 - ctx.rank();
        for round in 0..ROUNDS {
            if ctx.rank() == 0 {
                ctx.send(peer, 1, round, 8);
                assert_eq!(ctx.recv::<u64>(peer, 2).await, round + 1);
            } else {
                let ball: u64 = ctx.recv(peer, 1).await;
                ctx.send(peer, 2, ball + 1, 8);
            }
        }
    };
    let server = JobServer::new(2);
    let config = RunConfig::defaults(2).with_server(server.clone());
    let pooled = server.submit(config, body).join().expect("ping-pong finishes");
    let oracle = run(RunConfig::defaults(2).with_backend(Backend::Sequential), body);
    assert_reports_identical(&pooled, &oracle);
    // Each leg advances the receiver to the message's arrival: one message
    // time per leg, two legs per round, and rank 1 stops one injection
    // latency after its last arrival.
    let spec = MachineSpec::default();
    let leg = spec.p2p_secs(8);
    let expected = [2.0 * ROUNDS as f64 * leg, (2.0 * ROUNDS as f64 - 1.0) * leg + spec.latency];
    for (clock, expected) in pooled.final_clocks.iter().zip(expected) {
        assert!((clock.as_secs() - expected).abs() < 1e-9 * expected, "{clock:?} vs {expected}");
    }
}

/// The optimisation pinned by counts, not by a stopwatch: a rendezvous
/// costs queue operations per *block*, and polls per rank stay a small
/// constant. (Scheduling ranks one by one needs at least one enqueue per
/// rank per round: 51 200 here.)
#[test]
fn a_rendezvous_costs_queue_operations_per_block_not_per_rank() {
    const RANKS: usize = 1024;
    const ROUNDS: u64 = 50;
    let server = JobServer::new(2);
    let config = RunConfig::defaults(RANKS).with_server(server.clone());
    let job = server.submit(config, |mut ctx| async move {
        for _ in 0..ROUNDS {
            ctx.barrier().await;
        }
    });
    let blocks = job.blocks() as u64;
    assert_eq!(blocks, 2, "one block per worker for a job alone on its pool");
    job.join().expect("barriers complete");
    let stats = server.stats();
    assert!(stats.enqueues >= blocks && stats.enqueues <= 8 * blocks * ROUNDS, "{stats:?}");
    assert!(stats.rank_polls >= RANKS as u64, "{stats:?}");
    assert!(stats.rank_polls <= 6 * RANKS as u64 * ROUNDS, "{stats:?}");
    assert!(stats.block_runs <= stats.enqueues && stats.parks < stats.block_runs, "{stats:?}");
    assert!(stats.passes >= stats.block_runs && stats.steals <= stats.enqueues, "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random batches of jobs (random rank counts, program lengths, salts)
    /// on one shared pool of random size — the jobs' block count: every
    /// report is bit-identical to the job's serial reference run.
    #[test]
    fn concurrent_batches_match_serial(
        jobs in proptest::collection::vec((2usize..6, 1u64..5, 0u64..1000), 2..6),
        workers in 1usize..6,
    ) {
        let server = JobServer::new(workers);
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(ranks, rounds, salt)| {
                server.submit(on(&server, ranks), move |ctx| bsp_body(ctx, rounds, salt))
            })
            .collect();
        for (handle, &(ranks, rounds, salt)) in handles.into_iter().zip(&jobs) {
            let pooled = handle.join().expect("healthy job");
            assert_reports_identical(&pooled, &serial_reference(ranks, rounds, salt));
        }
    }
}
