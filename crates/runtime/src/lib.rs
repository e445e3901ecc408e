//! `ulba-runtime` — a virtual-time SPMD distributed-memory runtime.
//!
//! Boulmier et al. (CLUSTER 2019) evaluated ULBA with MPI on a physical
//! cluster. This crate is the substitute substrate: it runs an SPMD program
//! with real message passing between ranks and a **virtual clock** per rank
//! advanced by a machine cost model (compute = FLOPs/ω; communication =
//! Hockney `α + n·β` with log-tree collectives). Iteration wall time — the
//! input to every load-balancing decision in the paper — is the max of the
//! rank clocks at each synchronization point, exactly as on a
//! bulk-synchronous machine, but deterministic and independent of how many
//! physical cores run the simulation.
//!
//! # Execution
//!
//! Rank programs are `async`: operations that synchronize with other ranks
//! (`recv`, `barrier`, collectives) are await points at which the rank's
//! future suspends — nothing ever blocks a thread. [`submit`] is the one
//! launch path (a [`RunConfig`] + rank body in, a joinable [`JobHandle`]
//! out; [`run`] and [`try_run`] are `submit(..).join()`), and the
//! [`Backend`] only decides who polls the futures: a work-stealing
//! [`JobServer`] ([`Backend::Parallel`], the default — `P = 16384` runs
//! multi-core) or a single-threaded lockstep scheduler on the joining
//! thread ([`Backend::Sequential`], the deterministic oracle). See
//! [`engine`] for both and for the rule that picks one.
//!
//! One [`JobServer`] admits **many concurrent jobs**: each gets its own
//! hub/mailbox namespace and job id, admission is one FIFO run queue per
//! worker, and deadlock is judged per job by a live-block counter, so a stuck job is reported (tagged with its id)
//! while unrelated jobs keep running. Batch clients create one server,
//! [`JobServer::submit`] their whole sweep, and join the
//! [`JobHandle`]s.
//!
//! Collectives rendezvous at a **sharded** hub: ranks deposit into
//! `S` shards (one lock each; at most `min(workers of the pool, 64)`,
//! see [`JobHandle::blocks`]), one counter tells the last
//! shard to complete a round, which moves every deposit into one shared
//! vector in rank order, and one counter tells the last shard to drain it,
//! which reopens the hub. On a job server
//! the ranks of a shard are also the job's unit of scheduling — a
//! **block**, driven by one worker at a time — so a shard lock is
//! uncontended, a rendezvous costs queue operations per block rather than
//! per rank, and a rank's own path writes no cache line every worker
//! shares ([`JobServer::stats`] counts what the scheduler did).
//!
//! Both backends drive the same accounting, collective semantics, and
//! message matching, so they produce **bit-identical** [`RunReport`]s —
//! for either backend **and any pool size** — and both detect a
//! deadlocked program exactly, reporting it as [`RunError::Deadlock`] (or
//! a panic from [`run`]).
//!
//! # Example
//!
//! ```
//! use ulba_runtime::{run, RunConfig};
//!
//! let report = run(RunConfig::new(4), |mut ctx| async move {
//!     // Rank 0 works twice as long as the others...
//!     let flops = if ctx.rank() == 0 { 2.0e9 } else { 1.0e9 };
//!     ctx.compute(flops);
//!     ctx.barrier().await;
//!     ctx.mark_iteration(0);
//! });
//! // ...so the makespan is rank 0's compute time (plus the barrier).
//! assert!(report.makespan().as_secs() >= 2.0);
//! assert!(report.mean_utilization() < 0.8, "half the machine idled");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod ctx;
pub mod engine;
pub(crate) mod exec;
pub(crate) mod hub;
pub(crate) mod mailbox;
pub mod metrics;
pub mod time;

pub use cost::MachineSpec;
pub use ctx::SpmdCtx;
pub use engine::{run, submit, try_run, Backend, JobHandle, RunConfig, RunError, RunReport};
pub use exec::server::{JobServer, PoolStats};
pub use mailbox::Tag;
pub use metrics::{IterationStats, RankMetrics, TimeKind};
pub use time::VirtualTime;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_compute_only() {
        let report = run(RunConfig::new(1), |mut ctx| async move {
            ctx.compute(3.0e9); // 3 GFLOP at 1 GFLOPS
        });
        assert!((report.makespan().as_secs() - 3.0).abs() < 1e-9);
        assert_eq!(report.rank_metrics[0].busy, 3.0);
    }

    #[test]
    fn makespan_is_max_rank_clock() {
        let report = run(RunConfig::new(8), |mut ctx| async move {
            ctx.compute(1.0e9 * (ctx.rank() as f64 + 1.0));
        });
        assert!((report.makespan().as_secs() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn barrier_syncs_clocks_and_books_idle() {
        let report = run(RunConfig::new(4), |mut ctx| async move {
            ctx.compute(if ctx.rank() == 3 { 4.0e9 } else { 1.0e9 });
            ctx.barrier().await;
        });
        // All final clocks equal (max + barrier cost).
        let c0 = report.final_clocks[0];
        for c in &report.final_clocks {
            assert!((c.as_secs() - c0.as_secs()).abs() < 1e-12);
        }
        // Ranks 0..3 waited ~3 s each.
        for r in 0..3 {
            assert!((report.rank_metrics[r].idle - 3.0).abs() < 1e-6, "rank {r}");
        }
        assert!(report.rank_metrics[3].idle < 1e-9);
    }

    #[test]
    fn p2p_roundtrip_and_arrival_times() {
        let report = run(RunConfig::new(2), |mut ctx| async move {
            if ctx.rank() == 0 {
                ctx.compute(1.0e9);
                ctx.send(1, 7, 0xDEADu32, 1024);
            } else {
                let v: u32 = ctx.recv(0, 7).await;
                assert_eq!(v, 0xDEAD);
                // Receiver idled until the message arrived (~1 s + net).
                assert!(ctx.now().as_secs() >= 1.0);
            }
        });
        assert!(report.rank_metrics[1].idle > 0.9);
    }

    #[test]
    fn allreduce_sum_and_max() {
        run(RunConfig::new(16), |mut ctx| async move {
            let sum = ctx.allreduce_sum(ctx.rank() as f64).await;
            assert_eq!(sum, (0..16).sum::<usize>() as f64);
            let max = ctx.allreduce_max(ctx.rank() as f64).await;
            assert_eq!(max, 15.0);
        });
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        run(RunConfig::new(5), |mut ctx| async move {
            let v = ctx.broadcast(3, (ctx.rank() == 3).then_some(vec![1u8, 2, 3]), 3).await;
            assert_eq!(v, vec![1, 2, 3]);
        });
    }

    #[test]
    fn gather_only_root_receives() {
        run(RunConfig::new(6), |mut ctx| async move {
            let g = ctx.gather(2, ctx.rank() * 2, 8).await;
            if ctx.rank() == 2 {
                assert_eq!(g.unwrap(), vec![0, 2, 4, 6, 8, 10]);
            } else {
                assert!(g.is_none());
            }
        });
    }

    #[test]
    fn allgather_is_rank_indexed() {
        run(RunConfig::new(7), |mut ctx| async move {
            let all = ctx.allgather(ctx.rank() as u64 * 3, 8).await;
            assert_eq!(all, (0..7).map(|r| r * 3).collect::<Vec<u64>>());
        });
    }

    #[test]
    fn drain_after_barrier_is_deterministic() {
        run(RunConfig::new(6), |mut ctx| async move {
            // Everyone sends to rank 0.
            if ctx.rank() != 0 {
                ctx.send(0, 1, ctx.rank(), 8);
            }
            ctx.barrier().await;
            if ctx.rank() == 0 {
                let msgs: Vec<(usize, usize)> = ctx.drain(1);
                let from: Vec<usize> = msgs.iter().map(|(f, _)| *f).collect();
                assert_eq!(from, vec![1, 2, 3, 4, 5], "drain must be (from, seq)-sorted");
            }
            ctx.barrier().await;
        });
    }

    #[test]
    fn iteration_stats_reflect_imbalance() {
        let report = run(RunConfig::new(4), |mut ctx| async move {
            for iter in 0..3u64 {
                // Iteration 1 is imbalanced: rank 0 does 4x work.
                let flops = if iter == 1 && ctx.rank() == 0 { 4.0e9 } else { 1.0e9 };
                ctx.compute(flops);
                ctx.barrier().await;
                ctx.mark_iteration(iter);
            }
        });
        assert_eq!(report.iterations.len(), 3);
        let u0 = report.iterations[0].mean_utilization;
        let u1 = report.iterations[1].mean_utilization;
        let u2 = report.iterations[2].mean_utilization;
        assert!(u1 < u0, "imbalanced iteration must show lower utilization");
        assert!(u1 < u2);
        // Balanced iterations near 100 %.
        assert!(u0 > 0.95 && u2 > 0.95);
    }

    /// The runtime keeps no LB log: which iterations did LB work is read
    /// from the time booked inside LB sections, by any rank.
    #[test]
    fn lb_sections_mark_their_iterations_active() {
        let report = run(RunConfig::new(3), |mut ctx| async move {
            for iter in 0..4u64 {
                ctx.compute(1.0e9);
                if iter == 2 && ctx.rank() == 1 {
                    ctx.begin_lb();
                    ctx.compute(1.0e8);
                    ctx.end_lb();
                }
                ctx.barrier().await;
                ctx.mark_iteration(iter);
            }
        });
        let active: Vec<bool> = report.iterations.iter().map(|s| s.lb_active).collect();
        assert_eq!(active, [false, false, true, false]);
        assert!(report.rank_metrics[1].lb > 0.0 && report.rank_metrics[0].lb == 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let go = || {
            run(RunConfig::new(12), |mut ctx| async move {
                for iter in 0..5u64 {
                    ctx.compute(1.0e8 * ((ctx.rank() + 1) as f64));
                    let next = (ctx.rank() + 1) % ctx.size();
                    let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
                    ctx.send(next, 2, ctx.rank() as u32, 64);
                    let _: u32 = ctx.recv(prev, 2).await;
                    ctx.barrier().await;
                    ctx.mark_iteration(iter);
                }
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.makespan().as_secs(), b.makespan().as_secs());
        for (x, y) in a.rank_metrics.iter().zip(&b.rank_metrics) {
            assert_eq!(x, y);
        }
        for (x, y) in a.iterations.iter().zip(&b.iterations) {
            assert_eq!(x.wall_time, y.wall_time);
            assert_eq!(x.mean_utilization, y.mean_utilization);
        }
    }

    #[test]
    fn many_ranks_smoke() {
        // 128 ranks on the default pool: correctness, not speed.
        let report = run(RunConfig::new(128), |mut ctx| async move {
            let sum = ctx.allreduce_sum(1.0).await;
            assert_eq!(sum, 128.0);
            ctx.compute(1.0e6);
            ctx.barrier().await;
        });
        assert_eq!(report.rank_metrics.len(), 128);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates() {
        run(RunConfig::new(2), |ctx| async move {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 performs no blocking ops here, so it cannot deadlock.
        });
    }

    // --- backend-specific behaviour ------------------------------------

    /// A BSP body exercising compute, p2p, collectives, LB sections, and
    /// iteration marks — the full ctx surface.
    async fn mixed_body(mut ctx: SpmdCtx) {
        for iter in 0..6u64 {
            ctx.compute(1.0e8 * ((ctx.rank() % 5 + 1) as f64));
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(next, 3, (ctx.rank(), iter), 16);
            let (from, i) = ctx.recv::<(usize, u64)>(prev, 3).await;
            assert_eq!((from, i), (prev, iter));
            let total = ctx.allreduce_sum(ctx.rank() as f64).await;
            assert_eq!(total, (0..ctx.size()).sum::<usize>() as f64);
            if iter == 3 {
                ctx.begin_lb();
                ctx.compute(5.0e7);
                let _ = ctx.allgather(ctx.rank(), 8).await;
                ctx.end_lb();
            }
            ctx.barrier().await;
            ctx.mark_iteration(iter);
        }
    }

    #[test]
    fn backends_produce_bit_identical_reports() {
        let reference = run(RunConfig::new(9).with_backend(Backend::Sequential), mixed_body);
        for backend in [Backend::Sequential, Backend::Parallel] {
            // Three blocks on the pool; the lockstep scheduler ignores it.
            let other = run(RunConfig::new(9).with_backend(backend).with_workers(3), mixed_body);
            assert_eq!(
                reference.makespan().as_secs().to_bits(),
                other.makespan().as_secs().to_bits(),
                "{backend} makespan"
            );
            assert_eq!(reference.rank_metrics, other.rank_metrics, "{backend}");
            assert_eq!(reference.final_clocks, other.final_clocks, "{backend}");
            assert_eq!(reference.iterations.len(), other.iterations.len(), "{backend}");
            for (a, b) in reference.iterations.iter().zip(&other.iterations) {
                assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits());
                assert_eq!(a.mean_utilization.to_bits(), b.mean_utilization.to_bits());
                assert_eq!(a.lb_active, b.lb_active);
            }
        }
    }

    #[test]
    fn sequential_scales_to_16384_ranks() {
        // No threads are spawned at all.
        let p = 16384usize;
        let report =
            run(RunConfig::new(p).with_backend(Backend::Sequential), |mut ctx| async move {
                ctx.compute(1.0e6 * ((ctx.rank() % 3 + 1) as f64));
                ctx.barrier().await;
                ctx.mark_iteration(0);
            });
        assert_eq!(report.rank_metrics.len(), p);
        assert_eq!(report.iterations.len(), 1);
        assert!((report.makespan().as_secs() - 3.0e-3).abs() < 1e-3);
    }

    #[test]
    fn sequential_collectives_at_4096_ranks() {
        let p = 4096usize;
        run(RunConfig::new(p).with_backend(Backend::Sequential), move |mut ctx| async move {
            let sum = ctx.allreduce_sum(1.0).await;
            assert_eq!(sum, p as f64);
            let here = ctx.allgather(ctx.rank() as u32, 4).await;
            assert_eq!(here[ctx.rank()], ctx.rank() as u32);
        });
    }

    #[test]
    #[should_panic(expected = "permanently blocked")]
    fn sequential_detects_deadlock() {
        run(RunConfig::new(2).with_backend(Backend::Sequential), |mut ctx| async move {
            if ctx.rank() == 0 {
                // Waits for a message nobody ever sends.
                let _: u8 = ctx.recv(1, 42).await;
            }
        });
    }

    /// The satellite regression: a mismatched collective (one rank never
    /// joins the barrier) must surface as a structured
    /// [`RunError::Deadlock`] through [`try_run`] naming the stuck ranks —
    /// on both backends, which share one reporting path, and for every
    /// pool size, which is the job's block (= hub shard) count (the blocked
    /// set must not depend on how the rendezvous is sharded).
    #[test]
    fn try_run_reports_deadlock_on_mismatched_collective() {
        for backend in [Backend::Sequential, Backend::Parallel] {
            for workers in [1usize, 2, 4] {
                let config = RunConfig::new(4).with_backend(backend).with_workers(workers);
                let job = submit(config, |mut ctx| async move {
                    if ctx.rank() != 0 {
                        // Rank 0 never joins: the barrier can never complete.
                        ctx.barrier().await;
                    }
                });
                let hub_shards = job.blocks();
                let result = job.join();
                match result {
                    Err(RunError::Deadlock { job, blocked, ranks, shards }) => {
                        assert!(job > 0, "{backend} S={hub_shards}: jobs start at id 1");
                        assert_eq!(ranks, 4, "{backend} S={hub_shards}");
                        assert_eq!(blocked, vec![1, 2, 3], "{backend} S={hub_shards}");
                        // Ranks 1–3 span ceil(3 / width) shards of width
                        // ceil(4 / S): all of them except rank 0's when
                        // the shards are single-rank.
                        let width = 4usize.div_ceil(hub_shards);
                        let expect: Vec<usize> = {
                            let mut s: Vec<usize> = [1, 2, 3].iter().map(|r| r / width).collect();
                            s.dedup();
                            s
                        };
                        assert_eq!(shards, expect, "{backend} S={hub_shards}");
                    }
                    other => panic!("{backend} S={hub_shards}: expected a deadlock, got {other:?}"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "permanently blocked")]
    fn parallel_detects_deadlock() {
        run(
            RunConfig::new(2).with_backend(Backend::Parallel).with_workers(2),
            |mut ctx| async move {
                if ctx.rank() == 0 {
                    let _: u8 = ctx.recv(1, 42).await;
                }
            },
        );
    }

    #[test]
    fn parallel_scales_to_many_ranks_and_workers() {
        // Many more ranks than workers (explicit count: the test machine may
        // have one core).
        let p = 4096usize;
        let report = run(
            RunConfig::new(p).with_backend(Backend::Parallel).with_workers(4),
            move |mut ctx| async move {
                let sum = ctx.allreduce_sum(1.0).await;
                assert_eq!(sum, p as f64);
                ctx.compute(1.0e6 * ((ctx.rank() % 3 + 1) as f64));
                let next = (ctx.rank() + 1) % ctx.size();
                let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
                ctx.send(next, 9, ctx.rank() as u32, 16);
                let got: u32 = ctx.recv(prev, 9).await;
                assert_eq!(got as usize, prev);
                ctx.barrier().await;
                ctx.mark_iteration(0);
            },
        );
        assert_eq!(report.rank_metrics.len(), p);
        assert_eq!(report.iterations.len(), 1);
    }

    #[test]
    #[should_panic(expected = "pool boom")]
    fn parallel_rank_panic_propagates() {
        run(RunConfig::new(8).with_backend(Backend::Parallel).with_workers(2), |ctx| {
            async move {
                if ctx.rank() == 5 {
                    panic!("pool boom");
                }
                // Other ranks perform no blocking ops, so they finish.
            }
        });
    }

    #[test]
    fn default_backend_is_the_pool_and_detects_deadlock() {
        assert_eq!(RunConfig::defaults(4).backend, Backend::Parallel);
        // One rank skips the barrier: the default engine reports it.
        let result = try_run(RunConfig::defaults(2), |mut ctx| async move {
            if ctx.rank() == 0 {
                ctx.barrier().await;
            }
        });
        assert!(matches!(result, Err(RunError::Deadlock { ranks: 2, .. })), "got {result:?}");
    }

    #[test]
    fn resolve_lets_an_explicit_backend_win_then_a_server_then_the_default() {
        let pool = JobServer::new(1);
        let resolve = |backend, server: bool| {
            let config = RunConfig::resolve(4, backend, None, server.then(|| pool.clone()))
                .expect("a valid placement");
            (config.backend, config.server.is_some())
        };
        assert_eq!(resolve(Some(Backend::Sequential), true), (Backend::Sequential, true));
        assert_eq!(resolve(Some(Backend::Parallel), false), (Backend::Parallel, false));
        assert_eq!(resolve(None, true), (Backend::Parallel, true), "a server target is that pool");
        assert_eq!(resolve(None, false).0, RunConfig::new(4).backend, "else ULBA_BACKEND/parallel");
        assert_eq!(RunConfig::resolve(8, None, Some(3), None).map(|c| c.workers), Ok(3));
        assert_eq!(RunConfig::resolve(8, None, None, None).map(|c| c.workers), Ok(0), "global");
        let error = |ranks, workers| RunConfig::resolve(ranks, None, workers, None).err();
        assert!(error(0, None).is_some_and(|err| err.contains("rank")), "no ranks");
        assert!(error(8, Some(0)).is_some_and(|err| err.contains("workers")), "no workers");
    }

    #[test]
    fn submitted_handles_report_who_drives_them() {
        let body = |mut ctx: SpmdCtx| async move { ctx.barrier().await };
        let sequential = submit(RunConfig::new(3).with_backend(Backend::Sequential), body);
        assert_eq!(sequential.backend(), Backend::Sequential);
        assert!(!sequential.is_done(), "a sequential job runs inside join");
        let pooled = submit(RunConfig::new(3).with_backend(Backend::Parallel), body);
        assert_eq!(pooled.backend(), Backend::Parallel);
        assert!(pooled.id() > sequential.id(), "every run of either backend draws a job id");
        let (a, b) = (sequential.join().expect("completes"), pooled.join().expect("completes"));
        assert_eq!(a.final_clocks, b.final_clocks);
    }

    /// The blocks (= hub shards) a barrier job of `config` was admitted
    /// with.
    fn blocks(config: RunConfig) -> usize {
        let job = submit(config, |mut ctx| async move { ctx.barrier().await });
        let blocks = job.blocks();
        job.join().expect("completes");
        blocks
    }

    #[test]
    fn hub_shard_resolution() {
        // The sequential scheduler keeps one shard; a job alone on a
        // private pool gets one per worker, never more than its ranks (the
        // cap at 64 is `exec::server`'s `blocks_cap_at_64`).
        assert_eq!(blocks(RunConfig::new(16).with_backend(Backend::Sequential)), 1);
        let par = RunConfig::new(512).with_backend(Backend::Parallel).with_workers(3);
        assert_eq!(blocks(par), 3);
        let tiny = RunConfig::new(2).with_backend(Backend::Parallel).with_workers(200);
        assert_eq!(blocks(tiny), 2, "a private pool never outnumbers its ranks");
    }

    /// The shard (= block) count follows the pool the job runs on, not the
    /// machine or a `workers` wish that pool ignores: it used to read 2 on
    /// a two-core box for a 1-, 3- and 8-worker server alike.
    #[test]
    fn hub_shards_follow_the_targeted_server() {
        for workers in [1usize, 3, 8] {
            let server = JobServer::new(workers);
            let config = RunConfig::defaults(64).with_workers(5).with_server(server.clone());
            assert_eq!(blocks(config.clone()), workers, "W = {workers}");
            let few_ranks = RunConfig::defaults(2).with_server(server.clone());
            assert_eq!(blocks(few_ranks), workers.min(2), "clamped to the ranks");
            let sequential = config.with_backend(Backend::Sequential);
            assert_eq!(blocks(sequential), 1, "the lockstep scheduler has no pool");
        }
    }

    #[test]
    fn backend_parsing() {
        assert_eq!("sequential".parse(), Ok(Backend::Sequential));
        assert_eq!("SEQ".parse(), Ok(Backend::Sequential));
        assert_eq!("parallel".parse(), Ok(Backend::Parallel));
        assert_eq!("Pool".parse(), Ok(Backend::Parallel));
        assert_eq!("fibers".parse::<Backend>(), Err(()));
        assert_eq!("threaded".parse::<Backend>(), Err(()), "no longer a backend");
        assert_eq!(Backend::Sequential.to_string(), "sequential");
        assert_eq!(Backend::Parallel.to_string(), "parallel");
    }
}
