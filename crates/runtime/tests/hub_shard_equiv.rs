//! Shard-count equivalence of the sharded rendezvous hub.
//!
//! A job alone on a pool of `W` workers is cut into `S = min(W, 64)`
//! blocks, one per shard of its hub (the sequential scheduler keeps
//! `S = 1`). The count is pure contention: for **any** pool — one worker (the old
//! single-mutex hub), even, ragged (`S` not dividing `P`, so the last
//! shard holds fewer ranks), or one rank per shard — a program's
//! [`RunReport`] must be bit-identical to the sequential oracle's. These
//! tests are the proof the sharded hub ships with: randomized programs and
//! topologies across the pool-size sweep, plus deadlock reporting when the
//! stuck ranks span several shards. (`hub.rs`'s unit tests sweep `S`
//! beyond the 64-block cap, single-threaded.)

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use ulba_runtime::{run, try_run, Backend, RunConfig, RunError, RunReport, SpmdCtx};

/// Pool sizes (= shard counts) every equivalence case sweeps: degenerate,
/// small, a prime that leaves the last shard ragged for most `P`, and one
/// rank per shard up to the 64-block cap.
fn shard_sweep(ranks: usize) -> Vec<usize> {
    let mut sweep = vec![1usize, 2, 7, ranks.min(64)];
    sweep.dedup();
    sweep
}

/// A BSP program exercising the full ctx surface: rank-skewed compute,
/// ring p2p, two collectives per round, and an LB section on one round —
/// every hub generation runs deposit → complete → assemble → drain.
async fn mixed_body(mut ctx: SpmdCtx, rounds: u64, flops_scale: f64) {
    for iter in 0..rounds {
        ctx.compute(flops_scale * ((ctx.rank() % 5 + 1) as f64));
        let next = (ctx.rank() + 1) % ctx.size();
        let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(next, 11, (ctx.rank(), iter), 24);
        let (from, i) = ctx.recv::<(usize, u64)>(prev, 11).await;
        assert_eq!((from, i), (prev, iter));
        let total = ctx.allreduce_sum(ctx.rank() as f64 + iter as f64).await;
        assert!(total.is_finite());
        let gathered = ctx.allgather(ctx.rank() as u32, 4).await;
        assert_eq!(gathered[ctx.rank()], ctx.rank() as u32);
        if iter == 1 {
            ctx.begin_lb();
            ctx.compute(flops_scale * 0.5);
            let _ = ctx.allgather(ctx.rank(), 8).await;
            ctx.end_lb();
        }
        ctx.barrier().await;
        ctx.mark_iteration(iter);
    }
}

/// The sequential oracle's config, or a private pool of `workers` (= the
/// job's shard count).
fn config_for(ranks: usize, backend: Backend, workers: usize) -> RunConfig {
    RunConfig::new(ranks).with_backend(backend).with_workers(workers)
}

fn report_for(
    ranks: usize,
    backend: Backend,
    workers: usize,
    rounds: u64,
    flops_scale: f64,
) -> RunReport {
    run(config_for(ranks, backend, workers), move |ctx| mixed_body(ctx, rounds, flops_scale))
}

/// Bit-level comparison of two [`RunReport`]s.
fn assert_reports_identical(reference: &RunReport, other: &RunReport, label: &str) {
    assert_eq!(
        reference.makespan().as_secs().to_bits(),
        other.makespan().as_secs().to_bits(),
        "{label}: makespan"
    );
    assert_eq!(reference.rank_metrics, other.rank_metrics, "{label}: rank metrics");
    assert_eq!(reference.final_clocks, other.final_clocks, "{label}: final clocks");
    assert_eq!(reference.iterations.len(), other.iterations.len(), "{label}: iteration count");
    for (a, b) in reference.iterations.iter().zip(&other.iterations) {
        assert_eq!(a.iter, b.iter, "{label}");
        assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits(), "{label}: iter {}", a.iter);
        assert_eq!(a.mean_utilization.to_bits(), b.mean_utilization.to_bits(), "{label}");
        assert_eq!(a.lb_active, b.lb_active, "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized (P, pool size, program): the single-shard sequential
    /// report is the reference; a pool of every size of the sweep must
    /// reproduce it bit-identically. `ranks` is drawn from a range full of
    /// non-powers-of-two, so the `W = 7` leg regularly leaves a ragged
    /// last shard.
    #[test]
    fn reports_identical_across_shards_and_backends(
        ranks in 2usize..20,
        workers in 1usize..5,
        rounds in 1u64..5,
        flops_scale in 1.0e5f64..1.0e8,
        extra_shards in 1usize..32,
    ) {
        let reference = report_for(ranks, Backend::Sequential, workers, rounds, flops_scale);
        let mut sweep = shard_sweep(ranks);
        sweep.push(workers);
        sweep.push(extra_shards); // an arbitrary pool on top of the fixed sweep
        for &shards in &sweep {
            let other = report_for(ranks, Backend::Parallel, shards, rounds, flops_scale);
            assert_reports_identical(&reference, &other, &format!("P={ranks} W={shards}"));
        }
    }
}

/// Payload correctness: every collective's *contents* (not just the
/// report's timing) checked against the exact expected value, on every
/// rank, every round. With `S = 1` one shard holds every deposit, while
/// `S > 1` assembles the round from several shards' slots; running the
/// same program across the sweep proves the assembly is bit-identical for
/// every pool size. Repeating for several rounds, with a different payload
/// type per collective, makes a deposit slot left over from an earlier
/// round fail the exact equality immediately.
async fn payload_body(mut ctx: SpmdCtx, rounds: u64) {
    let (rank, size) = (ctx.rank(), ctx.size());
    for iter in 0..rounds {
        // allgather: the exact rank-indexed vector (catches assembly
        // order and stale slots).
        let gathered = ctx.allgather((rank as u64) << 32 | iter, 8).await;
        let expect: Vec<u64> = (0..size).map(|r| (r as u64) << 32 | iter).collect();
        assert_eq!(gathered, expect, "allgather payload, iter {iter}");
        // allreduce: the fold must walk ranks in order across shard
        // boundaries — compare bit patterns of the same-order fold.
        let total = ctx.allreduce_sum(1.0 / (rank as f64 + 3.0 + iter as f64)).await;
        let mut reference = 1.0 / (3.0 + iter as f64);
        for r in 1..size {
            reference += 1.0 / (r as f64 + 3.0 + iter as f64);
        }
        assert_eq!(total.to_bits(), reference.to_bits(), "allreduce fold order, iter {iter}");
        // broadcast / gather from a rotating root: indexing
        // into one shard's part of the round, with a different payload
        // type per collective so the deposit slots change type from one
        // round to the next.
        let root = (iter as usize + 1) % size;
        let word = ctx.broadcast(root, (rank == root).then(|| iter * 7 + 1), 8).await;
        assert_eq!(word, iter * 7 + 1, "broadcast payload, iter {iter}");
        let gathered = ctx.gather(root, (rank as u32, iter as u32), 8).await;
        assert_eq!(gathered.is_some(), rank == root);
        if let Some(values) = gathered {
            let expect: Vec<(u32, u32)> = (0..size as u32).map(|r| (r, iter as u32)).collect();
            assert_eq!(values, expect, "gather payload, iter {iter}");
        }
        ctx.barrier().await;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized exact payloads for every pool size: `ranks` drawn
    /// from a non-power-of-two-rich range (the `W = 7` leg regularly
    /// leaves a ragged last shard), the sequential oracle and pools of
    /// every size of the sweep. The body asserts exact payloads
    /// internally; any failure panics the run.
    #[test]
    fn collective_payloads_are_exact_for_every_pool_size(
        ranks in 2usize..24,
        workers in 1usize..4,
        rounds in 2u64..5,
        extra_shards in 1usize..32,
    ) {
        run(config_for(ranks, Backend::Sequential, 1), move |ctx| payload_body(ctx, rounds));
        let mut sweep = shard_sweep(ranks);
        sweep.push(workers);
        sweep.push(extra_shards);
        for &shards in &sweep {
            let config = config_for(ranks, Backend::Parallel, shards);
            run(config, move |ctx| payload_body(ctx, rounds));
        }
    }
}

/// Rank-order-sensitive folds: a polynomial hash (any permutation of the
/// ranks changes it) and an `f64` sum over magnitudes 1e-8 … 1e16 (any
/// re-association changes its low bits).
fn poly_hash<'a>(values: impl Iterator<Item = &'a u64>) -> u64 {
    values.fold(0u64, |acc, &v| acc.wrapping_mul(31).wrapping_add(v))
}

/// `(rank, name)` of the last rank holding a longest name: a heap-owning
/// result, so the cached `R` is really cloned out to every rank.
fn longest<'a>(names: impl Iterator<Item = &'a String>) -> (usize, String) {
    names.enumerate().fold((0, String::new()), |best, (rank, name)| {
        if name.len() >= best.1.len() {
            (rank, name.clone())
        } else {
            best
        }
    })
}

/// What one rank computed in one round of [`fold_body`].
type Folded = (usize, u64, u64, u64, (usize, String));

fn mixed_magnitude(rank: usize, iter: u64) -> f64 {
    10f64.powi((rank as i32 * 7 + iter as i32 * 3) % 25 - 8) + rank as f64
}

/// Three reductions per round, each to a different result type `R`
/// (consecutive rounds therefore alternate the once-cell's type and the
/// round's element type). `shared = true` reduces once per round
/// through `allgather_with`; `shared = false` is the reference — the plain
/// `allgather` folded by every rank for itself. Each rank returns what it
/// computed, through `out`.
async fn fold_body(mut ctx: SpmdCtx, rounds: u64, shared: bool, out: Arc<Mutex<Vec<Folded>>>) {
    let rank = ctx.rank();
    for iter in 0..rounds {
        ctx.compute(1.0e5 * ((rank % 3 + 1) as f64));
        let word = (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ iter;
        let x = mixed_magnitude(rank, iter);
        let name = "x".repeat((rank * 5 + iter as usize) % 7);
        let (hash, sum, longest) = if shared {
            (
                ctx.allgather_with(word, 8, |v| poly_hash(v.iter())).await,
                ctx.allgather_with(x, 8, |v| v.iter().sum::<f64>()).await,
                ctx.allgather_with(name, 8, |v| longest(v.iter())).await,
            )
        } else {
            (
                poly_hash(ctx.allgather(word, 8).await.iter()),
                ctx.allgather(x, 8).await.iter().sum::<f64>(),
                longest(ctx.allgather(name, 8).await.iter()),
            )
        };
        out.lock().expect("no rank panicked").push((rank, iter, hash, sum.to_bits(), longest));
        ctx.mark_iteration(iter);
    }
}

/// `allgather_with(v, fold)` ≡ `fold(allgather(v))` on **every** rank and
/// round — values, virtual time and metrics — for the sequential oracle
/// and pools of W ∈ {1, 2, 7, min(P, 64)} workers × ragged P.
#[test]
fn allgather_with_equals_fold_of_allgather_everywhere() {
    let rounds = 4;
    let run_fold = |ranks: usize, backend: Backend, workers: usize, shared: bool| {
        let out = Arc::new(Mutex::new(Vec::new()));
        let config = config_for(ranks, backend, workers);
        let sink = Arc::clone(&out);
        let report = run(config, move |ctx| fold_body(ctx, rounds, shared, Arc::clone(&sink)));
        let mut seen = std::mem::take(&mut *out.lock().expect("run finished"));
        seen.sort_unstable();
        assert_eq!(seen.len(), ranks * rounds as usize);
        (report, seen)
    };
    for ranks in [5usize, 23, 97] {
        let (ref_report, ref_seen) = run_fold(ranks, Backend::Sequential, 1, false);
        let sweep = shard_sweep(ranks).into_iter().map(|w| (Backend::Parallel, w));
        for (backend, workers) in std::iter::once((Backend::Sequential, 1)).chain(sweep) {
            let label = format!("P={ranks} {backend} W={workers}");
            let (report, seen) = run_fold(ranks, backend, workers, true);
            assert_eq!(seen, ref_seen, "{label}: folded values");
            assert_reports_identical(&ref_report, &report, &label);
        }
    }
}

/// The point of the shared round: the fold executes once per round, not
/// once per rank per round — on every backend, and for `allreduce` too.
#[test]
fn fold_runs_once_per_round() {
    let (ranks, rounds) = (23usize, 6usize);
    let sweep = shard_sweep(ranks).into_iter().map(|w| (Backend::Parallel, w));
    for (backend, workers) in std::iter::once((Backend::Sequential, 1)).chain(sweep) {
        let folds = Arc::new(AtomicUsize::new(0));
        let combines = Arc::new(AtomicUsize::new(0));
        let config = config_for(ranks, backend, workers);
        let (f, c) = (Arc::clone(&folds), Arc::clone(&combines));
        run(config, move |mut ctx| {
            let (f, c) = (Arc::clone(&f), Arc::clone(&c));
            async move {
                for _ in 0..rounds {
                    let n = ctx
                        .allgather_with(ctx.rank(), 8, |v| {
                            f.fetch_add(1, Ordering::Relaxed);
                            v.len()
                        })
                        .await;
                    assert_eq!(n, ranks);
                    let total = ctx
                        .allreduce(1usize, 8, |a, b| {
                            c.fetch_add(1, Ordering::Relaxed);
                            a + b
                        })
                        .await;
                    assert_eq!(total, ranks);
                }
            }
        });
        let label = format!("{backend} W={workers}");
        assert_eq!(folds.load(Ordering::Relaxed), rounds, "{label}: folds");
        assert_eq!(combines.load(Ordering::Relaxed), rounds * (ranks - 1), "{label}: combines");
    }
}

/// Ranks that reduce one round to different result types are told so with
/// the hub's job-tagged payload diagnostic.
#[test]
#[should_panic(expected = "collective `allgather`: payload type mismatch across ranks [job #")]
fn mismatched_reduction_type_panics_with_job_tag() {
    let config = RunConfig::new(3).with_backend(Backend::Parallel).with_workers(2);
    run(config, |mut ctx| async move {
        if ctx.rank() == 0 {
            ctx.allgather_with(1u8, 1, |v| v.len() as u64).await;
        } else {
            ctx.allgather_with(1u8, 1, |v| v.len() as u32).await;
        }
    });
}

/// The acceptance-criterion scale: `P = 128` on pools of
/// `W ∈ {1, 2, 7, 64}` workers (7 leaves a ragged last shard:
/// 128 = 6·19 + 14; 64 is the block cap, two ranks per shard).
#[test]
fn identical_at_128_ranks_all_shard_counts() {
    let reference = report_for(128, Backend::Sequential, 1, 3, 2.0e6);
    for workers in shard_sweep(128) {
        let other = report_for(128, Backend::Parallel, workers, 3, 2.0e6);
        assert_reports_identical(&reference, &other, &format!("P=128 W={workers}"));
    }
}

/// Non-power-of-two `P` on pools of every size: the ragged last shard
/// (e.g. 97 ranks over width-14 shards → 6×14 + 13, or width-3 shards →
/// 32×3 + 1) must behave exactly like the full ones.
#[test]
fn identical_at_ragged_97_ranks() {
    let reference = report_for(97, Backend::Sequential, 1, 2, 5.0e5);
    for workers in [1usize, 2, 7, 13, 48, 64] {
        let other = report_for(97, Backend::Parallel, workers, 2, 5.0e5);
        assert_reports_identical(&reference, &other, &format!("P=97 W={workers}"));
    }
}

/// Deadlock regression for the sharded hub: when the ranks stuck in a
/// mismatched collective span several shards, the structured
/// [`RunError::Deadlock`] must still name exactly the blocked ranks — and
/// the shard list must cover every shard holding one.
#[test]
fn deadlock_report_spans_multiple_shards() {
    // P = 8; on four workers that is 4 width-2 shards. Every odd rank joins
    // a barrier the even ranks skip, so one rank per shard hangs.
    for (backend, expect) in [(Backend::Sequential, vec![0]), (Backend::Parallel, vec![0, 1, 2, 3])]
    {
        let config = config_for(8, backend, 4);
        let result = try_run(config, |mut ctx| async move {
            if ctx.rank() % 2 == 1 {
                ctx.barrier().await;
            }
        });
        match result {
            Err(RunError::Deadlock { job: _, blocked, ranks, shards }) => {
                assert_eq!(ranks, 8, "{backend}");
                assert_eq!(blocked, vec![1, 3, 5, 7], "{backend}");
                assert_eq!(shards, expect, "{backend}: every shard holds a stuck rank");
            }
            other => panic!("{backend}: expected a deadlock, got {other:?}"),
        }
    }
}

/// A deadlock confined to a strict subset of the shards must name only
/// those shards (the whole point of carrying shard ids at large `P`).
#[test]
fn deadlock_report_names_only_affected_shards() {
    // P = 12; on four workers that is 4 width-3 shards. Only ranks 6..9
    // (shards 2 and 3) wait on messages nobody sends.
    for (backend, expect) in [(Backend::Sequential, vec![0]), (Backend::Parallel, vec![2, 3])] {
        let config = config_for(12, backend, 4);
        let result = try_run(config, |mut ctx| async move {
            if (6..=9).contains(&ctx.rank()) {
                let _: u8 = ctx.recv((ctx.rank() + 1) % ctx.size(), 99).await;
            }
        });
        match result {
            Err(RunError::Deadlock { job: _, blocked, ranks, shards }) => {
                assert_eq!(ranks, 12, "{backend}");
                assert_eq!(blocked, vec![6, 7, 8, 9], "{backend}");
                assert_eq!(shards, expect, "{backend}");
            }
            other => panic!("{backend}: expected a deadlock, got {other:?}"),
        }
    }
}

/// The satellite's `#[should_panic]`-free assertion on the [`run`] panic
/// path: [`run`] panics with exactly the [`RunError`] display, so checking
/// the formatted [`try_run`] error pins the panic message — which must
/// carry the hub shard ids alongside the blocked ranks.
#[test]
fn deadlock_panic_message_names_shard_ids() {
    let config = RunConfig::new(6).with_backend(Backend::Parallel).with_workers(3);
    let err = try_run(config, |mut ctx| async move {
        if ctx.rank() >= 4 {
            // Ranks 4 and 5 — both in shard 2 of the width-2 layout.
            ctx.barrier().await;
        }
    })
    .expect_err("two ranks hang in a barrier the others skip");
    let message = err.to_string();
    assert!(message.contains("permanently blocked"), "panic text changed: {message}");
    assert!(message.contains("blocked ranks [4, 5]"), "missing rank list: {message}");
    assert!(message.contains("hub shard [2]"), "missing shard id: {message}");
}
