//! Shard-count equivalence of the reduction-tree rendezvous hub.
//!
//! The hub shard count is a pure contention knob: for **any** `S` —
//! degenerate (`S = 1`, the old single-mutex hub), even, ragged
//! (`S` not dividing `P`, so the last shard holds fewer ranks), or fully
//! sharded (`S = P`) — and **any** execution backend, a program's
//! [`RunReport`] must be bit-identical. These tests are the proof the
//! sharded hub ships with: randomized programs and topologies across the
//! full `S × backend` matrix, plus deadlock reporting when the stuck ranks
//! span several shards.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use ulba_runtime::{run, try_run, Backend, RunConfig, RunError, RunReport, SpmdCtx};

/// Shard counts every equivalence case sweeps: degenerate, small, a prime
/// that leaves the last shard ragged for most `P`, and one-rank-per-shard.
fn shard_sweep(ranks: usize) -> Vec<usize> {
    let mut sweep = vec![1usize, 2, 7, ranks];
    sweep.retain(|&s| s >= 1);
    sweep.dedup();
    sweep
}

/// A BSP program exercising the full ctx surface: rank-skewed compute,
/// ring p2p, two collectives per round, and an LB section on one round —
/// every hub generation runs deposit → tree combine → assemble → drain.
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
            if ctx.rank() == 0 {
                ctx.mark_lb_event(iter);
            }
        }
        ctx.barrier().await;
        ctx.mark_iteration(iter);
    }
}

fn report_for(
    ranks: usize,
    backend: Backend,
    shards: usize,
    workers: usize,
    rounds: u64,
    flops_scale: f64,
) -> RunReport {
    let config =
        RunConfig::new(ranks).with_backend(backend).with_workers(workers).with_hub_shards(shards);
    run(config, move |ctx| mixed_body(ctx, rounds, flops_scale))
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
    assert_eq!(reference.lb_iterations, other.lb_iterations, "{label}: LB iterations");
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

    /// Randomized (P, S, workers, program): the single-shard sequential
    /// report is the reference; every shard count of the sweep and every
    /// backend must reproduce it bit-identically. `ranks` is drawn from a
    /// range full of non-powers-of-two, so the `S = 7` leg regularly
    /// leaves a ragged last shard.
    #[test]
    fn reports_identical_across_shards_and_backends(
        ranks in 2usize..20,
        workers in 1usize..5,
        rounds in 1u64..5,
        flops_scale in 1.0e5f64..1.0e8,
        extra_shards in 1usize..32,
    ) {
        let reference = report_for(ranks, Backend::Sequential, 1, workers, rounds, flops_scale);
        let mut sweep = shard_sweep(ranks);
        sweep.push(extra_shards); // an arbitrary count on top of the fixed sweep
        for backend in [Backend::Sequential, Backend::Parallel] {
            for &shards in &sweep {
                let other = report_for(ranks, backend, shards, workers, rounds, flops_scale);
                assert_reports_identical(
                    &reference,
                    &other,
                    &format!("P={ranks} {backend} S={shards} workers={workers}"),
                );
            }
        }
    }
}

/// Chunked-assembly payload correctness: every collective's *contents*
/// (not just the report's timing) checked against the exact expected
/// value, on every rank, every round. With `S = 1` the round's
/// [`RoundValues`] holds a single chunk — the monolithic layout the hub
/// used to build — while `S > 1` stitches per-shard chunks; running the
/// same program across the sweep proves chunked assembly is
/// bit-identical to monolithic. Repeating for several rounds drives the
/// hub's buffer-recycling path (graveyard chunk reclaim + deposit-slab
/// reuse), so a stale or mis-cleared recycled buffer fails the exact
/// equality immediately.
async fn payload_body(mut ctx: SpmdCtx, rounds: u64) {
    let (rank, size) = (ctx.rank(), ctx.size());
    for iter in 0..rounds {
        // allgather: the exact rank-indexed vector (catches chunk
        // stitching order and stale recycled slots).
        let gathered = ctx.allgather((rank as u64) << 32 | iter, 8).await;
        let expect: Vec<u64> = (0..size).map(|r| (r as u64) << 32 | iter).collect();
        assert_eq!(gathered, expect, "allgather payload, iter {iter}");
        // allreduce: the fold must walk ranks in order across chunk
        // boundaries — compare bit patterns of the same-order fold.
        let total = ctx.allreduce_sum(1.0 / (rank as f64 + 3.0 + iter as f64)).await;
        let mut reference = 1.0 / (3.0 + iter as f64);
        for r in 1..size {
            reference += 1.0 / (r as f64 + 3.0 + iter as f64);
        }
        assert_eq!(total.to_bits(), reference.to_bits(), "allreduce fold order, iter {iter}");
        // broadcast / gather / scatter from a rotating root: indexing
        // into a single chunk of the stitched round, with a different
        // payload type per collective so the recycled deposit slabs are
        // exercised across `TypeId`s.
        let root = (iter as usize + 1) % size;
        let word = ctx.broadcast(root, (rank == root).then(|| iter * 7 + 1), 8).await;
        assert_eq!(word, iter * 7 + 1, "broadcast payload, iter {iter}");
        let gathered = ctx.gather(root, (rank as u32, iter as u32), 8).await;
        assert_eq!(gathered.is_some(), rank == root);
        if let Some(values) = gathered {
            let expect: Vec<(u32, u32)> = (0..size as u32).map(|r| (r, iter as u32)).collect();
            assert_eq!(values, expect, "gather payload, iter {iter}");
        }
        let seed: Option<Vec<i64>> =
            (rank == root).then(|| (0..size as i64).map(|r| r * 100 - iter as i64).collect());
        let mine = ctx.scatter(root, seed, 8).await;
        assert_eq!(mine, rank as i64 * 100 - iter as i64, "scatter payload, iter {iter}");
        ctx.barrier().await;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized chunked-vs-monolithic payload equivalence: `ranks` drawn
    /// from a non-power-of-two-rich range (the `S = 7` leg regularly
    /// leaves a ragged last shard) across both backends. The body
    /// asserts exact payloads internally; any failure panics the run.
    #[test]
    fn collective_payloads_survive_chunked_assembly(
        ranks in 2usize..24,
        workers in 1usize..4,
        rounds in 2u64..5,
        extra_shards in 1usize..32,
    ) {
        let mut sweep = shard_sweep(ranks);
        sweep.push(extra_shards);
        for backend in [Backend::Sequential, Backend::Parallel] {
            for &shards in &sweep {
                let config = RunConfig::new(ranks)
                    .with_backend(backend)
                    .with_workers(workers)
                    .with_hub_shards(shards);
                run(config, move |ctx| payload_body(ctx, rounds));
            }
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
/// recycled chunk's element type). `shared = true` reduces once per round
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
/// round — values, virtual time and metrics — for 2 backends ×
/// S ∈ {1, 2, 7, P} × ragged P.
#[test]
fn allgather_with_equals_fold_of_allgather_everywhere() {
    let rounds = 4;
    let run_fold = |ranks: usize, backend: Backend, shards: usize, shared: bool| {
        let out = Arc::new(Mutex::new(Vec::new()));
        let config =
            RunConfig::new(ranks).with_backend(backend).with_workers(3).with_hub_shards(shards);
        let sink = Arc::clone(&out);
        let report = run(config, move |ctx| fold_body(ctx, rounds, shared, Arc::clone(&sink)));
        let mut seen = std::mem::take(&mut *out.lock().expect("run finished"));
        seen.sort_unstable();
        assert_eq!(seen.len(), ranks * rounds as usize);
        (report, seen)
    };
    for ranks in [5usize, 23, 97] {
        let (ref_report, ref_seen) = run_fold(ranks, Backend::Sequential, 1, false);
        for backend in [Backend::Sequential, Backend::Parallel] {
            for shards in shard_sweep(ranks) {
                let label = format!("P={ranks} {backend} S={shards}");
                let (report, seen) = run_fold(ranks, backend, shards, true);
                assert_eq!(seen, ref_seen, "{label}: folded values");
                assert_reports_identical(&ref_report, &report, &label);
            }
        }
    }
}

/// The point of the shared round: the fold executes once per round, not
/// once per rank per round — on every backend, and for `allreduce` too.
#[test]
fn fold_runs_once_per_round() {
    let (ranks, rounds) = (23usize, 6usize);
    for backend in [Backend::Sequential, Backend::Parallel] {
        for shards in shard_sweep(ranks) {
            let folds = Arc::new(AtomicUsize::new(0));
            let combines = Arc::new(AtomicUsize::new(0));
            let config =
                RunConfig::new(ranks).with_backend(backend).with_workers(3).with_hub_shards(shards);
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
            let label = format!("{backend} S={shards}");
            assert_eq!(folds.load(Ordering::Relaxed), rounds, "{label}: folds");
            assert_eq!(combines.load(Ordering::Relaxed), rounds * (ranks - 1), "{label}: combines");
        }
    }
}

/// Ranks that reduce one round to different result types are told so with
/// the hub's job-tagged payload diagnostic.
#[test]
#[should_panic(expected = "collective `allgather`: payload type mismatch across ranks [job #")]
fn mismatched_reduction_type_panics_with_job_tag() {
    let config = RunConfig::new(3).with_backend(Backend::Sequential).with_hub_shards(2);
    run(config, |mut ctx| async move {
        if ctx.rank() == 0 {
            ctx.allgather_with(1u8, 1, |v| v.len() as u64).await;
        } else {
            ctx.allgather_with(1u8, 1, |v| v.len() as u32).await;
        }
    });
}

/// The acceptance-criterion scale: `P = 128` across the full
/// `S ∈ {1, 2, 7, 128} × backend` matrix (7 leaves a ragged last shard:
/// 128 = 6·19 + 14).
#[test]
fn identical_at_128_ranks_all_shard_counts() {
    let reference = report_for(128, Backend::Sequential, 1, 3, 3, 2.0e6);
    for backend in [Backend::Sequential, Backend::Parallel] {
        for shards in shard_sweep(128) {
            let other = report_for(128, backend, shards, 3, 3, 2.0e6);
            assert_reports_identical(&reference, &other, &format!("P=128 {backend} S={shards}"));
        }
    }
}

/// Non-power-of-two `P` with every shard count: the ragged last shard
/// (e.g. 97 ranks over width-14 shards → 6×14 + 13) must behave exactly
/// like the full ones.
#[test]
fn identical_at_ragged_97_ranks() {
    let reference = report_for(97, Backend::Sequential, 1, 2, 2, 5.0e5);
    for backend in [Backend::Sequential, Backend::Parallel] {
        for shards in [1usize, 2, 7, 13, 96, 97] {
            let other = report_for(97, backend, shards, 2, 2, 5.0e5);
            assert_reports_identical(&reference, &other, &format!("P=97 {backend} S={shards}"));
        }
    }
}

/// Deadlock regression for the sharded hub: when the ranks stuck in a
/// mismatched collective span several leaf shards, the structured
/// [`RunError::Deadlock`] must still name exactly the blocked ranks — and
/// the shard list must cover every shard holding one.
#[test]
fn deadlock_report_spans_multiple_shards() {
    for backend in [Backend::Sequential, Backend::Parallel] {
        // P = 8 over 4 width-2 shards; every odd rank joins a barrier the
        // even ranks skip, so one rank per shard hangs.
        let config = RunConfig::new(8).with_backend(backend).with_workers(2).with_hub_shards(4);
        let result = try_run(config, |mut ctx| async move {
            if ctx.rank() % 2 == 1 {
                ctx.barrier().await;
            }
        });
        match result {
            Err(RunError::Deadlock { job: _, blocked, ranks, shards }) => {
                assert_eq!(ranks, 8, "{backend}");
                assert_eq!(blocked, vec![1, 3, 5, 7], "{backend}");
                assert_eq!(shards, vec![0, 1, 2, 3], "{backend}: every shard holds a stuck rank");
            }
            other => panic!("{backend}: expected a deadlock, got {other:?}"),
        }
    }
}

/// A deadlock confined to a strict subset of the shards must name only
/// those shards (the whole point of carrying shard ids at large `P`).
#[test]
fn deadlock_report_names_only_affected_shards() {
    for backend in [Backend::Sequential, Backend::Parallel] {
        // P = 12 over 4 width-3 shards; only ranks 6..9 (shards 2 and 3)
        // wait on messages nobody sends.
        let config = RunConfig::new(12).with_backend(backend).with_workers(2).with_hub_shards(4);
        let result = try_run(config, |mut ctx| async move {
            if (6..=9).contains(&ctx.rank()) {
                let _: u8 = ctx.recv((ctx.rank() + 1) % ctx.size(), 99).await;
            }
        });
        match result {
            Err(RunError::Deadlock { job: _, blocked, ranks, shards }) => {
                assert_eq!(ranks, 12, "{backend}");
                assert_eq!(blocked, vec![6, 7, 8, 9], "{backend}");
                assert_eq!(shards, vec![2, 3], "{backend}");
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
    let config = RunConfig::new(6).with_backend(Backend::Sequential).with_hub_shards(3);
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
