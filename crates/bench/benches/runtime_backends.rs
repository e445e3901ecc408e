//! Backend comparison: the same BSP program (compute + allreduce + barrier
//! per round) on the sequential vs. parallel executor at growing rank
//! counts.
//!
//! The sequential backend costs one round-robin pass per superstep; the
//! parallel backend adds work stealing and wake-driven scheduling over a
//! fixed worker pool, so its overhead is the queue + CAS churn per
//! suspension. This bench tracks both curves in the perf trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ulba_runtime::{run, Backend, RunConfig};

const ROUNDS: u64 = 10;

fn bsp_run(ranks: usize, backend: Backend) {
    run(RunConfig::new(ranks).with_backend(backend), |mut ctx| async move {
        for iter in 0..ROUNDS {
            ctx.compute(1.0e6 * ((ctx.rank() % 7 + 1) as f64));
            let total = ctx.allreduce_sum(1.0).await;
            assert_eq!(total, ctx.size() as f64);
            ctx.barrier().await;
            ctx.mark_iteration(iter);
        }
    });
}

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("backend_bsp_10_rounds");
    g.sample_size(10);
    for ranks in [64usize, 256, 1024] {
        for backend in [Backend::Sequential, Backend::Parallel] {
            g.bench_with_input(
                BenchmarkId::new(backend.to_string(), ranks),
                &ranks,
                |b, &ranks| b.iter(|| bsp_run(ranks, backend)),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
