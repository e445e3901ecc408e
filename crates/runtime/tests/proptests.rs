//! Property-based tests of the runtime's virtual-time accounting and
//! collective semantics.

use proptest::prelude::*;
use ulba_runtime::{run, Backend, MachineSpec, RunConfig, TimeKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The makespan equals the maximum per-rank compute time when ranks
    /// never synchronize.
    #[test]
    fn makespan_is_max_compute(flops in proptest::collection::vec(1.0e6f64..1.0e10, 1..12)) {
        let ranks = flops.len();
        let flops_ref = flops.clone();
        let report = run(RunConfig::new(ranks), move |mut ctx| {
            let flops = flops_ref.clone();
            async move { ctx.compute(flops[ctx.rank()]) }
        });
        let expect = flops.iter().copied().fold(0.0f64, f64::max) / 1.0e9;
        prop_assert!((report.makespan().as_secs() - expect).abs() < 1e-9 * expect);
    }

    /// After a barrier all clocks agree, and the total idle time equals the
    /// sum of each rank's lag behind the slowest.
    #[test]
    fn barrier_idle_accounting(flops in proptest::collection::vec(1.0e6f64..1.0e10, 2..10)) {
        let ranks = flops.len();
        let flops_ref = flops.clone();
        let report = run(RunConfig::new(ranks), move |mut ctx| {
            let flops = flops_ref.clone();
            async move {
                ctx.compute(flops[ctx.rank()]);
                ctx.barrier().await;
            }
        });
        let max = flops.iter().copied().fold(0.0f64, f64::max);
        let expected_idle: f64 = flops.iter().map(|f| (max - f) / 1.0e9).sum();
        let actual_idle: f64 = report.rank_metrics.iter().map(|m| m.idle).sum();
        prop_assert!((actual_idle - expected_idle).abs() < 1e-6 * expected_idle.max(1.0));
        let c0 = report.final_clocks[0];
        for c in &report.final_clocks {
            prop_assert!((c.as_secs() - c0.as_secs()).abs() < 1e-12);
        }
    }

    /// allreduce(sum) equals the local sum of an allgather for any values.
    #[test]
    fn allreduce_equals_allgather_fold(values in proptest::collection::vec(-1.0e6f64..1.0e6, 2..10)) {
        let ranks = values.len();
        let vals = values.clone();
        run(RunConfig::new(ranks), move |mut ctx| {
            let vals = vals.clone();
            async move {
                let mine = vals[ctx.rank()];
                let s = ctx.allreduce_sum(mine).await;
                let g = ctx.allgather(mine, 8).await;
                let fold: f64 = g.iter().sum();
                assert!((s - fold).abs() < 1e-9 * fold.abs().max(1.0));
            }
        });
    }

    /// Charged time always lands in exactly one metrics bucket.
    #[test]
    fn time_kinds_partition_the_clock(
        busy in 0.0f64..10.0,
        comm in 0.0f64..10.0,
        lb in 0.0f64..10.0,
    ) {
        let report = run(RunConfig::new(1), move |mut ctx| async move {
            ctx.elapse(TimeKind::Busy, busy);
            ctx.elapse(TimeKind::Comm, comm);
            ctx.elapse(TimeKind::Lb, lb);
        });
        let m = &report.rank_metrics[0];
        prop_assert!((m.total() - (busy + comm + lb)).abs() < 1e-12);
        prop_assert!((report.makespan().as_secs() - (busy + comm + lb)).abs() < 1e-12);
    }

    /// Heterogeneous speeds: compute time scales inversely with speed.
    #[test]
    fn speeds_scale_compute(speed_ghz in 0.5f64..8.0) {
        let spec = MachineSpec::homogeneous(speed_ghz * 1.0e9);
        let report = run(RunConfig::new(1).with_spec(spec), |mut ctx| async move {
            ctx.compute(4.0e9);
        });
        let expect = 4.0 / speed_ghz;
        prop_assert!((report.makespan().as_secs() - expect).abs() < 1e-9 * expect);
    }

    /// The sequential and parallel backends produce bit-identical reports
    /// for arbitrary BSP programs mixing compute, ring p2p, and collectives
    /// (the parallel backend gets a small explicit worker count so the
    /// property holds even on a single-core machine). The hub shard count
    /// rides along as a free dimension: the single-shard sequential run is
    /// the reference, and the count must never show up in a report.
    #[test]
    fn backends_agree_on_random_programs(
        flops in proptest::collection::vec(1.0e5f64..1.0e9, 2..10),
        rounds in 1u64..5,
        workers in 1usize..5,
        hub_shards in 1usize..9,
    ) {
        let ranks = flops.len();
        let go = |backend: Backend, hub_shards: usize| {
            let flops_ref = flops.clone();
            let config = RunConfig::new(ranks)
                .with_backend(backend)
                .with_workers(workers)
                .with_hub_shards(hub_shards);
            run(config, move |mut ctx| {
                let flops = flops_ref.clone();
                async move {
                    for iter in 0..rounds {
                        ctx.compute(flops[ctx.rank()]);
                        let next = (ctx.rank() + 1) % ctx.size();
                        let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
                        ctx.send(next, 5, ctx.rank() as u64, 32);
                        let _: u64 = ctx.recv(prev, 5).await;
                        let _ = ctx.allreduce_max(flops[ctx.rank()]).await;
                        ctx.barrier().await;
                        ctx.mark_iteration(iter);
                    }
                }
            })
        };
        let reference = go(Backend::Sequential, 1);
        for backend in [Backend::Sequential, Backend::Parallel] {
            let other = go(backend, hub_shards);
            prop_assert_eq!(&reference.rank_metrics, &other.rank_metrics);
            prop_assert_eq!(&reference.final_clocks, &other.final_clocks);
            prop_assert_eq!(
                reference.makespan().as_secs().to_bits(),
                other.makespan().as_secs().to_bits()
            );
            prop_assert_eq!(reference.iterations.len(), other.iterations.len());
            for (a, b) in reference.iterations.iter().zip(&other.iterations) {
                prop_assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits());
                prop_assert_eq!(a.mean_utilization.to_bits(), b.mean_utilization.to_bits());
            }
        }
    }
}
