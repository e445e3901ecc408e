//! Cross-crate integration: the SPMD runtime under realistic mixed
//! workloads — collectives interleaved with point-to-point traffic, LB
//! sections, many ranks, and full determinism.

use parking_lot::Mutex;
use ulba::runtime::{run, Backend, MachineSpec, RunConfig, TimeKind};

#[test]
fn mixed_collectives_and_p2p_many_rounds() {
    let report = run(RunConfig::new(24), |mut ctx| async move {
        let rank = ctx.rank();
        let size = ctx.size();
        for round in 0..50u64 {
            ctx.compute(1.0e7 * ((rank + 1) as f64));
            // Ring p2p.
            ctx.send((rank + 1) % size, 1, (rank, round), 16);
            let (from, r) = ctx.recv::<(usize, u64)>((rank + size - 1) % size, 1).await;
            assert_eq!(from, (rank + size - 1) % size);
            assert_eq!(r, round);
            // Interleaved collectives.
            let total = ctx.allreduce_sum(1.0).await;
            assert_eq!(total, size as f64);
            let gathered = ctx.allgather(rank as u32, 4).await;
            assert_eq!(gathered.len(), size);
            ctx.barrier().await;
            ctx.mark_iteration(round);
        }
    });
    assert_eq!(report.iterations.len(), 50);
    assert!(report.makespan().as_secs() > 0.0);
}

#[test]
fn lb_sections_book_time_as_lb() {
    let report = run(RunConfig::new(4), |mut ctx| async move {
        ctx.compute(1.0e9);
        ctx.begin_lb();
        ctx.compute(5.0e8); // rebooked as LB work
        let _ = ctx.allgather(ctx.rank(), 8).await; // collective inside LB
        ctx.end_lb();
        ctx.compute(1.0e9);
    });
    for m in &report.rank_metrics {
        assert!((m.busy - 2.0).abs() < 1e-9, "busy time must exclude the LB section");
        assert!(m.lb >= 0.5, "LB section compute must book as LB");
    }
}

#[test]
fn utilization_reflects_speed_heterogeneity() {
    // Two ranks, one with half the work of the other (what a twice-as-fast
    // PE sees): the light one idles half the time at the barrier.
    let spec = MachineSpec::homogeneous(1.0e9);
    let report = run(RunConfig::new(2).with_spec(spec), |mut ctx| async move {
        ctx.compute(if ctx.rank() == 0 { 2.0e9 } else { 1.0e9 });
        ctx.barrier().await;
        ctx.mark_iteration(0);
    });
    let util = report.iterations[0].mean_utilization;
    assert!((util - 0.75).abs() < 0.01, "expected ~75% mean utilization, got {util}");
}

#[test]
fn deterministic_under_contention() {
    let go = || {
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        let report = run(RunConfig::new(16), |mut ctx| {
            let order = std::sync::Arc::clone(&order);
            async move {
                for round in 0..20u64 {
                    // All-to-one traffic with rank-dependent compute to shake
                    // up physical scheduling.
                    ctx.compute(1.0e6 * ((ctx.rank() * 7919 % 13) as f64 + 1.0));
                    if ctx.rank() != 0 {
                        ctx.send(0, 9, ctx.rank() as u64 * 1000 + round, 8);
                    }
                    ctx.barrier().await;
                    if ctx.rank() == 0 {
                        let msgs: Vec<(usize, u64)> = ctx.drain(9);
                        order.lock().push(msgs.iter().map(|(f, _)| *f).collect::<Vec<_>>());
                    }
                    ctx.barrier().await;
                }
            }
        });
        let order = std::sync::Arc::into_inner(order).expect("all ranks finished").into_inner();
        (report.makespan().as_secs(), order)
    };
    let (m1, o1) = go();
    let (m2, o2) = go();
    assert_eq!(m1, m2, "virtual makespan must be schedule-independent");
    assert_eq!(o1, o2, "drain order must be deterministic");
}

#[test]
fn elapse_kinds_accumulate_correctly() {
    let report = run(RunConfig::new(1), |mut ctx| async move {
        ctx.elapse(TimeKind::Busy, 1.0);
        ctx.elapse(TimeKind::Comm, 0.5);
        ctx.elapse(TimeKind::Lb, 0.25);
        ctx.elapse(TimeKind::Idle, 0.25);
    });
    let m = &report.rank_metrics[0];
    assert_eq!(m.busy, 1.0);
    assert_eq!(m.comm, 0.5);
    assert_eq!(m.lb, 0.25);
    assert_eq!(m.idle, 0.25);
    assert_eq!(report.makespan().as_secs(), 2.0);
}

#[test]
fn a_collective_books_its_wait_as_idle_and_its_cost_as_comm_or_lb() {
    // Rank 1 arrives at each barrier one second before rank 0 (first
    // round) or rank 0 one second before rank 1 (second round, inside an
    // LB section). The wait is idle either way; the barrier's own cost is
    // communication outside the section and LB work inside it.
    let spec = MachineSpec::homogeneous(1.0e9);
    let cost = spec.barrier_secs(2);
    assert!(cost > 0.0);
    let report = run(RunConfig::new(2).with_spec(spec), |mut ctx| async move {
        ctx.compute(if ctx.rank() == 0 { 2.0e9 } else { 1.0e9 });
        ctx.barrier().await;
        ctx.begin_lb();
        if ctx.rank() == 1 {
            ctx.compute(1.0e9);
        }
        ctx.barrier().await;
        ctx.end_lb();
    });
    let [r0, r1] = &report.rank_metrics[..] else { panic!("two ranks") };
    assert_eq!((r0.busy, r1.busy), (2.0, 1.0));
    assert_eq!((r0.comm, r1.comm), (cost, cost), "outside the section");
    assert_eq!((r0.lb, r1.lb), (cost, 1.0 + cost), "inside the section");
    assert!((r0.idle - 1.0).abs() < 1e-12 && r1.idle == 1.0, "{r0:?} {r1:?}");
    assert!((report.makespan().as_secs() - (3.0 + 2.0 * cost)).abs() < 1e-12);
}

#[test]
fn halo_only_stress_without_the_hub() {
    // Satellite baseline for the sharded-hub numbers: a pure
    // neighbor-exchange (halo) workload with **no global collective per
    // iteration** — between the first and last barrier the rendezvous hub
    // is never on the hot path, so both schedulers run on mailbox wakes
    // alone. The wake-driven parallel scheduler must match the round-robin
    // sequential scheduler bit-for-bit, at any worker count, even when
    // every suspension is a point-to-point wait.
    let p = 48usize;
    let rounds = 60u64;
    let go = |backend: Backend, workers: usize| {
        let config = RunConfig::new(p).with_backend(backend).with_workers(workers);
        run(config, move |mut ctx| async move {
            let rank = ctx.rank();
            let size = ctx.size();
            let mut checksum = 0u64;
            for round in 0..rounds {
                // Rank-skewed compute so wake order differs from rank order.
                ctx.compute(5.0e5 * ((rank * 13 % 7) as f64 + 1.0));
                // Non-periodic halo: interior ranks talk to both sides,
                // edge ranks to one — the message graph is irregular on
                // purpose.
                if rank > 0 {
                    ctx.send(rank - 1, 21, ((rank as u64) << 32) | round, 128);
                }
                if rank + 1 < size {
                    ctx.send(rank + 1, 22, ((rank as u64) << 32) | round, 128);
                }
                if rank + 1 < size {
                    let from_right: u64 = ctx.recv(rank + 1, 21).await;
                    assert_eq!(from_right, ((rank as u64 + 1) << 32) | round);
                    checksum = checksum.wrapping_add(from_right);
                }
                if rank > 0 {
                    let from_left: u64 = ctx.recv(rank - 1, 22).await;
                    assert_eq!(from_left, ((rank as u64 - 1) << 32) | round);
                    checksum = checksum.wrapping_add(from_left);
                }
                ctx.mark_iteration(round);
            }
            // One collective *after* the loop to cross-check the halo
            // traffic; it is the only hub visit of the whole program.
            let total = ctx.allreduce_sum(checksum as f64).await;
            assert!(total > 0.0);
        })
    };
    let reference = go(Backend::Sequential, 1);
    assert_eq!(reference.iterations.len(), rounds as usize);
    for workers in [1usize, 3] {
        let other = go(Backend::Parallel, workers);
        assert_eq!(reference.rank_metrics, other.rank_metrics, "{workers} workers");
        assert_eq!(reference.final_clocks, other.final_clocks, "{workers} workers");
        assert_eq!(
            reference.makespan().as_secs().to_bits(),
            other.makespan().as_secs().to_bits(),
            "{workers} workers"
        );
    }
}

#[test]
fn sparse_db_large_p_erosion_smoke() {
    // The full erosion application at P = 2048 on the sequential backend —
    // a scale at which the old dense WIR database alone would hold
    // 2048² ≈ 4.2 M entries (~100 MB). With the sparse database and delta
    // gossip over a short Ring run, each rank only ever holds what the ring
    // delivered (≤ iterations + 1 entries), and the run's aggregate
    // footprint must reflect that.
    use ulba::core::gossip::{GossipMode, GossipWire};
    use ulba::erosion::{run_erosion, ErosionConfig};

    let p = 2048usize;
    let iterations = 6u64;
    let mut cfg = ErosionConfig::tiny(p, 4);
    cfg.cols_per_pe = 32;
    cfg.height = 32;
    cfg.rock_radius = 7;
    cfg.iterations = iterations;
    cfg.gossip = GossipMode::Ring;
    cfg.gossip_wire = GossipWire::delta();
    cfg.backend = Some(Backend::Sequential);
    let res = run_erosion(&cfg);
    assert_eq!(res.iterations.len(), iterations as usize);
    assert!(res.makespan > 0.0);
    let per_rank_bound = iterations + 1; // own entry + one heard per ring round
    assert!(
        res.db_entries_total <= p as u64 * per_rank_bound,
        "database grew beyond what gossip delivered: {} > {}",
        res.db_entries_total,
        p as u64 * per_rank_bound
    );
    assert!(
        res.db_entries_total >= p as u64,
        "every rank must at least know itself after {iterations} iterations"
    );
    assert_eq!(res.gossip_watermarks_total, p as u64, "Ring tracks one peer per rank");
}

#[test]
fn large_rank_count_with_collectives() {
    // 200 ranks on whatever cores exist: the hub must scale.
    let report = run(RunConfig::new(200), |mut ctx| async move {
        let sum = ctx.allreduce_sum(ctx.rank() as f64).await;
        assert_eq!(sum, (0..200).sum::<usize>() as f64);
        ctx.compute(1.0e6);
        ctx.barrier().await;
        ctx.mark_iteration(0);
    });
    assert_eq!(report.rank_metrics.len(), 200);
    assert_eq!(report.iterations.len(), 1);
}
