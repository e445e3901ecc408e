//! Batch-vs-serial equivalence of whole erosion experiments on a shared
//! [`JobServer`]: for any mix of backend, pool size (a job's block count),
//! gossip wire format and LB policy, submitting a sweep to one pool must
//! reproduce the serial results bit for bit.

use proptest::prelude::*;
use ulba::core::gossip::GossipWire;
use ulba::core::policy::LbPolicy;
use ulba::erosion::{run_erosion, run_erosion_batch, ErosionConfig, ExperimentResult};
use ulba::runtime::{Backend, JobServer};

/// One generated experiment: which backend the config pins (None = eligible
/// for the pool), plus the free dimensions that must never move a result.
/// `workers` sizes the private pool — and so the block count — of the
/// serial run; in the batch, the shared pool's size wins.
fn build_config(
    seed: u64,
    ranks: usize,
    wire: GossipWire,
    workers: usize,
    backend: Option<Backend>,
    policy: LbPolicy,
) -> ErosionConfig {
    let mut cfg = ErosionConfig::tiny(ranks, 1);
    cfg.iterations = 15;
    cfg.seed = seed;
    cfg.gossip_wire = wire;
    cfg.workers = Some(workers);
    cfg.backend = backend;
    cfg.policy = policy;
    cfg
}

/// The fields that tell two erosion runs apart, floats as bits.
fn outcome(res: &ExperimentResult) -> (u64, &[u64], u64, u64, u64) {
    (
        res.makespan.to_bits(),
        &res.lb_iterations,
        res.total_eroded,
        res.final_total_weight,
        res.db_entries_total,
    )
}

/// Standard and ULBA at mixed P on the parallel backend, batched on one
/// two-worker pool, match runs on private two-worker pools: a job admitted
/// behind others gets fewer blocks than the two a private pool gives it.
#[test]
fn mixed_policies_and_pe_counts_batch_like_private_pools() {
    let policies = [LbPolicy::Standard, LbPolicy::ulba_fixed(0.4)];
    let mut cfgs = Vec::new();
    for ranks in [8, 16] {
        for policy in policies {
            for seed in [11, 23] {
                let mut cfg = build_config(
                    seed,
                    ranks,
                    GossipWire::default(),
                    2,
                    Some(Backend::Parallel),
                    policy,
                );
                cfg.iterations = 40;
                cfgs.push(cfg);
            }
        }
    }
    let server = JobServer::new(2);
    let shared: Vec<ErosionConfig> =
        cfgs.iter().map(|cfg| cfg.clone().with_server(server.clone())).collect();
    let batched = run_erosion_batch(&shared);
    for (cfg, batch_res) in cfgs.iter().zip(&batched) {
        let label = format!("P={} {} seed {}", cfg.ranks, cfg.policy, cfg.seed);
        assert_eq!(outcome(batch_res), outcome(&run_erosion(cfg)), "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A batch mixing configs that name no backend (the server target makes
    /// them pool jobs), explicitly parallel ones, and explicitly sequential
    /// ones (which occupy no pool worker and run serially at join) matches
    /// per-config serial runs bit for bit.
    #[test]
    fn batched_sweeps_match_serial_runs(
        sweep in proptest::collection::vec(
            (0u64..1000, 2usize..5, 0usize..3, 1usize..5, 0usize..3),
            2..5,
        ),
        workers in 1usize..4,
    ) {
        let server = JobServer::new(workers);
        let cfgs: Vec<ErosionConfig> = sweep
            .iter()
            .map(|&(seed, ranks, wire, serial_workers, backend)| {
                let wire = [GossipWire::Full, GossipWire::delta(), GossipWire::Delta { full_every: 3 }][wire];
                let backend = [None, Some(Backend::Sequential), Some(Backend::Parallel)][backend];
                build_config(seed, ranks, wire, serial_workers, backend, LbPolicy::ulba_fixed(0.4))
                    .with_server(server.clone())
            })
            .collect();
        let batched = run_erosion_batch(&cfgs);
        for (cfg, batch_res) in cfgs.iter().zip(&batched) {
            let mut serial_cfg = cfg.clone();
            serial_cfg.server = None;
            let serial = run_erosion(&serial_cfg);
            prop_assert_eq!(batch_res.makespan.to_bits(), serial.makespan.to_bits());
            prop_assert_eq!(&batch_res.lb_iterations, &serial.lb_iterations);
            prop_assert_eq!(batch_res.total_eroded, serial.total_eroded);
            prop_assert_eq!(batch_res.final_total_weight, serial.final_total_weight);
            prop_assert_eq!(batch_res.db_entries_total, serial.db_entries_total);
        }
    }
}
