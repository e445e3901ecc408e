//! Batch-vs-serial equivalence of whole erosion experiments on a shared
//! [`JobServer`]: for any mix of backend, hub shard count, and gossip wire
//! format, submitting a sweep to one pool must reproduce the serial
//! results bit for bit.

use proptest::prelude::*;
use ulba::core::gossip::GossipWire;
use ulba::erosion::{run_erosion, run_erosion_batch, ErosionConfig};
use ulba::runtime::{Backend, JobServer};

/// One generated experiment: which backend the config pins (None = eligible
/// for the pool), plus the free dimensions that must never move a result.
fn build_config(
    seed: u64,
    ranks: usize,
    wire: GossipWire,
    hub_shards: usize,
    backend: Option<Backend>,
) -> ErosionConfig {
    let mut cfg = ErosionConfig::tiny(ranks, 1);
    cfg.iterations = 15;
    cfg.seed = seed;
    cfg.gossip_wire = wire;
    cfg.hub_shards = Some(hub_shards);
    cfg.backend = backend;
    cfg
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
            .map(|&(seed, ranks, wire, hub_shards, backend)| {
                let wire = [GossipWire::Full, GossipWire::delta(), GossipWire::Delta { full_every: 3 }][wire];
                let backend = [None, Some(Backend::Sequential), Some(Backend::Parallel)][backend];
                build_config(seed, ranks, wire, hub_shards, backend)
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
