//! Cross-backend equivalence for the scenario application — the
//! acceptance criterion: per-scenario results are bit-identical across the
//! sequential and parallel backends and across hub-shard counts, for every scenario family, policy, and gossip wire format.

use proptest::prelude::*;
use ulba_core::gossip::GossipWire;
use ulba_core::policy::LbPolicy;
use ulba_runtime::Backend;
use ulba_scenario::{run_scenario, ScenarioConfig, ScenarioKind, ScenarioResult};

/// Run `cfg` on the given backend (explicit small worker count for the
/// parallel backend, so the test is meaningful on a single-core machine).
fn on_backend(cfg: &ScenarioConfig, backend: Backend) -> ScenarioResult {
    let mut cfg = cfg.clone();
    cfg.backend = Some(backend);
    if backend == Backend::Parallel {
        cfg.workers = Some(3);
    }
    run_scenario(&cfg)
}

/// Assert two scenario results are identical down to the last f64 bit.
fn assert_bit_identical(reference: &ScenarioResult, other: &ScenarioResult, backend: Backend) {
    assert_eq!(
        reference.makespan.to_bits(),
        other.makespan.to_bits(),
        "{backend}: makespan diverged: {} vs {}",
        reference.makespan,
        other.makespan
    );
    assert_eq!(reference.lb_calls, other.lb_calls, "{backend}");
    assert_eq!(reference.lb_iterations, other.lb_iterations, "{backend}");
    assert_eq!(reference.mean_utilization.to_bits(), other.mean_utilization.to_bits(), "{backend}");
    assert_eq!(reference.total_work_units, other.total_work_units, "{backend}");
    assert_eq!(reference.traffic_checksum, other.traffic_checksum, "{backend}");
    assert_eq!(reference.db_entries_total, other.db_entries_total, "{backend}");
    assert_eq!(reference.gossip_watermarks_total, other.gossip_watermarks_total, "{backend}");
    assert_eq!(reference.lambda_achieved.to_bits(), other.lambda_achieved.to_bits(), "{backend}");
    assert_eq!(reference.rank_metrics.len(), other.rank_metrics.len(), "{backend}");
    for (rank, (a, b)) in reference.rank_metrics.iter().zip(&other.rank_metrics).enumerate() {
        assert_eq!(a.busy.to_bits(), b.busy.to_bits(), "{backend}: rank {rank} busy");
        assert_eq!(a.comm.to_bits(), b.comm.to_bits(), "{backend}: rank {rank} comm");
        assert_eq!(a.lb.to_bits(), b.lb.to_bits(), "{backend}: rank {rank} lb");
        assert_eq!(a.idle.to_bits(), b.idle.to_bits(), "{backend}: rank {rank} idle");
    }
    assert_eq!(reference.iterations.len(), other.iterations.len(), "{backend}");
    for (a, b) in reference.iterations.iter().zip(&other.iterations) {
        assert_eq!(a.iter, b.iter, "{backend}");
        assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits(), "{backend}: iteration {}", a.iter);
        assert_eq!(a.mean_utilization.to_bits(), b.mean_utilization.to_bits(), "{backend}");
        assert_eq!(a.lb_active, b.lb_active, "{backend}");
    }
}

/// The oracle every comparison is anchored on: `cfg` on the sequential
/// backend over the degenerate single-shard hub.
fn reference_run(cfg: &ScenarioConfig) -> ScenarioResult {
    let mut cfg = cfg.clone();
    cfg.hub_shards = Some(1);
    let reference = on_backend(&cfg, Backend::Sequential);
    assert_eq!(reference.hub_shards, 1);
    reference
}

/// Compare both backends (at `cfg`'s own shard count) against the
/// reference.
fn assert_backends_equivalent(cfg: &ScenarioConfig) {
    let reference = reference_run(cfg);
    for backend in [Backend::Sequential, Backend::Parallel] {
        let other = on_backend(cfg, backend);
        assert_bit_identical(&reference, &other, backend);
    }
}

/// Compare the single-shard reference against `S ∈ {1, 2, 7, P}` on every
/// backend.
fn assert_shard_counts_equivalent(cfg: &ScenarioConfig) {
    let reference = reference_run(cfg);
    for backend in [Backend::Sequential, Backend::Parallel] {
        for shards in [1usize, 2, 7, cfg.ranks] {
            let mut sharded = cfg.clone();
            sharded.hub_shards = Some(shards);
            let other = on_backend(&sharded, backend);
            assert_bit_identical(&reference, &other, backend);
        }
    }
}

/// Every scenario family at a ragged P with LB activity: bit-identical
/// across both backends.
#[test]
fn every_family_equivalent_across_backends() {
    for kind in ScenarioKind::ALL {
        let mut cfg = ScenarioConfig::tiny(kind, 6);
        cfg.iterations = 24;
        cfg.initial_lb_cost_factor = 0.05; // make the trigger actually fire
        assert_backends_equivalent(&cfg);
    }
}

/// The task-graph scenario (irregular point-to-point traffic on top of
/// gossip) across the hub-shard sweep: the checksum and every f64 must be
/// invariant.
#[test]
fn task_graph_equivalent_across_shard_counts() {
    let mut cfg = ScenarioConfig::tiny(ScenarioKind::TaskGraph, 9);
    cfg.iterations = 20;
    assert_shard_counts_equivalent(&cfg);
}

/// Policy × wire grid on the drifting hotspot, the family most sensitive
/// to when LB steps land.
#[test]
fn policy_wire_grid_equivalent_on_drifting_hotspot() {
    for policy in [LbPolicy::Standard, LbPolicy::ulba_fixed(0.4)] {
        for wire in [GossipWire::Full, GossipWire::Delta { full_every: 4 }] {
            let mut cfg = ScenarioConfig::tiny(ScenarioKind::DriftingHotspot, 5);
            cfg.iterations = 24;
            cfg.policy = policy;
            cfg.gossip_wire = wire;
            cfg.initial_lb_cost_factor = 0.05;
            assert_backends_equivalent(&cfg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized scenario configurations: family, ranks, λ, phases, seed,
    /// policy, wire, hub shards — always bit-identical on both
    /// backends.
    #[test]
    fn equivalent_on_random_configs(
        kind_idx in 0usize..5,
        ranks in 2usize..10,
        iterations in 12u64..30,
        lambda_fill in 0.0f64..=1.0,
        seed in any::<u64>(),
        ulba in any::<bool>(),
        delta_wire in any::<bool>(),
        hub_shards in 1usize..12,
    ) {
        let kind = ScenarioKind::ALL[kind_idx];
        let mut cfg = ScenarioConfig::tiny(kind, ranks);
        cfg.iterations = iterations;
        cfg.lambda = 1.0 + (ranks as f64 - 1.0) * lambda_fill;
        cfg.seed = seed;
        cfg.policy = if ulba { LbPolicy::ulba_fixed(0.4) } else { LbPolicy::Standard };
        cfg.gossip_wire = if delta_wire { GossipWire::delta() } else { GossipWire::Full };
        cfg.hub_shards = Some(hub_shards);
        assert_backends_equivalent(&cfg);
    }

    /// Randomized shard pairs: any two shard counts agree on any backend.
    #[test]
    fn equivalent_on_random_shard_pairs(
        kind_idx in 0usize..5,
        ranks in 2usize..12,
        iterations in 10u64..24,
        seed in any::<u64>(),
        s_a in 1usize..14,
        s_b in 1usize..14,
        parallel in any::<bool>(),
    ) {
        let mut cfg = ScenarioConfig::tiny(ScenarioKind::ALL[kind_idx], ranks);
        cfg.iterations = iterations;
        cfg.seed = seed;
        let backend = if parallel { Backend::Parallel } else { Backend::Sequential };
        let mut a = cfg.clone();
        a.hub_shards = Some(s_a);
        let mut b = cfg;
        b.hub_shards = Some(s_b);
        let ra = on_backend(&a, backend);
        let rb = on_backend(&b, backend);
        assert_bit_identical(&ra, &rb, backend);
    }
}
