//! Cross-backend equivalence: the sequential (single-threaded lockstep
//! scheduler, the deterministic oracle) and parallel (work-stealing worker
//! pool) backends must produce **bit-identical** experiment results — same
//! virtual makespan, same per-rank clocks and time accounting, same
//! iteration statistics, same LB activations — for the full erosion
//! application, not just micro-programs.
//! The rendezvous hub's shard count rides along as a second free
//! dimension: any `S` (degenerate 1, ragged, one-rank-per-shard) must be
//! invisible in the results.

use proptest::prelude::*;
use ulba_core::gossip::{GossipMode, GossipWire};
use ulba_core::policy::LbPolicy;
use ulba_erosion::{run_erosion, ErosionConfig, ExperimentResult};
use ulba_runtime::Backend;

/// Run `cfg` on the given backend (the parallel backend with an explicit
/// small worker count, so the test is meaningful on a single-core machine).
fn on_backend(cfg: &ErosionConfig, backend: Backend) -> ExperimentResult {
    let mut cfg = cfg.clone();
    cfg.backend = Some(backend);
    if backend == Backend::Parallel {
        cfg.workers = Some(3);
    }
    run_erosion(&cfg)
}

/// Assert that two experiment results are identical down to the last f64
/// bit.
fn assert_bit_identical(reference: &ExperimentResult, other: &ExperimentResult, backend: Backend) {
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
    assert_eq!(reference.final_total_weight, other.final_total_weight, "{backend}");
    assert_eq!(reference.total_eroded, other.total_eroded, "{backend}");
    assert_eq!(reference.db_entries_total, other.db_entries_total, "{backend}");
    assert_eq!(reference.gossip_watermarks_total, other.gossip_watermarks_total, "{backend}");
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
fn reference_run(cfg: &ErosionConfig) -> ExperimentResult {
    let mut cfg = cfg.clone();
    cfg.hub_shards = Some(1);
    let reference = on_backend(&cfg, Backend::Sequential);
    assert_eq!(reference.hub_shards, 1);
    reference
}

/// Compare both backends (at `cfg`'s own shard count) against the
/// reference.
fn assert_backends_equivalent(cfg: &ErosionConfig) {
    let reference = reference_run(cfg);
    for backend in [Backend::Sequential, Backend::Parallel] {
        let other = on_backend(cfg, backend);
        assert_bit_identical(&reference, &other, backend);
    }
}

/// Compare the single-shard reference against the hub shard sweep of the
/// acceptance criterion — `S ∈ {1, 2, 7, P}` — on every backend.
fn assert_shard_counts_equivalent(cfg: &ErosionConfig) {
    let reference = reference_run(cfg);
    for backend in [Backend::Sequential, Backend::Parallel] {
        for shards in [1usize, 2, 7, cfg.ranks] {
            let mut sharded = cfg.clone();
            sharded.hub_shards = Some(shards);
            let other = on_backend(&sharded, backend);
            assert!(
                other.hub_shards >= 1 && other.hub_shards <= cfg.ranks,
                "{backend}: resolved shard count {} out of range",
                other.hub_shards
            );
            assert_bit_identical(&reference, &other, backend);
        }
    }
}

/// The tentpole acceptance criterion at application scale: a 128-rank
/// erosion run (LB steps included) is bit-identical across
/// `S ∈ {1, 2, 7, 128}` × both backends. 128 ranks over `S = 7`
/// leaves a ragged last shard (6 × 19 + 14).
#[test]
fn shard_counts_equivalent_at_128_ranks() {
    let mut cfg = ErosionConfig::tiny(128, 4);
    cfg.iterations = 15;
    assert_shard_counts_equivalent(&cfg);
}

/// Non-power-of-two P: every shard width divides 90 unevenly somewhere in
/// the sweep, exercising the ragged-shard assembly path under real LB
/// migrations.
#[test]
fn shard_counts_equivalent_at_ragged_90_ranks() {
    let mut cfg = ErosionConfig::tiny(90, 2);
    cfg.iterations = 20;
    cfg.initial_lb_cost_factor = 0.05; // make the trigger actually fire
    assert_shard_counts_equivalent(&cfg);
}

/// The acceptance-criterion case: a 128-rank erosion run with LB activity
/// must be bit-identical across both backends.
#[test]
fn equivalent_at_128_ranks() {
    let mut cfg = ErosionConfig::tiny(128, 4);
    cfg.iterations = 30;
    assert_backends_equivalent(&cfg);
}

/// The gossip wire format as a free dimension: for each format (full
/// snapshots, delta with a tight anti-entropy period, delta with the
/// default period) the two backends must agree bit-for-bit — at a ragged
/// P with LB activity, so delta payload construction runs under real
/// migrations. The wire format changes what the bytes on the wire *are*,
/// so reports differ *across* formats; determinism within one must hold
/// regardless.
#[test]
fn wire_formats_equivalent_across_backends_at_ragged_97_ranks() {
    for wire in [GossipWire::Full, GossipWire::Delta { full_every: 4 }, GossipWire::delta()] {
        let mut cfg = ErosionConfig::tiny(97, 3);
        cfg.iterations = 15;
        cfg.initial_lb_cost_factor = 0.05; // make the trigger actually fire
        cfg.gossip_wire = wire;
        assert_backends_equivalent(&cfg);
    }
}

/// Both LB policies and a standard trigger config at a mid-size P.
#[test]
fn equivalent_under_both_policies() {
    for policy in [LbPolicy::Standard, LbPolicy::ulba_fixed(0.4)] {
        let mut cfg = ErosionConfig::tiny(8, 2);
        cfg.policy = policy;
        cfg.iterations = 80;
        cfg.initial_lb_cost_factor = 0.05; // make the trigger actually fire
        let reference = reference_run(&cfg);
        assert!(reference.lb_calls > 0 || matches!(cfg.policy, LbPolicy::Standard));
        for backend in [Backend::Sequential, Backend::Parallel] {
            let other = on_backend(&cfg, backend);
            assert_bit_identical(&reference, &other, backend);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized erosion configurations: ranks, rocks, iterations, seed,
    /// policy, gossip mode, anticipation, hub shard count — always
    /// bit-identical on both backends.
    #[test]
    fn equivalent_on_random_configs(
        ranks in 2usize..12,
        strong in 1usize..3,
        iterations in 20u64..50,
        seed in any::<u64>(),
        ulba in any::<bool>(),
        anticipate in any::<bool>(),
        ring_gossip in any::<bool>(),
        hub_shards in 1usize..16,
        delta_wire in any::<bool>(),
        full_every in 1u64..20,
    ) {
        let mut cfg = ErosionConfig::tiny(ranks, strong.min(ranks));
        cfg.iterations = iterations;
        cfg.seed = seed;
        cfg.policy = if ulba { LbPolicy::ulba_fixed(0.4) } else { LbPolicy::Standard };
        cfg.anticipatory_partitioning = anticipate;
        cfg.gossip = if ring_gossip {
            GossipMode::Ring
        } else {
            GossipMode::RandomPush { fanout: 2 }
        };
        cfg.gossip_wire = if delta_wire {
            GossipWire::Delta { full_every }
        } else {
            GossipWire::Full
        };
        cfg.hub_shards = Some(hub_shards);
        assert_backends_equivalent(&cfg);
    }

    /// Randomized shard sweeps on the full application: any two shard
    /// counts agree on any backend.
    #[test]
    fn equivalent_on_random_shard_pairs(
        ranks in 3usize..24,
        iterations in 15u64..35,
        seed in any::<u64>(),
        s_a in 1usize..26,
        s_b in 1usize..26,
        parallel in any::<bool>(),
    ) {
        let mut cfg = ErosionConfig::tiny(ranks, 1);
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
