//! Cross-backend equivalence: the sequential (single-threaded lockstep
//! scheduler, the deterministic oracle) and parallel (work-stealing worker
//! pool) backends must produce **bit-identical** experiment results — same
//! virtual makespan, same per-rank clocks and time accounting, same
//! iteration statistics, same LB activations — for the full erosion
//! application, not just micro-programs.
//! The pool size rides along as a second free dimension: a pool of `W`
//! workers cuts a job alone on it into `min(W, 64)` blocks, one per
//! rendezvous hub shard, and any count (degenerate 1, ragged, one rank per shard) must be
//! invisible in the results.

use proptest::prelude::*;
use ulba_core::gossip::{GossipMode, GossipWire};
use ulba_core::policy::LbPolicy;
use ulba_erosion::{run_erosion, ErosionConfig, ExperimentResult};
use ulba_runtime::Backend;

/// Run `cfg` on a private pool of `workers` threads (an explicit count, so
/// the test is meaningful on a single-core machine): alone there, it asks
/// for `min(workers, 64)` blocks, clamped to the rank count.
fn on_pool(cfg: &ErosionConfig, workers: usize) -> ExperimentResult {
    let mut cfg = cfg.clone();
    cfg.backend = Some(Backend::Parallel);
    cfg.workers = Some(workers);
    let result = run_erosion(&cfg);
    // One block per worker, in hub shards of `ceil(P / S)` ranks each.
    let width = cfg.ranks.div_ceil(workers.min(64).min(cfg.ranks));
    assert_eq!(result.hub_shards, cfg.ranks.div_ceil(width), "the blocks it ran as");
    result
}

/// Assert that two experiment results are identical down to the last f64
/// bit.
fn assert_bit_identical(reference: &ExperimentResult, other: &ExperimentResult, backend: &str) {
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
/// backend, whose hub is the degenerate single shard.
fn reference_run(cfg: &ErosionConfig) -> ExperimentResult {
    let mut cfg = cfg.clone();
    cfg.backend = Some(Backend::Sequential);
    let reference = run_erosion(&cfg);
    assert_eq!(reference.hub_shards, 1);
    reference
}

/// Compare a pool of `workers` against the sequential reference.
fn assert_backends_equivalent(cfg: &ErosionConfig, workers: usize) {
    let reference = reference_run(cfg);
    let other = on_pool(cfg, workers);
    assert_bit_identical(&reference, &other, &format!("parallel W={workers}"));
}

/// Compare the sequential reference against pools of the acceptance
/// criterion's sweep — `W ∈ {1, 2, 7, min(P, 64)}` workers, as many blocks.
fn assert_shard_counts_equivalent(cfg: &ErosionConfig) {
    let reference = reference_run(cfg);
    for workers in [1usize, 2, 7, cfg.ranks.min(64)] {
        let other = on_pool(cfg, workers);
        assert_bit_identical(&reference, &other, &format!("parallel W={workers}"));
    }
}

/// The tentpole acceptance criterion at application scale: a 128-rank
/// erosion run (LB steps included) is bit-identical on the sequential
/// oracle and on pools of `W ∈ {1, 2, 7, 64}` workers. 128 ranks over 7
/// blocks leaves a ragged last one (6 × 19 + 14).
#[test]
fn shard_counts_equivalent_at_128_ranks() {
    let mut cfg = ErosionConfig::tiny(128, 4);
    cfg.iterations = 15;
    assert_shard_counts_equivalent(&cfg);
}

/// Non-power-of-two P: some block width divides 90 unevenly somewhere in
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
    assert_backends_equivalent(&cfg, 3);
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
        assert_backends_equivalent(&cfg, 3);
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
        assert_bit_identical(&reference, &reference_run(&cfg), "sequential");
        assert_bit_identical(&reference, &on_pool(&cfg, 3), "parallel W=3");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized erosion configurations: ranks, rocks, iterations, seed,
    /// policy, gossip mode, anticipation, pool size (= block count) —
    /// always bit-identical on both backends.
    #[test]
    fn equivalent_on_random_configs(
        ranks in 2usize..12,
        strong in 1usize..3,
        iterations in 20u64..50,
        seed in any::<u64>(),
        ulba in any::<bool>(),
        anticipate in any::<bool>(),
        ring_gossip in any::<bool>(),
        workers in 1usize..16,
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
        assert_backends_equivalent(&cfg, workers);
    }

    /// Randomized shard sweeps on the full application: pools of any two
    /// sizes — as many blocks — agree.
    #[test]
    fn equivalent_on_random_shard_pairs(
        ranks in 3usize..24,
        iterations in 15u64..35,
        seed in any::<u64>(),
        w_a in 1usize..26,
        w_b in 1usize..26,
    ) {
        let mut cfg = ErosionConfig::tiny(ranks, 1);
        cfg.iterations = iterations;
        cfg.seed = seed;
        let (ra, rb) = (on_pool(&cfg, w_a), on_pool(&cfg, w_b));
        assert_bit_identical(&ra, &rb, &format!("W={w_a} vs W={w_b}"));
    }
}
