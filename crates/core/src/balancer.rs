//! The centralized LB technique (Algorithm 2) running on `ulba-runtime`.
//!
//! "This technique is implemented as a centralized LB technique where the
//! stripe associated to each PE is computed on a single PE and then
//! broadcasted to the others" (§IV-B). The flow per Algorithm 2:
//!
//! 1. every PE sends its α to the main PE (rank 0);
//! 2. the main PE derives the target shares (majority rule + Eq. (6) form,
//!    see [`crate::shares`]), gathers the per-item weights, and partitions
//!    the 1-D domain accordingly ([`crate::partition`]);
//! 3. the partition is broadcast; data migration is performed by the caller
//!    (it owns the domain data) and charged as LB time too.
//!
//! All time spent inside the balancer — collectives, the root's partitioning
//! compute, and the caller's migration if wrapped in
//! [`SpmdCtx::begin_lb`]/[`end_lb`](SpmdCtx::end_lb) — is booked as
//! [`TimeKind::Lb`](ulba_runtime::TimeKind::Lb) and measured so the adaptive
//! trigger can learn the average LB cost `C`.

use crate::partition::{partition_by_shares, Partition};
use crate::shares::{compute_shares, ShareDecision};
use ulba_runtime::SpmdCtx;

/// The main PE of the centralized technique.
pub const LB_ROOT: usize = 0;

/// Result of a rebalancing step, as seen by every rank.
#[derive(Debug, Clone)]
pub struct RebalanceOutcome {
    /// The new global partition (item index space). Whenever the domain
    /// has at least one item per rank, every range is non-empty
    /// ([`Partition::ensure_nonempty`], applied once on the root before
    /// the broadcast) — callers must not repair it again per rank. Every
    /// rank's copy shares one boundary allocation.
    pub partition: Partition,
    /// The share decision taken on the root (N, majority fallback, shares).
    pub decision: ShareDecision,
}

/// Per-item FLOP cost charged on the root for computing the partition
/// (prefix-sum walk); calibrated to a few machine operations per item.
pub const PARTITION_FLOP_PER_ITEM: f64 = 12.0;

/// Execute the collective part of Algorithm 2.
///
/// * `my_alpha` — this PE's α (0 when not overloading / standard method);
/// * `my_range_start` — global index of this PE's first item (ranks must own
///   contiguous, rank-ordered, non-overlapping ranges covering the domain);
/// * `my_weights` — weights of this PE's items.
///
/// Returns the same [`RebalanceOutcome`] on every rank, its partition
/// already repaired to non-empty ranges. The caller performs
/// the data migration (ideally inside the same `begin_lb` section).
pub async fn centralized_rebalance(
    ctx: &mut SpmdCtx,
    my_alpha: f64,
    my_range_start: usize,
    my_weights: &[u64],
) -> RebalanceOutcome {
    ctx.begin_lb();

    // (1) SendAlphaToMainPE / RecvAlphas.
    let alphas = ctx.gather(LB_ROOT, my_alpha, std::mem::size_of::<f64>()).await;

    // (2) Gather the weighted domain description.
    let chunk = (my_range_start, my_weights.to_vec());
    let bytes = std::mem::size_of::<usize>() + my_weights.len() * 8;
    let chunks = ctx.gather(LB_ROOT, chunk, bytes).await;

    // (3) Root: shares → weighted partition; broadcast. The partition and
    // decision both share their `O(P)` arrays (`Arc`-backed), so the
    // per-rank broadcast clones are reference bumps — one resident copy of
    // the bounds and shares for the whole machine, not `P` of them.
    let payload: Option<(Partition, ShareDecision)> = chunks.map(|chunks| {
        let alphas = alphas.expect("root received the alphas");
        // Validate the contiguity invariant and assemble the global weights.
        let mut expected_start = 0usize;
        let mut weights = Vec::new();
        for (rank, (start, w)) in chunks.iter().enumerate() {
            assert_eq!(
                *start, expected_start,
                "rank {rank} does not own the expected contiguous range"
            );
            expected_start += w.len();
            weights.extend_from_slice(w);
        }
        let decision = compute_shares(&alphas);
        // PartitionAccordingToWeights: charge the prefix walk on the root.
        ctx.compute(PARTITION_FLOP_PER_ITEM * weights.len() as f64);
        let mut partition = partition_by_shares(&weights, &decision.shares);
        // Extreme shares can leave a range empty. Repair here, where there
        // is one partition, so that a repair allocates its `O(P)` bounds
        // once and not on each of the `P` ranks (free in virtual time).
        if weights.len() >= ctx.size() {
            partition = partition.ensure_nonempty();
        }
        (partition, decision)
    });
    let bcast_bytes =
        (ctx.size() + 1) * std::mem::size_of::<usize>() + ctx.size() * std::mem::size_of::<f64>();
    let (partition, decision) = ctx.broadcast(LB_ROOT, payload, bcast_bytes).await;

    ctx.end_lb();
    RebalanceOutcome { partition, decision }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use ulba_runtime::{run, RunConfig};

    /// Helper: run a single rebalance over a synthetic weighted domain where
    /// each of the 4 ranks starts with 25 uniform-weight items.
    fn rebalance_with_alphas(alphas: [f64; 4]) -> (Partition, ShareDecision) {
        let out = std::sync::Arc::new(Mutex::new(None::<(Partition, ShareDecision)>));
        run(RunConfig::new(4), |mut ctx| {
            let out = std::sync::Arc::clone(&out);
            async move {
                let rank = ctx.rank();
                let my_weights = vec![1u64; 25];
                let outcome =
                    centralized_rebalance(&mut ctx, alphas[rank], rank * 25, &my_weights).await;
                // Every rank must agree on the partition.
                if rank == 0 {
                    *out.lock() = Some((outcome.partition.clone(), outcome.decision.clone()));
                } else {
                    assert_eq!(outcome.partition.bounds().len(), 5);
                }
            }
        });
        let guard = out.lock();
        guard.clone().expect("rank 0 stored the outcome")
    }

    #[test]
    fn standard_rebalance_splits_evenly() {
        let (partition, decision) = rebalance_with_alphas([0.0; 4]);
        assert_eq!(partition.bounds(), &[0, 25, 50, 75, 100]);
        assert_eq!(decision.overloading, 0);
        assert!(!decision.majority_fallback);
    }

    #[test]
    fn ulba_rebalance_underloads_the_overloader() {
        let (partition, decision) = rebalance_with_alphas([0.0, 0.4, 0.0, 0.0]);
        assert_eq!(decision.overloading, 1);
        let loads = partition.range_weights(&vec![1u64; 100]);
        // Rank 1 keeps (1−0.4)/4 = 15 items; others get (1+0.4/3)/4 ≈ 28.3.
        assert_eq!(loads[1], 15);
        assert!(loads[0] >= 28 && loads[2] >= 28);
        assert_eq!(loads.iter().sum::<u64>(), 100);
    }

    #[test]
    fn majority_alpha_falls_back_to_even() {
        let (partition, decision) = rebalance_with_alphas([0.4, 0.4, 0.4, 0.0]);
        assert!(decision.majority_fallback);
        assert_eq!(partition.bounds(), &[0, 25, 50, 75, 100]);
    }

    #[test]
    fn repaired_partition_reaches_all_ranks_as_one_allocation() {
        // α = 1 asks for an empty range on rank 1: the shares alone would
        // hand it nothing, so the root must repair — once.
        let shares = compute_shares(&[0.0, 1.0, 0.0, 0.0]).shares;
        let unrepaired = partition_by_shares(&[1u64; 100], &shares);
        assert!(unrepaired.range(1).is_empty(), "the test needs a partition that needs repair");

        let seen = std::sync::Arc::new(Mutex::new(Vec::<Partition>::new()));
        run(RunConfig::new(4), |mut ctx| {
            let seen = std::sync::Arc::clone(&seen);
            async move {
                let rank = ctx.rank();
                let alpha = if rank == 1 { 1.0 } else { 0.0 };
                let outcome = centralized_rebalance(&mut ctx, alpha, rank * 25, &[1u64; 25]).await;
                seen.lock().push(outcome.partition);
            }
        });
        let seen = seen.lock();
        assert_eq!(seen.len(), 4);
        let first = &seen[0];
        assert!((0..4).all(|r| !first.range(r).is_empty()), "repaired: {:?}", first.bounds());
        for partition in seen.iter() {
            assert_eq!(
                partition.bounds().as_ptr(),
                first.bounds().as_ptr(),
                "every rank must share the root's one bounds allocation"
            );
        }
    }

    #[test]
    fn lb_time_is_booked_and_measurable() {
        let lb_times = std::sync::Arc::new(Mutex::new(Vec::<f64>::new()));
        let report = run(RunConfig::new(4), |mut ctx| {
            let lb_times = std::sync::Arc::clone(&lb_times);
            async move {
                let rank = ctx.rank();
                // Imbalanced weights: rank 0 owns heavy items.
                let w = if rank == 0 { 10u64 } else { 1u64 };
                let my_weights = vec![w; 25];
                let started = ctx.now();
                centralized_rebalance(&mut ctx, 0.0, rank * 25, &my_weights).await;
                let cost = ctx.now() - started;
                lb_times.lock().push(cost);
            }
        });
        // Every rank saw a positive LB duration and the metrics show Lb time.
        for &c in lb_times.lock().iter() {
            assert!(c > 0.0);
        }
        assert!(report.rank_metrics[0].lb > 0.0, "root partition compute booked as LB");
        // Root did the partition walk: its LB time exceeds the others'.
        let others_max = report.rank_metrics[1..].iter().map(|m| m.lb).fold(0.0f64, f64::max);
        assert!(report.rank_metrics[0].lb >= others_max);
    }

    #[test]
    fn weighted_domain_rebalanced_by_weight() {
        run(RunConfig::new(2), |mut ctx| async move {
            let rank = ctx.rank();
            // Rank 0: 10 items of weight 9; rank 1: 10 items of weight 1.
            let my_weights = vec![if rank == 0 { 9u64 } else { 1u64 }; 10];
            let outcome = centralized_rebalance(&mut ctx, 0.0, rank * 10, &my_weights).await;
            let global: Vec<u64> = (0..20).map(|i| if i < 10 { 9u64 } else { 1u64 }).collect();
            let loads = outcome.partition.range_weights(&global);
            // Total 100, perfect split 50/50: boundary lands within rank 0's
            // old heavy range.
            assert!((loads[0] as i64 - 50).abs() <= 9, "loads {loads:?}");
        });
    }
}
