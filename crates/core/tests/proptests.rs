//! Property-based tests of the LB machinery: shares, partitioning, outlier
//! detection, gossip and the WIR database.

use proptest::prelude::*;
use ulba_core::db::{WirDatabase, WirEntry};
use ulba_core::gossip::{simulate_gossip, simulate_rounds_to_completion, GossipMode, GossipWire};
use ulba_core::outlier::{robust_z_scores, z_params, z_scores};
use ulba_core::partition::{partition_by_shares, Partition};
use ulba_core::policy::{estimate_ulba_overhead, outlier_score, LbPolicy, UlbaConfig};
use ulba_core::shares::compute_shares;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Algorithm 2 shares always sum to 1 and overloaders keep (1 − α)/P.
    #[test]
    fn shares_sum_to_one(alphas in proptest::collection::vec(0.0f64..1.0, 1..64)) {
        // Zero out a random-ish subset so some PEs are non-overloading.
        let alphas: Vec<f64> =
            alphas.iter().enumerate().map(|(i, &a)| if i % 3 == 0 { a } else { 0.0 }).collect();
        let d = compute_shares(&alphas);
        let sum: f64 = d.shares.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        let p = alphas.len() as f64;
        if !d.majority_fallback {
            for (i, &a) in alphas.iter().enumerate() {
                if a > 0.0 {
                    prop_assert!((d.shares[i] - (1.0 - a) / p).abs() < 1e-12);
                }
            }
        }
    }

    /// The weighted splitter conserves total weight, produces monotone
    /// bounds, and its per-range loads approximate targets within the
    /// largest item weight.
    #[test]
    fn partition_respects_targets(
        weights in proptest::collection::vec(0u64..1000, 1..400),
        p in 1usize..16,
    ) {
        let shares = vec![1.0 / p as f64; p];
        let part = partition_by_shares(&weights, &shares);
        prop_assert_eq!(part.num_ranges(), p);
        let loads = part.range_weights(&weights);
        let total: u64 = weights.iter().sum();
        prop_assert_eq!(loads.iter().sum::<u64>(), total);
        let bounds = part.bounds();
        prop_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        // Each boundary's cumulative weight is within one max item of its
        // target (the greedy walk's guarantee).
        let max_item = weights.iter().copied().max().unwrap_or(0) as f64;
        let mut cum_target = 0.0;
        let mut cum_actual = 0u64;
        for k in 0..p - 1 {
            cum_target += shares[k] * total as f64;
            cum_actual += loads[k];
            prop_assert!(
                (cum_actual as f64 - cum_target).abs() <= max_item.max(1.0),
                "boundary {k}: cumulative {cum_actual} vs target {cum_target}"
            );
        }
    }

    /// `ensure_nonempty` gives every range at least one item and changes
    /// nothing else when the partition is already valid.
    #[test]
    fn ensure_nonempty_properties(
        cuts in proptest::collection::vec(0usize..100, 1..10),
    ) {
        let len = 100usize;
        let mut bounds = vec![0];
        bounds.extend(cuts.iter().copied().map(|c| c.min(len)));
        bounds.push(len);
        bounds.sort_unstable();
        let p = bounds.len() - 1;
        prop_assume!(len >= p);
        let part = Partition::from_bounds(bounds, len).ensure_nonempty();
        for r in 0..part.num_ranges() {
            prop_assert!(!part.range(r).is_empty());
        }
        prop_assert_eq!(part.bounds()[0], 0);
        prop_assert_eq!(*part.bounds().last().unwrap(), len);
    }

    /// `owner` agrees with `range` for every item.
    #[test]
    fn owner_matches_ranges(
        weights in proptest::collection::vec(1u64..50, 2..120),
        p in 1usize..12,
    ) {
        let part = partition_by_shares(&weights, &vec![1.0 / p as f64; p]);
        for rank in 0..part.num_ranges() {
            for idx in part.range(rank) {
                prop_assert_eq!(part.owner(idx), rank);
            }
        }
    }

    /// z-scores are translation/scale invariant in their verdicts and have
    /// zero mean (up to floating point).
    #[test]
    fn zscore_normalization(values in proptest::collection::vec(-1e6f64..1e6, 2..64)) {
        let zs = z_scores(&values);
        let mean_z: f64 = zs.iter().sum::<f64>() / zs.len() as f64;
        prop_assert!(mean_z.abs() < 1e-6);
        // Affine transform must not change the z-scores materially.
        let transformed: Vec<f64> = values.iter().map(|v| 3.0 * v + 7.0).collect();
        let zt = z_scores(&transformed);
        for (a, b) in zs.iter().zip(&zt) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Robust z-scores never flag anything in a constant population and
    /// flag a single planted outlier in a large-enough clean one.
    #[test]
    fn robust_detects_planted_outlier(n in 8usize..64, idx in 0usize..64, scale in 1.0f64..1e3) {
        let idx = idx % n;
        let mut values = vec![scale; n];
        values[idx] = scale * 100.0;
        let zs = robust_z_scores(&values);
        prop_assert!(zs[idx] > 3.0, "planted outlier must be flagged, z={}", zs[idx]);
        let clean = vec![scale; n];
        prop_assert!(robust_z_scores(&clean).iter().all(|&z| z == 0.0));
    }

    /// Database merges are idempotent, commutative in their final state,
    /// and never lose the freshest entry.
    #[test]
    fn db_merge_semantics(
        entries in proptest::collection::vec((0usize..16, 0.0f64..1e9, 0u64..100), 1..64),
    ) {
        let entries: Vec<WirEntry> = entries
            .into_iter()
            .map(|(rank, wir, iteration)| WirEntry { rank, wir, iteration })
            .collect();
        let mut forward = WirDatabase::new(16);
        forward.merge(&entries);
        // Merging twice changes nothing.
        let mut twice = forward.clone();
        twice.merge(&entries);
        prop_assert_eq!(&twice, &forward);
        // Every stored entry carries the maximal iteration seen per rank.
        for rank in 0..16 {
            let freshest = entries.iter().filter(|e| e.rank == rank).map(|e| e.iteration).max();
            prop_assert_eq!(forward.get(rank).map(|e| e.iteration), freshest);
        }
    }

    /// Every gossip mode completes within its own `expected_rounds` bound —
    /// on both wire formats, in the same number of rounds.
    #[test]
    fn gossip_modes_converge(size in 2usize..64, seed in 0u64..1000) {
        for mode in [
            GossipMode::Ring,
            GossipMode::RandomPush { fanout: 1 },
            GossipMode::RandomPush { fanout: 3 },
            GossipMode::Hybrid { fanout: 1 },
        ] {
            let bound = mode.expected_rounds(size).max(size);
            let rounds = simulate_rounds_to_completion(mode, size, seed, bound);
            prop_assert!(rounds.is_some(), "{mode:?} did not converge within {bound} rounds");
            let delta = simulate_gossip(mode, GossipWire::delta(), size, seed, bound);
            prop_assert_eq!(rounds, delta.rounds, "{:?}: wire formats converged apart", mode);
        }
    }
}

/// Values the sparse detector must fold exactly as the dense one does.
const SPECIAL: [f64; 8] =
    [0.0, -0.0, 5e-324, -2.2e-310, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1e300];

/// Equal bits, or both NaN.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The dense detector, written out over the default-filled WIR vector:
/// `(mean, σ, every rank's z)`, each a left-to-right `f64` sum.
fn dense_detector(dense: &[f64]) -> (f64, f64, Vec<f64>) {
    let n = dense.len() as f64;
    let m = dense.iter().sum::<f64>() / n;
    let sd = if dense.len() < 2 {
        0.0
    } else {
        (dense.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / n).sqrt()
    };
    let z = dense.iter().map(|&v| if sd == 0.0 { 0.0 } else { (v - m) / sd }).collect();
    (m, sd, z)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// A sparse database — up to 40 known ranks among up to a few thousand,
    /// with signed zeros, subnormals, infinities and NaN among the values —
    /// gives the z-statistics, `outlier_score` and Eq. (11)'s estimate of
    /// the dense fold over its default-filled vector, bit for bit. Small
    /// populations and low thresholds make the unknown ranks themselves
    /// overloaders, so the gaps' α fold is exercised too.
    #[test]
    fn the_sparse_detector_is_the_dense_fold(
        small in 1usize..48,
        large in 1usize..3000,
        raw in proptest::collection::vec((0usize..1 << 20, 0usize..16, -1e3f64..1e3), 0..41),
        threshold in -1.5f64..4.0,
        alpha in 0.0f64..1.0,
    ) {
        let size = if raw.len() % 2 == 0 { small } else { large };
        let mut db = WirDatabase::new(size);
        for (i, &(rank, kind, value)) in raw.iter().enumerate() {
            let wir = match kind {
                0..=7 => SPECIAL[kind],
                8..=11 => value,
                _ => value.abs() * 1e-3 - 0.25,
            };
            db.update(WirEntry { rank: rank % size, wir, iteration: i as u64 });
        }
        let dense = db.wirs_or(0.0);
        let (m, sd, z) = dense_detector(&dense);
        let (sm, ssd) = z_params(db.entries().map(|e| (e.rank, e.wir)), size);
        prop_assert!(same(sm, m) && same(ssd, sd), "({sm}, {ssd}) vs ({m}, {sd})");

        let cfg = UlbaConfig { z_threshold: threshold, ..UlbaConfig::fixed(alpha) };
        let policy = LbPolicy::Ulba(cfg);
        let unknown = (0..size).filter(|&r| db.get(r).is_none()).take(3);
        for rank in db.entries().map(|e| e.rank).chain(unknown) {
            let score = outlier_score(&policy, &db, rank);
            prop_assert!(same(score, z[rank]), "rank {rank}: {score} vs {}", z[rank]);
        }

        let (wtot, omega) = (1.0e12, 1.0e9);
        let (n_hat, alpha_sum) = z.iter().fold((0usize, 0.0f64), |(n, sum), &z| {
            let a = cfg.alpha_for(z);
            if a > 0.0 { (n + 1, sum + a) } else { (n, sum) }
        });
        let want = if n_hat == 0 || n_hat >= size {
            0.0
        } else {
            alpha_sum / n_hat as f64 * n_hat as f64 / (size - n_hat) as f64 * wtot
                / (omega * size as f64)
        };
        let got = estimate_ulba_overhead(&policy, &db, wtot, omega, size);
        prop_assert!(same(got, want), "{got} vs {want} ({n_hat} flagged of {size})");
    }
}
