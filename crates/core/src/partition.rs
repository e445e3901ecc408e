//! Weighted contiguous 1-D partitioning — the centralized "stripe" LB
//! technique of §IV-B.
//!
//! The domain is a sequence of weighted items (columns of cells in the
//! erosion application); PE `p` must receive a contiguous range whose weight
//! approximates `shares[p]` of the total. The splitter walks the prefix-sum
//! array once and places each boundary at the position closest to the
//! cumulative target (`O(len + P)`).

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A contiguous partition of `len` items into `P` ranges.
///
/// `bounds` has `P + 1` entries with `bounds[0] = 0`,
/// `bounds[P] = len`, and `bounds[p] ≤ bounds[p+1]`; rank `p` owns
/// `bounds[p]..bounds[p+1]`.
///
/// The boundary array is shared (`Arc`): `Clone` is a reference bump, so
/// broadcasting one partition to `P` ranks keeps a *single* `O(P)`
/// allocation instead of `P` copies (`O(P²)` — at `P = 65536` the
/// difference between 512 KB and 34 GB of resident bounds).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    bounds: Arc<Vec<usize>>,
}

impl Partition {
    /// Build from raw boundaries (validated).
    pub fn from_bounds(bounds: Vec<usize>, len: usize) -> Self {
        assert!(bounds.len() >= 2, "need at least one range");
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().expect("non-empty"), len);
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "bounds must be sorted");
        Self { bounds: Arc::new(bounds) }
    }

    /// `ranks` ranges of `items_per_rank` items each — the partition an
    /// application starts from before any LB step.
    pub fn uniform(ranks: usize, items_per_rank: usize) -> Self {
        Self::from_bounds((0..=ranks).map(|r| r * items_per_rank).collect(), ranks * items_per_rank)
    }

    /// Number of ranges (PEs).
    pub fn num_ranges(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The item range owned by `rank`.
    pub fn range(&self, rank: usize) -> std::ops::Range<usize> {
        self.bounds[rank]..self.bounds[rank + 1]
    }

    /// The raw boundary array.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Which rank owns item `idx`.
    pub fn owner(&self, idx: usize) -> usize {
        debug_assert!(idx < *self.bounds.last().expect("non-empty"));
        // bounds is sorted: find the last boundary ≤ idx.
        match self.bounds.binary_search(&idx) {
            Ok(mut pos) => {
                // Item at a boundary belongs to the range starting there;
                // skip empty ranges that share this boundary.
                while pos + 1 < self.bounds.len() && self.bounds[pos + 1] == idx {
                    pos += 1;
                }
                pos.min(self.num_ranges() - 1)
            }
            Err(pos) => pos - 1,
        }
    }

    /// Per-range total weights under this partition.
    pub fn range_weights(&self, weights: &[u64]) -> Vec<u64> {
        (0..self.num_ranges()).map(|r| self.range(r).map(|i| weights[i]).sum()).collect()
    }

    /// Return an equivalent partition in which every range owns at least one
    /// item (requires `len ≥ P`). Extreme shares (e.g. ULBA with α = 1) can
    /// produce empty ranges; stencil applications need every rank to own at
    /// least one column for halo exchange to stay well-defined.
    ///
    /// Copy-on-write: an already-valid partition is returned as-is (shared
    /// storage untouched), so the common case costs nothing even when the
    /// bounds are shared across every rank of a run.
    pub fn ensure_nonempty(self) -> Partition {
        let p = self.num_ranges();
        let len = *self.bounds.last().expect("non-empty");
        assert!(len >= p, "cannot give {p} ranks at least one of {len} items");
        if self.bounds.windows(2).all(|w| w[0] < w[1]) {
            return self;
        }
        let mut bounds = (*self.bounds).clone();
        // Forward: range k starts no earlier than k (leaves room on the left).
        for k in 1..p {
            if bounds[k] < k {
                bounds[k] = k;
            }
            if bounds[k] <= bounds[k - 1] {
                bounds[k] = bounds[k - 1] + 1;
            }
        }
        // Backward: range k ends early enough that everyone after fits.
        for k in (1..p).rev() {
            let max_start = len - (p - k);
            if bounds[k] > max_start {
                bounds[k] = max_start;
            }
        }
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "ensure_nonempty must produce strictly increasing bounds"
        );
        Self { bounds: Arc::new(bounds) }
    }

    /// Load imbalance `max/mean − 1` of the partition for `weights`
    /// (0 = perfect balance).
    pub fn imbalance(&self, weights: &[u64]) -> f64 {
        let loads = self.range_weights(weights);
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean - 1.0
        }
    }
}

/// Split `weights` into `shares.len()` contiguous ranges whose weights track
/// the target `shares` (fractions of the total weight; they should sum to
/// ~1, and are renormalized defensively).
pub fn partition_by_shares(weights: &[u64], shares: &[f64]) -> Partition {
    let p = shares.len();
    assert!(p >= 1, "need at least one share");
    assert!(shares.iter().all(|&s| s >= 0.0), "shares must be non-negative");
    let total: u64 = weights.iter().sum();
    let share_sum: f64 = shares.iter().sum();
    assert!(share_sum > 0.0, "at least one share must be positive");

    let mut bounds = Vec::with_capacity(p + 1);
    bounds.push(0usize);
    let mut prefix = 0u64; // weight of items [0, i)
    let mut i = 0usize;
    let mut cum_share = 0.0;
    for s in &shares[..p - 1] {
        cum_share += s / share_sum;
        let target = cum_share * total as f64;
        // Advance while adding the next item gets strictly closer to the
        // target (nonzero ties prefer the smaller boundary → earlier ranges
        // never over-grab), and always absorb zero-weight items while still
        // below the target so empty prefixes don't pin the boundary.
        while i < weights.len() {
            let next = prefix + weights[i];
            let d_now = (prefix as f64 - target).abs();
            let d_next = (next as f64 - target).abs();
            let free_skip = weights[i] == 0 && (prefix as f64) < target;
            if d_next < d_now || free_skip {
                prefix = next;
                i += 1;
            } else {
                break;
            }
        }
        bounds.push(i);
    }
    bounds.push(weights.len());
    Partition::from_bounds(bounds, weights.len())
}

/// Convenience: an even split (`shares = 1/P`), the standard-method target.
pub fn partition_evenly(weights: &[u64], p: usize) -> Partition {
    partition_by_shares(weights, &vec![1.0 / p as f64; p])
}

/// Extrapolate item weights `horizon` iterations ahead using per-item
/// growth rates (weight units per iteration; negative rates clamp at the
/// current weight — items never anticipate shrinking below what they are).
///
/// This is the spatial analogue of ULBA's anticipation: partitioning on
/// *predicted* weights places boundaries where they will be balanced, not
/// where they were. Growing regions (e.g. an eroding rock frontier) appear
/// heavier and are less likely to be split across the PE that was just
/// underloaded and an unsuspecting neighbour.
pub fn predicted_weights(weights: &[u64], rates: &[f64], horizon: f64) -> Vec<u64> {
    assert_eq!(weights.len(), rates.len(), "one rate per item");
    assert!(horizon >= 0.0 && horizon.is_finite());
    weights
        .iter()
        .zip(rates)
        .map(|(&w, &r)| {
            let growth = (r * horizon).max(0.0);
            w.saturating_add(growth.round() as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_uniform_weights() {
        let weights = vec![1u64; 100];
        let part = partition_evenly(&weights, 4);
        assert_eq!(part.bounds(), &[0, 25, 50, 75, 100]);
        assert_eq!(part.range_weights(&weights), vec![25, 25, 25, 25]);
        assert_eq!(part.imbalance(&weights), 0.0);
    }

    #[test]
    fn skewed_weights_balanced_by_weight_not_count() {
        // First 10 items carry weight 10, the rest weight 1.
        let mut weights = vec![1u64; 100];
        for w in weights.iter_mut().take(10) {
            *w = 10;
        }
        let part = partition_evenly(&weights, 2);
        let loads = part.range_weights(&weights);
        let total: u64 = weights.iter().sum();
        assert!((loads[0] as f64 - total as f64 / 2.0).abs() <= 10.0);
        assert!(part.range(0).len() < part.range(1).len());
    }

    #[test]
    fn shares_drive_the_split() {
        let weights = vec![1u64; 100];
        // 20 % / 80 %.
        let part = partition_by_shares(&weights, &[0.2, 0.8]);
        assert_eq!(part.bounds(), &[0, 20, 100]);
    }

    #[test]
    fn ulba_shares_underload_the_overloader() {
        let weights = vec![1u64; 120];
        // PE 1 is overloading with α = 0.5 among P = 3 → shares from Alg. 2:
        let d = crate::shares::compute_shares(&[0.0, 0.5, 0.0]);
        let part = partition_by_shares(&weights, &d.shares);
        let loads = part.range_weights(&weights);
        // (1+0.25)/3 = 50, (1−0.5)/3·120 = 20, 50.
        assert_eq!(loads, vec![50, 20, 50]);
    }

    #[test]
    fn zero_weight_prefix_and_suffix() {
        let weights = vec![0, 0, 5, 5, 0, 0];
        let part = partition_evenly(&weights, 2);
        let loads = part.range_weights(&weights);
        assert_eq!(loads.iter().sum::<u64>(), 10);
        assert_eq!(loads[0], 5);
        assert_eq!(loads[1], 5);
    }

    #[test]
    fn more_ranges_than_items_yields_empty_ranges() {
        let weights = vec![1u64, 1];
        let part = partition_evenly(&weights, 4);
        assert_eq!(part.num_ranges(), 4);
        let loads = part.range_weights(&weights);
        assert_eq!(loads.iter().sum::<u64>(), 2);
        // Bounds stay monotone; some ranges are empty.
        assert!(part.bounds().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn owner_lookup_matches_ranges() {
        let weights = vec![3u64, 1, 1, 1, 3, 1, 1, 1];
        let part = partition_evenly(&weights, 3);
        for rank in 0..part.num_ranges() {
            for idx in part.range(rank) {
                assert_eq!(part.owner(idx), rank, "idx {idx}");
            }
        }
    }

    #[test]
    fn total_weight_conserved_for_random_inputs() {
        // Deterministic pseudo-random weights (LCG) — no rand dependency in
        // the hot path test.
        let mut x = 12345u64;
        let weights: Vec<u64> = (0..500)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x >> 59 // 0..=31
            })
            .collect();
        for p in [1usize, 2, 7, 32] {
            let part = partition_evenly(&weights, p);
            assert_eq!(
                part.range_weights(&weights).iter().sum::<u64>(),
                weights.iter().sum::<u64>(),
                "P={p}"
            );
        }
    }

    #[test]
    fn imbalance_metric() {
        let weights = vec![4u64, 1, 1, 1, 1];
        let part = Partition::from_bounds(vec![0, 1, 5], 5);
        // loads: [4, 4] → perfectly balanced.
        assert_eq!(part.imbalance(&weights), 0.0);
        let bad = Partition::from_bounds(vec![0, 4, 5], 5);
        // loads: [7, 1], mean 4 → imbalance 0.75.
        assert!((bad.imbalance(&weights) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bounds must be sorted")]
    fn invalid_bounds_rejected() {
        Partition::from_bounds(vec![0, 5, 3, 10], 10);
    }

    #[test]
    fn ensure_nonempty_fixes_empty_ranges() {
        for bounds in [vec![0, 0, 0, 10], vec![0, 10, 10, 10], vec![0, 0, 10, 10]] {
            let part = Partition::from_bounds(bounds, 10).ensure_nonempty();
            for r in 0..part.num_ranges() {
                assert!(!part.range(r).is_empty(), "range {r} empty: {:?}", part.bounds());
            }
            assert_eq!(*part.bounds().last().unwrap(), 10);
            assert_eq!(part.bounds()[0], 0);
        }
    }

    #[test]
    fn ensure_nonempty_keeps_valid_partitions() {
        let part = Partition::from_bounds(vec![0, 3, 7, 10], 10);
        assert_eq!(part.clone().ensure_nonempty(), part);
    }

    #[test]
    fn clones_share_their_bounds() {
        // One allocation no matter how many ranks hold the partition — the
        // whole point of the Arc-backed bounds.
        let part = Partition::from_bounds(vec![0, 3, 7, 10], 10);
        let a = part.clone();
        let b = part.clone().ensure_nonempty(); // valid: no copy either
        assert!(std::ptr::eq(part.bounds().as_ptr(), a.bounds().as_ptr()));
        assert!(std::ptr::eq(part.bounds().as_ptr(), b.bounds().as_ptr()));
        // An actual repair allocates fresh bounds and leaves the original.
        let broken = Partition::from_bounds(vec![0, 0, 10], 10);
        let fixed = broken.clone().ensure_nonempty();
        assert!(!std::ptr::eq(broken.bounds().as_ptr(), fixed.bounds().as_ptr()));
        assert_eq!(broken.bounds(), &[0, 0, 10], "source partition untouched");
    }

    #[test]
    fn ensure_nonempty_tight_fit() {
        // len == P: everyone gets exactly one item.
        let part = Partition::from_bounds(vec![0, 0, 0, 3], 3).ensure_nonempty();
        assert_eq!(part.bounds(), &[0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot give")]
    fn ensure_nonempty_rejects_too_few_items() {
        Partition::from_bounds(vec![0, 1, 2, 2], 2).ensure_nonempty();
    }

    #[test]
    fn predicted_weights_extrapolate() {
        let w = vec![10u64, 10, 10];
        let rates = vec![0.0, 2.5, -4.0];
        let pred = predicted_weights(&w, &rates, 4.0);
        assert_eq!(pred, vec![10, 20, 10], "negative rates clamp at current weight");
    }

    #[test]
    fn predicted_weights_zero_horizon_is_identity() {
        let w = vec![3u64, 7, 11];
        assert_eq!(predicted_weights(&w, &[5.0, 5.0, 5.0], 0.0), w);
    }

    #[test]
    fn prediction_balances_the_future_not_the_present() {
        // 20 uniform items; items 2 and 3 grow by 10/iteration. Splitting on
        // current weights is balanced *now* but lopsided at the horizon;
        // splitting on predicted weights underloads the growing side exactly
        // enough to be balanced *then* — ULBA's effect, derived from weights.
        let w = vec![10u64; 20];
        let mut rates = vec![0.0f64; 20];
        rates[2] = 10.0;
        rates[3] = 10.0;
        let horizon = 5.0;
        let future = predicted_weights(&w, &rates, horizon);

        let naive = partition_evenly(&w, 2);
        let anticipatory = partition_by_shares(&future, &[0.5, 0.5]);

        assert!(
            anticipatory.imbalance(&future) < naive.imbalance(&future),
            "anticipatory split must be better balanced at the horizon: {} vs {}",
            anticipatory.imbalance(&future),
            naive.imbalance(&future)
        );
        // And the growing side starts underloaded, like an ULBA step.
        let now_loads = anticipatory.range_weights(&w);
        assert!(now_loads[0] < now_loads[1]);
    }

    #[test]
    #[should_panic(expected = "one rate per item")]
    fn predicted_weights_length_mismatch() {
        predicted_weights(&[1, 2], &[0.0], 1.0);
    }
}
