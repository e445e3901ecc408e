//! Sparse-vs-dense `WirDatabase` equivalence.
//!
//! The seed tree stored the §III-C database densely (`Vec<Option<WirEntry>>`
//! indexed by rank, `O(P)` per instance); the live implementation is a
//! sorted sparse run with change versioning. This suite ports the dense
//! implementation verbatim as a test-only oracle and drives both through
//! arbitrary interleavings of `update` / `merge` / `snapshot`, asserting
//! identical *observable* state after every step — entries, `known_count`,
//! `max_staleness`, snapshot order, the dense default-filled view — plus
//! the delta invariant the dense code never needed: replaying only
//! `delta_since(watermark)` into a second database reconstructs the
//! original exactly.

use proptest::collection::vec;
use proptest::prelude::*;
use ulba_core::db::{WirDatabase, WirEntry};

/// The seed tree's dense rank-indexed database, ported as the oracle.
#[derive(Debug, Clone, PartialEq)]
struct DenseOracle {
    entries: Vec<Option<WirEntry>>,
}

impl DenseOracle {
    fn new(size: usize) -> Self {
        Self { entries: vec![None; size] }
    }

    fn update(&mut self, entry: WirEntry) {
        assert!(entry.rank < self.entries.len());
        match &self.entries[entry.rank] {
            Some(existing) if existing.iteration > entry.iteration => {}
            _ => self.entries[entry.rank] = Some(entry),
        }
    }

    fn merge(&mut self, snapshot: &[WirEntry]) {
        for &e in snapshot {
            self.update(e);
        }
    }

    fn get(&self, rank: usize) -> Option<WirEntry> {
        self.entries[rank]
    }

    fn snapshot(&self) -> Vec<WirEntry> {
        self.entries.iter().flatten().copied().collect()
    }

    fn known_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    fn is_complete(&self) -> bool {
        self.known_count() == self.entries.len()
    }

    fn wirs_or(&self, default: f64) -> Vec<f64> {
        self.entries.iter().map(|e| e.map_or(default, |e| e.wir)).collect()
    }

    fn max_staleness(&self, current_iteration: u64) -> Option<u64> {
        self.entries.iter().flatten().map(|e| current_iteration.saturating_sub(e.iteration)).max()
    }
}

/// Raw generated entry; `rank` is reduced modulo the generated size at
/// apply time (the vendored proptest has no flat_map for size-dependent
/// strategies).
type RawEntry = (usize, f64, u64);

fn entry(size: usize, raw: RawEntry) -> WirEntry {
    WirEntry { rank: raw.0 % size, wir: raw.1, iteration: raw.2 }
}

/// Assert every observable accessor agrees between oracle and sparse db.
fn assert_observably_equal(oracle: &DenseOracle, sparse: &WirDatabase) {
    assert_eq!(oracle.known_count(), sparse.known_count());
    assert_eq!(oracle.is_complete(), sparse.is_complete());
    assert_eq!(oracle.snapshot(), sparse.snapshot(), "snapshot content or order diverged");
    assert_eq!(oracle.snapshot(), sparse.entries().collect::<Vec<_>>());
    for rank in 0..sparse.size() {
        assert_eq!(oracle.get(rank), sparse.get(rank), "rank {rank}");
    }
    for default in [0.0, -7.5] {
        assert_eq!(oracle.wirs_or(default), sparse.wirs_or(default));
    }
    for current in [0u64, 25, 1000] {
        assert_eq!(oracle.max_staleness(current), sparse.max_staleness(current));
    }
    assert_eq!(sparse.snapshot_bytes(), sparse.known_count() * std::mem::size_of::<WirEntry>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary interleavings of single updates (merges of length 1) and
    /// batch merges: the sparse database and the dense oracle must stay
    /// observably identical after every operation, and a mirror fed only
    /// deltas must reconstruct the database exactly.
    #[test]
    fn sparse_database_matches_dense_oracle(
        size in 1usize..24,
        ops in vec(vec((0usize..64, -1.0e6f64..1.0e6, 0u64..60), 0..8), 1..32),
    ) {
        let mut oracle = DenseOracle::new(size);
        let mut sparse = WirDatabase::new(size);
        // The delta mirror: hears nothing but `delta_since(watermark)`.
        let mut mirror = WirDatabase::new(size);
        let mut watermark = 0u64;
        for op in &ops {
            let batch: Vec<WirEntry> = op.iter().map(|&raw| entry(size, raw)).collect();
            match batch.as_slice() {
                [single] => {
                    oracle.update(*single);
                    sparse.update(*single);
                }
                _ => {
                    oracle.merge(&batch);
                    sparse.merge(&batch);
                }
            }
            assert_observably_equal(&oracle, &sparse);
            // Versions are strictly monotone and deltas carry exactly the
            // news: merging them (and nothing else) tracks the database.
            let delta = sparse.delta_since(watermark);
            prop_assert!(delta.len() as u64 <= sparse.version() - watermark);
            mirror.merge(&delta);
            watermark = sparse.version();
            prop_assert_eq!(&mirror, &sparse, "delta replay diverged");
        }
        prop_assert_eq!(sparse.delta_since(0), sparse.snapshot());
        prop_assert!(sparse.delta_since(sparse.version()).is_empty());
    }

    /// Merge algebra on the sparse database alone: idempotent, and
    /// insensitive to batch order in its final observable state.
    #[test]
    fn sparse_merges_are_idempotent_and_commute(
        size in 1usize..16,
        a in vec((0usize..64, -1.0e3f64..1.0e3, 0u64..20), 0..20),
        b in vec((0usize..64, -1.0e3f64..1.0e3, 0u64..20), 0..20),
    ) {
        let mut a: Vec<WirEntry> = a.into_iter().map(|raw| entry(size, raw)).collect();
        let mut b: Vec<WirEntry> = b.into_iter().map(|raw| entry(size, raw)).collect();
        // Entry values are a function of (rank, iteration) in real runs (a
        // rank is the sole producer of its own WIR — equal-iteration ties
        // always carry equal values), so canonicalize the generated batches
        // *jointly*: without this, an (rank, iteration) pair carrying
        // different values in `a` and `b` would make the tie-overwrite rule
        // legitimately order-dependent.
        let mut canon = std::collections::HashMap::new();
        for e in a.iter().chain(b.iter()) {
            canon.insert((e.rank, e.iteration), e.wir);
        }
        for e in a.iter_mut().chain(b.iter_mut()) {
            e.wir = canon[&(e.rank, e.iteration)];
        }
        let mut ab = WirDatabase::new(size);
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = WirDatabase::new(size);
        ba.merge(&b);
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "merge must commute batch-wise");
        let mut again = ab.clone();
        again.merge(&a);
        again.merge(&b);
        prop_assert_eq!(&again, &ab, "merge must be idempotent");
    }
}

/// Hand-written regression: the exact overwrite/staleness corner cases of
/// the dense seed tests, driven through both implementations side by side.
#[test]
fn oracle_agrees_on_freshness_corner_cases() {
    let mut oracle = DenseOracle::new(3);
    let mut sparse = WirDatabase::new(3);
    let steps = [
        WirEntry { rank: 0, wir: 1.0, iteration: 5 },
        WirEntry { rank: 0, wir: 2.0, iteration: 3 }, // stale: ignored
        WirEntry { rank: 0, wir: 3.0, iteration: 5 }, // tie: overwrite
        WirEntry { rank: 2, wir: 4.0, iteration: 0 },
        WirEntry { rank: 1, wir: 5.0, iteration: 9 },
        WirEntry { rank: 2, wir: 4.0, iteration: 0 }, // identical: no-op
    ];
    for e in steps {
        oracle.update(e);
        sparse.update(e);
        assert_observably_equal(&oracle, &sparse);
    }
    assert_eq!(sparse.known_count(), 3);
    assert!(sparse.is_complete());
}
