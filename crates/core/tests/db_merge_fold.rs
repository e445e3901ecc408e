//! `WirDatabase::merge` ≡ the fold of `update`, down to the change clock.
//!
//! `db_equiv.rs` compares observable state (entries, dense view,
//! staleness). That is not enough for the run-merge: delta gossip sends
//! `delta_since(watermark)`, so the *tick each change received* decides
//! payload sizes, wire charges and with them virtual makespans. This suite
//! pins the stronger property: after any sequence of merges, a database
//! and a reference fed `for e in payload { update(e) }` hold identical
//! entries, an identical `version()`, and an identical `delta_since(w)` for
//! every watermark `w`.

use proptest::collection::vec;
use proptest::prelude::*;
use ulba_core::db::{WirDatabase, WirEntry};

/// `(rank, wir, iteration)`; `rank` is reduced modulo the generated size.
/// `wir` and `iteration` come from tiny ranges so that stale, identical,
/// equal-iteration-new-value and fresher entries all occur often.
type RawEntry = (usize, u8, u64);

fn entries(size: usize, raw: &[RawEntry]) -> Vec<WirEntry> {
    raw.iter()
        .map(|&(rank, wir, iteration)| WirEntry { rank: rank % size, wir: wir as f64, iteration })
        .collect()
}

/// Payload orders: as generated (shuffled, with duplicate ranks), the
/// rank-ordered run gossip sends (stable, so duplicates keep their order),
/// and strictly the wrong way round (every entry restarts the walk).
fn shaped(mut payload: Vec<WirEntry>, shape: u8) -> Vec<WirEntry> {
    match shape {
        0 => {}
        1 => payload.sort_by_key(|e| e.rank),
        _ => payload.sort_by_key(|e| std::cmp::Reverse(e.rank)),
    }
    payload
}

fn assert_same_down_to_the_clock(merged: &WirDatabase, folded: &WirDatabase) {
    assert_eq!(merged.snapshot(), folded.snapshot(), "entries diverged");
    assert_eq!(merged.version(), folded.version(), "a tick was lost, added or reordered");
    for watermark in 0..=folded.version() {
        assert_eq!(
            merged.delta_since(watermark),
            folded.delta_since(watermark),
            "delta_since({watermark}) diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `known` spans "none" (every payload rank is new) to several times
    /// `size` (no payload rank is new); payloads up to twice `size` repeat
    /// ranks freely.
    #[test]
    fn merge_is_the_fold_of_update(
        size in 1usize..40,
        known in vec((0usize..1024, 0u8..3, 0u64..6), 0..120),
        payloads in vec((vec((0usize..1024, 0u8..3, 0u64..6), 0..80), 0u8..3), 1..5),
    ) {
        let mut merged = WirDatabase::new(size);
        for e in entries(size, &known) {
            merged.update(e);
        }
        let mut folded = merged.clone();
        for (raw, shape) in &payloads {
            let payload = shaped(entries(size, raw), *shape);
            merged.merge(&payload);
            for &e in &payload {
                folded.update(e);
            }
            assert_same_down_to_the_clock(&merged, &folded);
        }
    }
}

/// The corners by hand: new ranks before, between and after the known run,
/// a new rank repeated, a known rank repeated, and a descent mid-payload.
#[test]
fn merge_corner_cases_match_the_fold() {
    let e = |rank, wir, iteration| WirEntry { rank, wir, iteration };
    let payloads: [&[WirEntry]; 5] = [
        &[e(0, 1.0, 1), e(3, 1.0, 1), e(4, 1.0, 1), e(9, 1.0, 1)],
        &[e(1, 1.0, 1), e(1, 2.0, 1), e(1, 0.0, 0), e(5, 9.0, 9), e(5, 9.0, 9), e(5, 1.0, 9)],
        &[e(7, 1.0, 1), e(8, 1.0, 1), e(2, 1.0, 1), e(6, 1.0, 1), e(0, 5.0, 5)],
        &[],
        &[e(9, 2.0, 2), e(8, 2.0, 2), e(7, 2.0, 2)],
    ];
    let mut merged = WirDatabase::new(10);
    for known in [e(3, 0.0, 0), e(5, 0.0, 0)] {
        merged.update(known);
    }
    let mut folded = merged.clone();
    for payload in payloads {
        merged.merge(payload);
        for &entry in payload {
            folded.update(entry);
        }
        assert_same_down_to_the_clock(&merged, &folded);
    }
    assert!(merged.is_complete());
}
