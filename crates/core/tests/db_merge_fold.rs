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
//!
//! Gossip sends a [`WirView`] rather than a slice, so the same property is
//! pinned for `merge_view`: on both of its paths (two complete runs are
//! decided 64 ranks at a time, anything else takes the gap walk), for the
//! `f64` corners of the freshness rule, and across the copy-on-write
//! sharing of the sender's run.

use proptest::collection::vec;
use proptest::prelude::*;
use ulba_core::db::{WirDatabase, WirEntry, WirView};

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

/// A view's entries as `(rank, wir bits, iteration)`: `NaN` equals itself
/// and `-0.0` differs from `0.0`, so a merge that keeps the wrong one of
/// two `==`-equal values is caught.
fn bits(entries: impl IntoIterator<Item = WirEntry>) -> Vec<(usize, u64, u64)> {
    entries.into_iter().map(|e| (e.rank, e.wir.to_bits(), e.iteration)).collect()
}

/// [`assert_same_down_to_the_clock`], comparing `wir` bit for bit.
fn assert_same_bits(merged: &WirDatabase, folded: &WirDatabase) {
    assert_eq!(bits(merged.entries()), bits(folded.entries()), "entries diverged");
    assert_eq!(merged.version(), folded.version(), "a tick was lost, added or reordered");
    for watermark in 0..=folded.version() {
        assert_eq!(
            bits(merged.delta_since(watermark)),
            bits(folded.delta_since(watermark)),
            "delta_since({watermark}) diverged"
        );
    }
}

/// Merge `view` into `receiver` three ways — `merge_view`, `merge` of the
/// materialized entries, and the fold of `update` — and check that all
/// three agree down to the clock, bit for bit.
fn merge_three_ways(receiver: &mut WirDatabase, view: &WirView) {
    let payload = view.to_vec();
    assert_eq!(payload.len(), view.len());
    assert_eq!(bits(view.entries()), bits(payload.iter().copied()));
    let mut sliced = receiver.clone();
    sliced.merge(&payload);
    let mut folded = receiver.clone();
    for &e in &payload {
        folded.update(e);
    }
    receiver.merge_view(view);
    assert_same_bits(receiver, &folded);
    assert_same_bits(&sliced, &folded);
}

/// A deterministic stream of small numbers (SplitMix64), so the hand-built
/// cases below need no RNG crate.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// A `wir` from a pool that holds the `f64` corners of the freshness
    /// rule: `0.0` and `-0.0` (equal, different bits), `NaN` (unequal to
    /// itself) and two ordinary values.
    fn wir(&mut self) -> f64 {
        [0.0, -0.0, f64::NAN, 1.0, 2.5][self.below(5) as usize]
    }

    fn entry(&mut self, rank: usize) -> WirEntry {
        WirEntry { rank, wir: self.wir(), iteration: self.below(3) }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every payload is also sent as a view: the sender folds it in, then
    /// hands out a view from a watermark anywhere in its history (0 = the
    /// full snapshot), and the receiver merges that view.
    #[test]
    fn merge_view_is_the_fold_of_update(
        size in 1usize..40,
        known in vec((0usize..1024, 0u8..3, 0u64..6), 0..120),
        sender_known in vec((0usize..1024, 0u8..3, 0u64..6), 0..120),
        payloads in vec((vec((0usize..1024, 0u8..3, 0u64..6), 0..80), 0u8..3), 1..5),
        marks in vec(any::<u64>(), 5..6),
    ) {
        let mut receiver = WirDatabase::new(size);
        receiver.merge(&entries(size, &known));
        let mut sender = WirDatabase::new(size);
        sender.merge(&entries(size, &sender_known));
        for ((raw, shape), mark) in payloads.iter().zip(&marks) {
            sender.merge(&shaped(entries(size, raw), *shape));
            let since = mark % (sender.version() + 1);
            let view = sender.view_since(since);
            prop_assert_eq!(view.to_vec(), sender.delta_since(since));
            merge_three_ways(&mut receiver, &view);
        }
    }
}

/// Two complete runs take the decide/apply path. Sizes straddle the
/// 64-rank chunk: one chunk, a chunk exactly, one past it, two past two.
#[test]
fn complete_runs_merge_as_the_fold_at_every_chunk_edge() {
    for size in [1usize, 63, 64, 65, 130] {
        let mut stream = Stream(size as u64);
        let complete = |stream: &mut Stream| {
            let mut db = WirDatabase::new(size);
            for rank in 0..size {
                db.update(stream.entry(rank));
            }
            assert!(db.is_complete());
            db
        };
        let mut receiver = complete(&mut stream);
        let mut sender = complete(&mut stream);
        for round in 0..12 {
            // Refresh a random third of the sender, then send it from a
            // random watermark (the full view every fourth round).
            for _ in 0..size.div_ceil(3) {
                let rank = stream.below(size as u64) as usize;
                sender.update(WirEntry { iteration: stream.below(4), ..stream.entry(rank) });
            }
            let since = if round % 4 == 0 { 0 } else { stream.below(sender.version() + 1) };
            merge_three_ways(&mut receiver, &sender.view_since(since));
        }
    }
}

/// The freshness rule's `f64` corners through the decide pass: `-0.0`
/// does not replace `0.0` (they are `==`), `NaN` replaces anything and is
/// replaced by anything at the same iteration (it is `!=` even to itself),
/// a differing `wir` at the same iteration replaces, a stale one does not.
#[test]
fn the_decide_pass_compares_wir_as_f64() {
    let size = 65;
    let e = |rank, wir, iteration| WirEntry { rank, wir, iteration };
    let mut receiver = WirDatabase::new(size);
    let mut sender = WirDatabase::new(size);
    for rank in 0..size {
        receiver.update(e(rank, 0.0, 5));
        // The sender holds -0.0 where the receiver holds 0.0: `==`, so no
        // change, though the bits differ.
        sender.update(e(rank, if rank == 0 { -0.0 } else { 0.0 }, 5));
    }
    sender.update(e(1, f64::NAN, 5));
    sender.update(e(2, 1.0, 5));
    sender.update(e(3, 7.0, 4)); // stale: ignored by the sender already
    sender.update(e(64, 2.0, 6)); // the second chunk's only rank
    assert_eq!(sender.version(), size as u64 + 3);
    let before = receiver.version();
    let view = sender.view();
    merge_three_ways(&mut receiver, &view);
    assert_eq!(receiver.version(), before + 3, "NaN, 1.0 and the fresher entry change");
    assert_eq!(receiver.get(0).unwrap().wir.to_bits(), 0.0f64.to_bits(), "kept its own 0.0");
    assert!(receiver.get(1).unwrap().wir.is_nan());
    // The same view again: only the NaN changes again.
    merge_three_ways(&mut receiver, &view);
    assert_eq!(receiver.version(), before + 4);
    // And -0.0 at the NaN's rank replaces it.
    let mut zero = sender.clone();
    zero.update(e(1, -0.0, 5));
    merge_three_ways(&mut receiver, &zero.view_since(sender.version()));
    assert_eq!(receiver.get(1).unwrap().wir.to_bits(), (-0.0f64).to_bits());
}

/// A view of an incomplete sender merged into a complete receiver (the
/// gap walk, finding every rank), and a complete sender's view into an
/// incomplete receiver (the gap walk, inserting).
#[test]
fn views_of_incomplete_runs_merge_as_the_fold() {
    for size in [63usize, 64, 130] {
        let mut stream = Stream(7 * size as u64);
        let mut complete = WirDatabase::new(size);
        for rank in 0..size {
            complete.update(stream.entry(rank));
        }
        let mut sparse = WirDatabase::new(size);
        for rank in (0..size).step_by(3) {
            sparse.update(WirEntry { iteration: 2, ..stream.entry(rank) });
        }
        let sparse_view = sparse.view();
        merge_three_ways(&mut complete, &sparse_view);
        let mut half = WirDatabase::new(size);
        for rank in (0..size).step_by(2) {
            half.update(stream.entry(rank));
        }
        merge_three_ways(&mut half, &complete.view_since(size as u64 / 2));
        merge_three_ways(&mut half, &complete.view());
        assert!(half.is_complete());
    }
}

/// Copy-on-write: a view taken before its sender's next `update`, `merge`
/// or `merge_view` still yields the entries as they were at send time,
/// and merging it elsewhere never changes the sender.
#[test]
fn a_view_keeps_its_send_time_entries() {
    let e = |rank, wir, iteration| WirEntry { rank, wir, iteration };
    for size in [4usize, 64, 65] {
        let mut sender = WirDatabase::new(size);
        for rank in (0..size).step_by(2) {
            sender.update(e(rank, 1.0, 1));
        }
        let mut other = WirDatabase::new(size);
        for rank in 0..size {
            other.update(e(rank, 9.0, 3));
        }
        let sent = sender.snapshot();
        let full = sender.view();
        let delta = sender.view_since(1);
        let delta_sent = sender.delta_since(1);

        sender.update(e(0, 2.0, 2));
        sender.merge(&[e(1, 3.0, 2)]);
        sender.merge_view(&other.view());
        assert!(sender.is_complete());
        assert_eq!(full.to_vec(), sent, "size {size}: a full view saw a later change");
        assert_eq!(delta.to_vec(), delta_sent, "size {size}: a delta view saw a later change");

        let (after, version) = (sender.snapshot(), sender.version());
        let mut receiver = WirDatabase::new(size);
        receiver.merge_view(&full);
        receiver.merge_view(&sender.view());
        other.merge_view(&sender.view_since(version / 2));
        assert_eq!(receiver.snapshot(), after);
        assert_eq!((sender.snapshot(), sender.version()), (after, version), "size {size}");
    }
}
