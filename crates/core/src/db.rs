//! The per-PE WIR database of §III-C — sparse, versioned storage.
//!
//! "each PE keeps a database that stores the WIR of every PE. Each PE
//! evaluates its WIR and propagates it (as well as the most recent WIRs in
//! its database) to the other PEs using a dissemination algorithm."
//!
//! The paper's phrasing suggests a dense rank-indexed table, which is what
//! this module used to be — `O(P)` per rank and therefore `O(P²)` across a
//! run (~8.6 GB of entries at `P = 16384`). Epidemic dissemination only
//! ever *writes* the entries a rank has actually heard (Demers et al.'s
//! anti-entropy push), so the database is now a sorted run of known entries
//! keyed by rank: memory is proportional to what gossip touched, lookups
//! are binary searches, and every observable behaviour (freshness merge,
//! deterministic rank-ordered snapshots, staleness accounting, the dense
//! default-filled WIR view) is unchanged.
//!
//! Entries are versioned by the iteration at which they were measured; a
//! merge keeps the freshest entry per rank (last-writer-wins on iteration,
//! deterministic tie-break on the value). Orthogonally, the database keeps
//! a local *change clock*: every observable change (insert or overwrite)
//! stamps the entry with the next clock tick, which is what delta gossip
//! ([`crate::gossip::GossipOutbox`]) uses to send a peer only the entries
//! it cannot have seen yet.

use serde::{Deserialize, Serialize};

/// One database entry: the WIR of `rank` as measured at `iteration`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WirEntry {
    /// The rank this entry describes.
    pub rank: usize,
    /// Workload-increase rate (FLOP/iteration).
    pub wir: f64,
    /// Iteration at which the WIR was measured (freshness version).
    pub iteration: u64,
}

/// Wire size of a gossip payload of `entries`, in bytes (used to charge
/// gossip communication — honest accounting for exactly what is sent).
pub fn wire_bytes(entries: &[WirEntry]) -> usize {
    std::mem::size_of_val(entries)
}

/// A known entry plus the local change-clock tick at which it last changed.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Slot {
    entry: WirEntry,
    version: u64,
}

impl Slot {
    /// The freshness rule for a rank that already has a slot: a stale
    /// (older-iteration) or identical `entry` changes nothing; anything
    /// else overwrites and takes the next tick of `clock`.
    fn refresh(&mut self, entry: WirEntry, clock: &mut u64) {
        if self.entry.iteration > entry.iteration || self.entry == entry {
            return;
        }
        *clock += 1;
        *self = Slot { entry, version: *clock };
    }
}

/// A sparse, versioned WIR database with freshness-based merging.
///
/// Stores only the entries this PE has heard about, as a run sorted by
/// rank. Equality ([`PartialEq`]) compares *observable* state — the size
/// and the entries — never the internal change clock, so two databases
/// that heard the same facts through different message schedules compare
/// equal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WirDatabase {
    /// Number of ranks the database covers (the dense capacity).
    size: usize,
    /// Known entries, sorted by `entry.rank` (at most one per rank).
    slots: Vec<Slot>,
    /// Local change clock: bumped on every observable change.
    clock: u64,
}

impl PartialEq for WirDatabase {
    fn eq(&self, other: &Self) -> bool {
        self.size == other.size
            && self.slots.len() == other.slots.len()
            && self.slots.iter().zip(&other.slots).all(|(a, b)| a.entry == b.entry)
    }
}

impl WirDatabase {
    /// An empty database for `size` ranks. Allocates nothing until entries
    /// arrive — the footprint is `O(known entries)`, not `O(size)`.
    pub fn new(size: usize) -> Self {
        Self { size, slots: Vec::new(), clock: 0 }
    }

    /// Number of ranks the database covers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Record (or refresh) an entry. Stale updates (older iteration than the
    /// stored entry) are ignored; equal-iteration updates overwrite (the
    /// newest local measurement wins). Only observable changes advance the
    /// change clock: re-learning an identical fact leaves the version
    /// untouched, so deltas never resend it.
    pub fn update(&mut self, entry: WirEntry) {
        assert!(entry.rank < self.size, "rank {} out of range", entry.rank);
        match self.slots.binary_search_by_key(&entry.rank, |s| s.entry.rank) {
            Ok(i) => self.slots[i].refresh(entry, &mut self.clock),
            Err(i) => {
                self.clock += 1;
                self.slots.insert(i, Slot { entry, version: self.clock });
            }
        }
    }

    /// Merge a payload (e.g. received via gossip): observably — entries,
    /// [`version`](Self::version) and every later
    /// [`delta_since`](Self::delta_since) — the fold of
    /// [`update`](Self::update) over `payload` in slice order, change-clock
    /// ticks included.
    ///
    /// Gossip payloads are rank-ordered runs ([`snapshot`](Self::snapshot),
    /// [`delta_since`](Self::delta_since)) and so is the database, so the
    /// two are walked together: while `payload` ascends by rank (repeats
    /// allowed) the whole merge costs `O(known + payload)` slot visits,
    /// *including* when it brings new ranks — the first one opens a gap in
    /// the run wide enough for every insert the rest of the payload can
    /// still make (at most one growth of the run, none when no rank is
    /// new), slots are moved down across the gap as the walk passes them,
    /// and the gap's unused rest is closed at the end. Order is not a
    /// precondition: an entry whose rank is below its predecessor's closes
    /// the gap and restarts the walk from the front, so any slice merges
    /// correctly and only pays one more `O(known)` walk per descent.
    pub fn merge(&mut self, payload: &[WirEntry]) {
        // `slots[..write]` is merged output, `slots[read..]` the part of the
        // run the walk has not reached, and between them lies the gap
        // (empty — `write == read` — until a new rank needs room).
        let (mut write, mut read) = (0, 0);
        let mut prev_rank = 0;
        for (done, &entry) in payload.iter().enumerate() {
            assert!(entry.rank < self.size, "rank {} out of range", entry.rank);
            if entry.rank < prev_rank {
                self.close_gap(write, read);
                (write, read) = (0, 0);
            }
            prev_rank = entry.rank;
            while read < self.slots.len() && self.slots[read].entry.rank < entry.rank {
                self.slots[write] = self.slots[read];
                write += 1;
                read += 1;
            }
            // The slot of `entry.rank`, if it has one: the next of the run,
            // or (a rank new to the run, repeated) the one just written.
            let known = if self.slots.get(read).is_some_and(|s| s.entry.rank == entry.rank) {
                Some(read)
            } else {
                write.checked_sub(1).filter(|&last| self.slots[last].entry.rank == entry.rank)
            };
            match known {
                Some(i) => self.slots[i].refresh(entry, &mut self.clock),
                None => {
                    self.clock += 1;
                    let slot = Slot { entry, version: self.clock };
                    if write == read {
                        // Every later insert is a distinct unknown rank
                        // brought by a later payload entry.
                        let len = self.slots.len();
                        let room = (payload.len() - done).min(self.size - len);
                        self.slots.resize(len + room, slot);
                        self.slots.copy_within(read..len, read + room);
                        read += room;
                    }
                    self.slots[write] = slot;
                    write += 1;
                }
            }
        }
        self.close_gap(write, read);
    }

    /// Move the unread rest of the run down over what is left of the gap.
    fn close_gap(&mut self, write: usize, read: usize) {
        if write != read {
            self.slots.copy_within(read.., write);
            self.slots.truncate(self.slots.len() - (read - write));
        }
    }

    /// The freshest entry known for `rank`.
    pub fn get(&self, rank: usize) -> Option<WirEntry> {
        assert!(rank < self.size, "rank {rank} out of range");
        self.slots.binary_search_by_key(&rank, |s| s.entry.rank).ok().map(|i| self.slots[i].entry)
    }

    /// All known entries (rank order — deterministic), in one allocation
    /// of exactly `known_count()` entries.
    pub fn snapshot(&self) -> Vec<WirEntry> {
        self.slots.iter().map(|s| s.entry).collect()
    }

    /// Iterate the known entries in rank order, without allocating.
    pub fn entries(&self) -> impl Iterator<Item = WirEntry> + '_ {
        self.slots.iter().map(|s| s.entry)
    }

    /// Current value of the local change clock. Strictly monotone: each
    /// observable change ([`update`](Self::update) that inserts or
    /// overwrites) advances it by one. `0` means "never changed".
    pub fn version(&self) -> u64 {
        self.clock
    }

    /// The entries that changed *after* change-clock tick `since`, in rank
    /// order. `delta_since(0)` is the full snapshot; `delta_since(version())`
    /// is empty. This is the delta-gossip payload: a peer that merged
    /// everything up to `since` needs exactly these entries.
    ///
    /// Extraction scans the run twice — count, then copy — so the payload
    /// is one allocation whose capacity equals its length (none at all for
    /// an empty delta): `O(known)` CPU per call whatever the delta's size,
    /// and about twice [`snapshot`](Self::snapshot)'s scan. The delta wire's
    /// win is the *bytes charged on the wire*, not sender CPU. Growing the
    /// payload entry by entry instead costs a handful of reallocations per
    /// message, each later freed on whichever worker runs the receiver —
    /// measured, that was most of this path's cost on two workers.
    pub fn delta_since(&self, since: u64) -> Vec<WirEntry> {
        let changed = |s: &&Slot| s.version > since;
        let mut delta = Vec::with_capacity(self.slots.iter().filter(changed).count());
        delta.extend(self.slots.iter().filter(changed).map(|s| s.entry));
        delta
    }

    /// Number of ranks with a known entry.
    pub fn known_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether every rank has an entry.
    pub fn is_complete(&self) -> bool {
        self.slots.len() == self.size
    }

    /// Dense WIR vector: unknown ranks default to `default` (rank order).
    ///
    /// Materializes `O(size)` — prefer [`wirs_iter`](Self::wirs_iter) on
    /// hot paths; this remains for consumers that genuinely need the dense
    /// vector (e.g. the median/MAD robust detector, which sorts it anyway).
    pub fn wirs_or(&self, default: f64) -> Vec<f64> {
        self.wirs_iter(default).collect()
    }

    /// Iterate the dense WIR view — `wir` for known ranks, `default` for
    /// unknown ones, in rank order — without materializing it. Yields
    /// exactly the same sequence as [`wirs_or`](Self::wirs_or), so
    /// statistics folded over it (in order) are bit-identical to the dense
    /// path.
    pub fn wirs_iter(&self, default: f64) -> WirsIter<'_> {
        WirsIter { slots: &self.slots, next_rank: 0, size: self.size, default }
    }

    /// Maximum staleness (in iterations) of any known entry relative to
    /// `current_iteration`; `None` if the database is empty.
    pub fn max_staleness(&self, current_iteration: u64) -> Option<u64> {
        self.slots.iter().map(|s| current_iteration.saturating_sub(s.entry.iteration)).max()
    }

    /// Wire size of a full snapshot of this database, in bytes (used to
    /// charge gossip communication when sending full snapshots). For delta
    /// payloads use [`wire_bytes`] on the delta actually sent.
    pub fn snapshot_bytes(&self) -> usize {
        self.known_count() * std::mem::size_of::<WirEntry>()
    }

    /// Approximate resident heap footprint of this database, in bytes
    /// (capacity of the slot run; the point of the sparse layout is that
    /// this is `O(known entries)`, not `O(size)`).
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }
}

/// Iterator of the dense default-filled WIR view (see
/// [`WirDatabase::wirs_iter`]). `Clone` so two-pass statistics (mean, then
/// deviation) can replay the identical sequence.
#[derive(Debug, Clone)]
pub struct WirsIter<'a> {
    slots: &'a [Slot],
    next_rank: usize,
    size: usize,
    default: f64,
}

impl Iterator for WirsIter<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.next_rank >= self.size {
            return None;
        }
        let rank = self.next_rank;
        self.next_rank += 1;
        match self.slots.first() {
            Some(s) if s.entry.rank == rank => {
                self.slots = &self.slots[1..];
                Some(s.entry.wir)
            }
            _ => Some(self.default),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.size - self.next_rank;
        (left, Some(left))
    }
}

impl ExactSizeIterator for WirsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(rank: usize, wir: f64, iteration: u64) -> WirEntry {
        WirEntry { rank, wir, iteration }
    }

    #[test]
    fn update_and_get() {
        let mut db = WirDatabase::new(4);
        db.update(e(2, 5.0, 10));
        assert_eq!(db.get(2), Some(e(2, 5.0, 10)));
        assert_eq!(db.get(0), None);
        assert_eq!(db.known_count(), 1);
        assert!(!db.is_complete());
    }

    #[test]
    fn freshness_wins() {
        let mut db = WirDatabase::new(2);
        db.update(e(0, 1.0, 5));
        db.update(e(0, 2.0, 3)); // stale: ignored
        assert_eq!(db.get(0), Some(e(0, 1.0, 5)));
        db.update(e(0, 3.0, 7)); // fresher: wins
        assert_eq!(db.get(0), Some(e(0, 3.0, 7)));
        db.update(e(0, 4.0, 7)); // same iteration: newest measurement wins
        assert_eq!(db.get(0), Some(e(0, 4.0, 7)));
    }

    #[test]
    fn merge_snapshot() {
        let mut a = WirDatabase::new(3);
        a.update(e(0, 1.0, 4));
        let mut b = WirDatabase::new(3);
        b.update(e(1, 2.0, 6));
        b.update(e(0, 9.0, 2)); // older than a's entry
        a.merge(&b.snapshot());
        assert_eq!(a.get(0), Some(e(0, 1.0, 4)), "stale merge must not regress");
        assert_eq!(a.get(1), Some(e(1, 2.0, 6)));
        assert_eq!(a.known_count(), 2);
    }

    #[test]
    fn dense_vector_with_default() {
        let mut db = WirDatabase::new(3);
        db.update(e(1, 7.0, 1));
        assert_eq!(db.wirs_or(0.0), vec![0.0, 7.0, 0.0]);
    }

    #[test]
    fn wirs_iter_matches_dense_vector() {
        let mut db = WirDatabase::new(6);
        db.update(e(1, 7.0, 1));
        db.update(e(4, 2.0, 3));
        db.update(e(5, 9.0, 2));
        let streamed: Vec<f64> = db.wirs_iter(-1.0).collect();
        assert_eq!(streamed, db.wirs_or(-1.0));
        assert_eq!(db.wirs_iter(0.0).len(), 6);
    }

    #[test]
    fn staleness() {
        let mut db = WirDatabase::new(3);
        assert_eq!(db.max_staleness(10), None);
        db.update(e(0, 1.0, 4));
        db.update(e(1, 1.0, 9));
        assert_eq!(db.max_staleness(10), Some(6));
    }

    #[test]
    fn snapshot_is_rank_ordered() {
        let mut db = WirDatabase::new(4);
        db.update(e(3, 3.0, 1));
        db.update(e(1, 1.0, 1));
        let ranks: Vec<usize> = db.snapshot().iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![1, 3]);
    }

    #[test]
    fn memory_is_proportional_to_known_entries() {
        let mut db = WirDatabase::new(1 << 20);
        for r in 0..10 {
            db.update(e(r * 1000, 1.0, 1));
        }
        assert!(db.resident_bytes() < 4096, "a 2^20-rank db with 10 entries must stay tiny");
    }

    #[test]
    fn version_advances_only_on_observable_change() {
        let mut db = WirDatabase::new(4);
        assert_eq!(db.version(), 0);
        db.update(e(2, 5.0, 10));
        assert_eq!(db.version(), 1);
        db.update(e(2, 5.0, 10)); // identical fact: no change
        assert_eq!(db.version(), 1);
        db.update(e(2, 4.0, 3)); // stale: no change
        assert_eq!(db.version(), 1);
        db.update(e(2, 6.0, 10)); // same iteration, new value: change
        assert_eq!(db.version(), 2);
        db.update(e(0, 1.0, 1)); // new rank: change
        assert_eq!(db.version(), 3);
    }

    #[test]
    fn delta_since_carries_exactly_the_news() {
        let mut db = WirDatabase::new(8);
        db.update(e(3, 1.0, 1));
        db.update(e(5, 2.0, 1));
        let mark = db.version();
        assert_eq!(db.delta_since(mark), vec![]);
        db.update(e(1, 9.0, 2));
        db.update(e(5, 3.0, 4)); // overwrite: fresher
        let delta = db.delta_since(mark);
        let ranks: Vec<usize> = delta.iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![1, 5], "delta is rank-ordered and minimal");
        assert_eq!(db.delta_since(0), db.snapshot(), "delta from zero is the full snapshot");
        assert_eq!(wire_bytes(&delta), 2 * std::mem::size_of::<WirEntry>());
    }

    #[test]
    fn equality_ignores_the_change_clock() {
        // Same facts, different message histories: the clock differs, the
        // databases must not.
        let mut a = WirDatabase::new(4);
        a.update(e(1, 1.0, 1));
        a.update(e(1, 2.0, 2));
        a.update(e(2, 3.0, 1));
        let mut b = WirDatabase::new(4);
        b.update(e(2, 3.0, 1));
        b.update(e(1, 2.0, 2));
        assert_eq!(a, b);
        assert_ne!(a.version(), b.version());
        let mut c = WirDatabase::new(5);
        c.update(e(1, 2.0, 2));
        c.update(e(2, 3.0, 1));
        assert_ne!(a, c, "different capacities are observable (is_complete)");
    }
}
