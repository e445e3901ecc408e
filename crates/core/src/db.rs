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
//!
//! A gossip message is a [`WirView`]: the sender's run, shared by
//! reference (copy-on-write), plus the watermark below which its entries
//! are not part of the message. Taking a view copies and allocates
//! nothing; the run is copied only when its owner changes it while a view
//! is still held — into the run the previous such copy left behind, once
//! every view of that one has dropped, so a rank that gossips every
//! iteration alternates between two runs and allocates none — and
//! [`WirDatabase::merge_view`] reads the entries where they lie.
//! [`WirDatabase::snapshot`], [`WirDatabase::delta_since`] and
//! [`WirDatabase::merge`] are the same code for callers that want entries
//! as a slice.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter;
use std::mem;
use std::sync::Arc;

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

/// Wire size of a gossip message of `entries`, in bytes (used to charge
/// gossip communication — honest accounting for exactly what is sent;
/// [`WirView::wire_bytes`] charges a view the same).
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
    /// The freshness rule for a rank that already has a slot: `entry`
    /// changes it iff it is fresher, or as fresh with a `wir` that differs
    /// under `f64` `!=` (so `-0.0` never replaces `0.0` and a `NaN` always
    /// replaces). Stale and identical entries change nothing. Written with
    /// `&`/`|` so the merge's decide pass evaluates it without a branch.
    fn takes(&self, entry: &WirEntry) -> bool {
        (entry.iteration > self.entry.iteration)
            | ((entry.iteration == self.entry.iteration) & (entry.wir != self.entry.wir))
    }

    /// Apply [`takes`](Self::takes): overwrite with `entry` at the next
    /// tick of `clock`, or leave the slot as it is.
    fn refresh(&mut self, entry: WirEntry, clock: &mut u64) {
        if self.takes(&entry) {
            *clock += 1;
            *self = Slot { entry, version: *clock };
        }
    }
}

/// Filler of a run's spare room; never read as an entry.
const SPARE: Slot =
    Slot { entry: WirEntry { rank: usize::MAX, wir: 0.0, iteration: 0 }, version: 0 };

/// A rank-sorted run of known slots, `buf[..len]`, in one allocation that
/// the [`WirView`]s taken of it share copy-on-write; `buf[len..]` is spare
/// room to insert into.
#[derive(Clone, Default)]
struct Run {
    buf: Arc<[Slot]>,
    len: usize,
}

impl Run {
    /// The known slots.
    fn slots(&self) -> &[Slot] {
        &self.buf[..self.len]
    }
}

impl fmt::Debug for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.slots()).finish()
    }
}

/// `buf`, unshared, with room for `room` more slots past `len`, as a
/// mutable buffer, in a database of `size` ranks. A run a [`WirView`]
/// still holds is copied first, with room for `room.max(spare)` more
/// (`spare`: what the change that caused the copy may still insert), and
/// the shared run is kept in `recycled`. The copy goes into the run kept
/// there by the previous copy when every view of that one has dropped and
/// it has that room, else into a new allocation. An unshared run is
/// reallocated only when `room` is missing. A new allocation grows the run
/// to at least twice `len`, never past `size`, so a database that grows
/// while it gossips soon owns two runs that both fit it and alternates
/// between them. So it is at most one allocation, and none when the run is
/// unshared and roomy enough or the kept run can be reused.
fn reserve<'a>(
    buf: &'a mut Arc<[Slot]>,
    recycled: &mut Option<Arc<[Slot]>>,
    size: usize,
    len: usize,
    room: usize,
    spare: usize,
) -> &'a mut [Slot] {
    let grown = |needed: usize| needed.max(2 * len).min(size);
    // No `Weak` is ever made of a run, so a strong count of one means it is
    // unshared. A count read while a holder drops its view can only be too
    // high: that costs a needless copy, never a write to a shared run.
    if Arc::strong_count(buf) > 1 {
        let needed = len + room.max(spare);
        let kept = recycled.take().filter(|r| r.len() >= needed && Arc::strong_count(r) == 1);
        let copy = match kept {
            // Only the slots are copied: what lies past them is spare room,
            // never read.
            Some(mut run) => {
                Arc::get_mut(&mut run).expect("unshared")[..len].copy_from_slice(&buf[..len]);
                run
            }
            None => with_room(&buf[..len], grown(needed)),
        };
        *recycled = Some(mem::replace(buf, copy));
    } else if buf.len() < len + room {
        *buf = with_room(&buf[..len], grown(len + room));
    }
    Arc::get_mut(buf).expect("unshared")
}

/// A new run of `slots` with spare room up to `capacity`.
fn with_room(slots: &[Slot], capacity: usize) -> Arc<[Slot]> {
    slots.iter().copied().chain(iter::repeat_n(SPARE, capacity - slots.len())).collect()
}

/// The decide pass of one chunk: bit `i` is set iff `theirs[i]` changed
/// after `since` (it is part of the message) and changes `mine[i]` under
/// [`Slot::takes`]. No branch: every slot is compared.
fn decide(mine: &[Slot], theirs: &[Slot], since: u64) -> u64 {
    let mut mask = 0u64;
    for (bit, (mine, theirs)) in mine.iter().zip(theirs).enumerate() {
        mask |= u64::from((theirs.version > since) & mine.takes(&theirs.entry)) << bit;
    }
    mask
}

/// The apply pass of one chunk: `theirs[i]` overwrites `mine[i]` for each
/// set bit `i` of `mask`, in rank order, at the next tick of `clock`.
fn apply(mine: &mut [Slot], theirs: &[Slot], mut mask: u64, clock: &mut u64) {
    while mask != 0 {
        let bit = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        *clock += 1;
        mine[bit] = Slot { entry: theirs[bit].entry, version: *clock };
    }
}

/// Move the unread rest of the run, `slots[read..*len]`, down over what
/// is left of the gap.
fn close_gap(slots: &mut [Slot], len: &mut usize, write: usize, read: usize) {
    if write != read {
        slots.copy_within(read..*len, write);
        *len -= read - write;
    }
}

/// A sparse, versioned WIR database with freshness-based merging.
///
/// Stores only the entries this PE has heard about, as a run sorted by
/// rank: one allocation, shared with the [`WirView`]s taken of it and
/// copied by the first change made while one is held — into the run the
/// previous such copy left behind, once its views have dropped. Equality
/// ([`PartialEq`]) compares *observable* state — the size and the entries
/// — never the internal change clock or the kept run, so two databases
/// that heard the same facts through different message schedules compare
/// equal.
#[derive(Clone, Serialize, Deserialize)]
pub struct WirDatabase {
    /// Number of ranks the database covers (the dense capacity).
    size: usize,
    /// Known entries, sorted by `entry.rank` (at most one per rank).
    run: Run,
    /// Local change clock: bumped on every observable change.
    clock: u64,
    /// The run the last copy of a shared run moved away from, reused by
    /// the next such copy once no view holds it (state of this host, not
    /// of the database: not serialised, not compared).
    #[serde(skip)]
    recycled: Option<Arc<[Slot]>>,
}

impl fmt::Debug for WirDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WirDatabase")
            .field("size", &self.size)
            .field("run", &self.run)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl PartialEq for WirDatabase {
    fn eq(&self, other: &Self) -> bool {
        self.size == other.size
            && self.run.len == other.run.len
            && self.entries().eq(other.entries())
    }
}

/// A gossip message by reference: the entries of a database's run that
/// changed after change-clock tick `since`, in rank order, as of the
/// moment the view was taken.
///
/// It holds the run itself (a reference count, no copy); the owner's next
/// change copies the run first, so a view never sees later changes.
/// [`len`](Self::len) was counted when the view was taken, and
/// [`wire_bytes`](Self::wire_bytes) charges exactly what [`wire_bytes`]
/// charges for the same entries as a slice.
#[derive(Debug)]
pub struct WirView {
    run: Run,
    since: u64,
    len: usize,
}

impl WirView {
    /// Number of entries in the message.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the message carries no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The message's entries, in rank order, without allocating.
    pub fn entries(&self) -> impl Iterator<Item = WirEntry> + '_ {
        self.run.slots().iter().filter(|s| s.version > self.since).map(|s| s.entry)
    }

    /// The entries as a slice would carry them: one allocation of exactly
    /// [`len`](Self::len) entries (none when empty).
    pub fn to_vec(&self) -> Vec<WirEntry> {
        let mut entries = Vec::with_capacity(self.len);
        entries.extend(self.entries());
        entries
    }

    /// Wire size of the message, in bytes: `len` entries of
    /// `size_of::<WirEntry>()`, byte for byte [`wire_bytes`] of
    /// [`to_vec`](Self::to_vec).
    pub fn wire_bytes(&self) -> usize {
        self.len * std::mem::size_of::<WirEntry>()
    }
}

/// Entries per decide/apply chunk of [`WirDatabase::merge_view`]'s
/// complete-run path: one bit of a `u64` mask each.
const CHUNK: usize = 64;

impl WirDatabase {
    /// An empty database for `size` ranks. Allocates nothing until entries
    /// arrive — the footprint is `O(known entries)`, not `O(size)`.
    pub fn new(size: usize) -> Self {
        Self { size, run: Run::default(), clock: 0, recycled: None }
    }

    /// Number of ranks the database covers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Record (or refresh) an entry. Stale updates (older iteration than the
    /// stored entry) are ignored; equal-iteration updates overwrite (the
    /// newest local measurement wins). Only observable changes advance the
    /// change clock: re-learning an identical fact leaves the version
    /// untouched, so deltas never resend it — and never copies a shared
    /// run.
    pub fn update(&mut self, entry: WirEntry) {
        assert!(entry.rank < self.size, "rank {} out of range", entry.rank);
        let Run { buf, len } = &mut self.run;
        match buf[..*len].binary_search_by_key(&entry.rank, |s| s.entry.rank) {
            Ok(i) => {
                if buf[i].takes(&entry) {
                    self.clock += 1;
                    reserve(buf, &mut self.recycled, self.size, *len, 0, 0)[i] =
                        Slot { entry, version: self.clock };
                }
            }
            Err(i) => {
                self.clock += 1;
                let slots = reserve(buf, &mut self.recycled, self.size, *len, 1, 1);
                slots.copy_within(i..*len, i + 1);
                slots[i] = Slot { entry, version: self.clock };
                *len += 1;
            }
        }
    }

    /// Merge a payload (e.g. received via gossip): observably — entries,
    /// [`version`](Self::version) and every later
    /// [`delta_since`](Self::delta_since) — the fold of
    /// [`update`](Self::update) over `payload` in slice order, change-clock
    /// ticks included. The gap walk of [`merge_view`](Self::merge_view),
    /// fed from the slice.
    pub fn merge(&mut self, payload: &[WirEntry]) {
        self.merge_walk(payload.iter().copied(), payload.len());
    }

    /// Merge a gossip message by reference: observably the fold of
    /// [`update`](Self::update) over [`WirView::entries`], as
    /// [`merge`](Self::merge) of [`WirView::to_vec`] would, without the
    /// copy.
    ///
    /// When both runs are complete they are indexed by rank, so each chunk
    /// of 64 ranks is first *decided* without a branch — a `u64` mask of
    /// the slots the view changes under [`update`](Self::update)'s rule —
    /// and only its set bits are then *applied*, in rank order, one clock
    /// tick each. Nothing is written before the first chunk with news, so
    /// a view that changes nothing never copies a shared run. Otherwise
    /// the entries go through the gap walk [`merge`](Self::merge) uses.
    pub fn merge_view(&mut self, view: &WirView) {
        if view.is_empty() {
            return;
        }
        let theirs = view.run.slots();
        let both_complete = self.is_complete()
            && theirs.len() == self.size
            && theirs.last().is_some_and(|s| s.entry.rank == self.size - 1);
        if !both_complete {
            self.merge_walk(view.entries(), view.len);
            return;
        }
        // Read-only up to the first chunk with news, so a view that changes
        // nothing never copies a shared run; then one unshared run for the
        // rest.
        let (mine, since) = (self.run.slots(), view.since);
        let first = theirs.chunks(CHUNK).enumerate().find_map(|(chunk, theirs)| {
            let mask = decide(&mine[chunk * CHUNK..], theirs, since);
            (mask != 0).then_some((chunk, mask))
        });
        let Some((first, mask)) = first else {
            return;
        };
        let len = self.run.len;
        let slots =
            &mut reserve(&mut self.run.buf, &mut self.recycled, self.size, len, 0, 0)[..len];
        let mut first_mask = Some(mask);
        for (mine, theirs) in slots.chunks_mut(CHUNK).zip(theirs.chunks(CHUNK)).skip(first) {
            let mask = first_mask.take().unwrap_or_else(|| decide(mine, theirs, since));
            apply(mine, theirs, mask, &mut self.clock);
        }
    }

    /// The one-pass run merge of `count` entries (the fold of `update`
    /// over `entries`, in their order).
    ///
    /// Gossip messages are rank-ordered runs and so is the database, so the
    /// two are walked together: while `entries` ascend by rank (repeats
    /// allowed) the whole merge costs `O(known + count)` slot visits,
    /// *including* when they bring new ranks — the first one opens a gap
    /// in the run wide enough for every insert the rest of the entries can
    /// still make (at most one growth of the run, none when no rank is
    /// new), slots are moved down across the gap as the walk passes them,
    /// and the gap's unused rest is closed at the end. Order is not a
    /// precondition: an entry whose rank is below its predecessor's closes
    /// the gap and restarts the walk from the front, so any sequence
    /// merges correctly and only pays one more `O(known)` walk per descent.
    fn merge_walk(&mut self, entries: impl Iterator<Item = WirEntry>, count: usize) {
        if count == 0 {
            return;
        }
        let (size, clock, recycled) = (self.size, &mut self.clock, &mut self.recycled);
        let Run { buf, len } = &mut self.run;
        let mut known = *len;
        // A shared run is copied with room for every insert the entries can
        // make; an unshared one grows at the first new rank, if at all.
        let mut slots = reserve(buf, recycled, size, known, 0, count.min(size - known));
        // `slots[..write]` is merged output, `slots[read..known]` the part
        // of the run the walk has not reached, and between them lies the
        // gap (empty — `write == read` — until a new rank needs room).
        let (mut write, mut read) = (0, 0);
        let mut prev_rank = 0;
        for (done, entry) in entries.enumerate() {
            assert!(entry.rank < size, "rank {} out of range", entry.rank);
            if entry.rank < prev_rank {
                close_gap(slots, &mut known, write, read);
                (write, read) = (0, 0);
            }
            prev_rank = entry.rank;
            while read < known && slots[read].entry.rank < entry.rank {
                slots[write] = slots[read];
                write += 1;
                read += 1;
            }
            // The slot of `entry.rank`, if it has one: the next of the run,
            // or (a rank new to the run, repeated) the one just written.
            let slot_of = if read < known && slots[read].entry.rank == entry.rank {
                Some(read)
            } else {
                write.checked_sub(1).filter(|&last| slots[last].entry.rank == entry.rank)
            };
            match slot_of {
                Some(i) => slots[i].refresh(entry, clock),
                None => {
                    *clock += 1;
                    if write == read {
                        // Every later insert is a distinct unknown rank
                        // brought by a later entry.
                        let room = (count - done).min(size - known);
                        // Unshared since the walk began: only grow it.
                        if slots.len() < known + room {
                            slots = reserve(buf, recycled, size, known, room, room);
                        }
                        slots.copy_within(read..known, read + room);
                        read += room;
                        known += room;
                    }
                    slots[write] = Slot { entry, version: *clock };
                    write += 1;
                }
            }
        }
        close_gap(slots, &mut known, write, read);
        *len = known;
    }

    /// The freshest entry known for `rank`.
    pub fn get(&self, rank: usize) -> Option<WirEntry> {
        assert!(rank < self.size, "rank {rank} out of range");
        let slots = self.run.slots();
        slots.binary_search_by_key(&rank, |s| s.entry.rank).ok().map(|i| slots[i].entry)
    }

    /// All known entries (rank order — deterministic), in one allocation
    /// of exactly `known_count()` entries: [`view`](Self::view),
    /// materialized.
    pub fn snapshot(&self) -> Vec<WirEntry> {
        self.view().to_vec()
    }

    /// Iterate the known entries in rank order, without allocating
    /// (`Clone`, so a two-pass statistic can replay them).
    pub fn entries(&self) -> impl Iterator<Item = WirEntry> + Clone + '_ {
        self.run.slots().iter().map(|s| s.entry)
    }

    /// Current value of the local change clock. Strictly monotone: each
    /// observable change ([`update`](Self::update) that inserts or
    /// overwrites) advances it by one. `0` means "never changed".
    pub fn version(&self) -> u64 {
        self.clock
    }

    /// Every known entry as a [`WirView`] (the full-snapshot message): no
    /// pass over the run and no allocation.
    pub fn view(&self) -> WirView {
        WirView { run: self.run.clone(), since: 0, len: self.run.len }
    }

    /// The entries that changed *after* change-clock tick `since` as a
    /// [`WirView`] (the delta message): one counting pass over the run, no
    /// allocation.
    pub fn view_since(&self, since: u64) -> WirView {
        let len = self.run.slots().iter().filter(|s| s.version > since).count();
        WirView { run: self.run.clone(), since, len }
    }

    /// The entries that changed *after* change-clock tick `since`, in rank
    /// order. `delta_since(0)` is the full snapshot; `delta_since(version())`
    /// is empty. A peer that merged everything up to `since` needs exactly
    /// these entries.
    ///
    /// [`view_since`](Self::view_since), materialized: the run is scanned
    /// twice — count, then copy — so the result is one allocation whose
    /// capacity equals its length (none at all for an empty delta).
    pub fn delta_since(&self, since: u64) -> Vec<WirEntry> {
        self.view_since(since).to_vec()
    }

    /// Number of ranks with a known entry.
    pub fn known_count(&self) -> usize {
        self.run.len
    }

    /// Whether every rank has an entry.
    pub fn is_complete(&self) -> bool {
        self.run.len == self.size
    }

    /// Dense WIR vector: unknown ranks default to `default` (rank order).
    ///
    /// Materializes `O(size)`, for the one consumer that needs the dense
    /// vector: the median/MAD robust detector, which sorts it anyway. The
    /// z-score folds [`entries`](Self::entries) instead
    /// ([`crate::outlier::z_params`]).
    pub fn wirs_or(&self, default: f64) -> Vec<f64> {
        let mut wirs = vec![default; self.size];
        for entry in self.entries() {
            wirs[entry.rank] = entry.wir;
        }
        wirs
    }

    /// Maximum staleness (in iterations) of any known entry relative to
    /// `current_iteration`; `None` if the database is empty.
    pub fn max_staleness(&self, current_iteration: u64) -> Option<u64> {
        self.entries().map(|e| current_iteration.saturating_sub(e.iteration)).max()
    }

    /// Wire size of a full snapshot of this database, in bytes (used to
    /// charge gossip communication when sending full snapshots). For a
    /// message use [`WirView::wire_bytes`], or [`wire_bytes`] on the slice
    /// actually sent.
    pub fn snapshot_bytes(&self) -> usize {
        self.known_count() * std::mem::size_of::<WirEntry>()
    }

    /// Approximate resident heap footprint of this database, in bytes
    /// (capacity of the slot run; the point of the sparse layout is that
    /// this is `O(known entries)`, not `O(size)`).
    pub fn resident_bytes(&self) -> usize {
        self.run.buf.len() * std::mem::size_of::<Slot>()
    }
}

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
        let mut db = WirDatabase::new(6);
        db.update(e(1, 7.0, 1));
        db.update(e(4, 2.0, 3));
        db.update(e(5, 9.0, 2));
        assert_eq!(db.wirs_or(0.0), vec![0.0, 7.0, 0.0, 0.0, 2.0, 9.0]);
        assert_eq!(db.wirs_or(-1.0), vec![-1.0, 7.0, -1.0, -1.0, 2.0, 9.0]);
    }

    /// The sparse stream the z-score folds in place of the dense view —
    /// `entries`, replayed through a clone for the second pass — carries
    /// exactly the dense vector: scattered over `default`, it is `wirs_or`.
    #[test]
    fn wirs_iter_matches_dense_vector() {
        let mut db = WirDatabase::new(6);
        db.update(e(1, 7.0, 1));
        db.update(e(4, 2.0, 3));
        db.update(e(5, 9.0, 2));
        let first = db.entries();
        let replay = first.clone();
        let mut streamed = vec![-1.0; db.size()];
        for entry in first {
            streamed[entry.rank] = entry.wir;
        }
        assert_eq!(streamed, db.wirs_or(-1.0));
        assert_eq!(replay.collect::<Vec<_>>(), db.snapshot());
        assert_eq!(db.wirs_or(0.0).len(), 6);
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
    fn wire_model_is_pinned_apart_from_the_slot_layout() {
        // Every committed makespan charges 24 bytes per gossiped entry,
        // whatever a slot holds on the host beside it.
        assert_eq!(std::mem::size_of::<WirEntry>(), 24);
        let mut db = WirDatabase::new(8);
        db.update(e(1, 1.0, 1));
        db.update(e(6, 2.0, 1));
        assert_eq!(db.view().wire_bytes(), 48);
        assert_eq!(wire_bytes(&db.snapshot()), 48);
        assert_eq!(db.view_since(1).wire_bytes(), 24);
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
