//! The rendezvous hub: a generation-stamped all-to-all exchange primitive on
//! which every collective (barrier, broadcast, gather, allgather, allreduce,
//! scatter) is built.
//!
//! All `P` ranks deposit a typed value and a clock; once the last rank
//! arrives, everyone observes the full value vector (rank-indexed, hence
//! deterministic) and the maximum deposit clock. A two-phase protocol
//! (deposit → drain) prevents a fast rank from entering the next collective
//! before the previous one has been fully read.
//!
//! # Sharding
//!
//! The hub is **sharded**: the `P` ranks are split over `S` leaf shards
//! (shard = `rank / ceil(P/S)`, so the last shard may be ragged), each with
//! its own lock, value slots, and parked-waker list. A deposit touches only
//! its own shard — the global single-mutex serialization of the pre-shard
//! hub becomes `O(P/S)` contention per shard. Shard completions combine up
//! a fixed-arity reduction tree of atomic fan-in counters; the deposit that
//! completes the last shard walks its root path, and on reaching the root
//! it assembles the rank-indexed result from the shards (in shard order, so
//! the vector and the clock maximum are bit-identical for **any** shard
//! count, including the `S = 1` degenerate case, which is exactly the old
//! single-mutex hub) and distributes it back to every shard, waking the
//! shard-local waiters. Draining mirrors the same tree: the last rank out
//! of a shard propagates up, and the globally last drain reopens entry on
//! every shard for the next generation.
//!
//! The hub never blocks a thread: the shard state machine
//! ([`ShardState::deposit`] / [`ShardState::collect`]) is pure bookkeeping
//! over the deposited values, driven through the [`Hub::poll_deposit`] /
//! [`Hub::poll_collect`] pair. A caller leaves its [`Waker`] behind in its
//! shard whenever it cannot progress; the state transition that unblocks
//! it — the round completing on the last deposit, or entry reopening on
//! the last drain — wakes every parked waker of every shard, directly and
//! outside every shard lock (as the mailbox does), which is what lets the
//! job server sleep blocked ranks instead of spinning them (the sequential
//! scheduler passes a no-op waker and keeps round-robining). On the job
//! server a shard is also the unit of scheduling — its ranks
//! ([`Hub::shard_range`]) form one block that one worker drives at a time,
//! so a shard lock is uncontended and a wake is one flag store.
//!
//! The completed round is **one shared object** ([`RoundValues`]): every
//! rank collects a handle to it, not a copy. It carries a compute-once
//! slot ([`RoundValues::reduce_once`]), so a reduction over the round is
//! folded by the first rank that asks and merely cloned by the others —
//! `O(P)` host work per round rather than per rank.
//!
//! A hub belongs to exactly one run (its *job*): [`Hub::for_job`] stamps
//! the job id into every collective-mismatch diagnostic, so when many jobs
//! share one [`crate::exec::server::JobServer`] a panic names which job
//! misbehaved. The standalone constructors ([`Hub::new`],
//! [`Hub::with_shards`]) use job id 0, which suppresses the tag.

use crate::time::VirtualTime;
use parking_lot::Mutex;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::Index;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::Waker;

/// Fan-in of the reduction tree combining shard completions: each internal
/// node waits for up to this many children before notifying its parent.
const TREE_ARITY: usize = 4;

/// Rank-indexed values of one completed round, stored as the per-shard
/// chunks the reduction tree assembled them in — never concatenated into
/// one `O(P)` vector. Chunk `s` holds the deposits of ranks
/// `s * width .. s * width + chunk.len()` in rank order, so indexing,
/// iteration and [`RoundValues::to_vec`] observe exactly the monolithic
/// rank-indexed vector of the pre-chunk hub, for any shard count.
///
/// Every rank of the round holds a handle to the *same* object, which is
/// what lets a reduction run once per round instead of once per rank: see
/// [`RoundValues::reduce_once`].
pub struct RoundValues<T> {
    /// The round's one shared object; a handle clone is a reference bump.
    round: Arc<SharedRound<T>>,
    /// Ranks per chunk (the last chunk may be ragged).
    width: usize,
    /// Total rank count.
    len: usize,
}

/// What all `P` handles of one round share.
struct SharedRound<T> {
    /// Per-shard chunks in shard (= rank) order; `O(S)` handles.
    chunks: Vec<Arc<Vec<T>>>,
    /// The round's compute-once slot ([`RoundValues::reduce_once`]). Born
    /// empty with the round and dropped with it, so it needs no reset
    /// between generations.
    reduced: OnceLock<Box<dyn Any + Send + Sync>>,
}

impl<T> Clone for RoundValues<T> {
    fn clone(&self) -> Self {
        Self { round: Arc::clone(&self.round), width: self.width, len: self.len }
    }
}

impl<T> RoundValues<T> {
    fn from_chunks(chunks: Vec<Arc<Vec<T>>>, width: usize, len: usize) -> Self {
        Self { round: Arc::new(SharedRound { chunks, reduced: OnceLock::new() }), width, len }
    }

    /// Wrap an already rank-indexed vector as a single-chunk round (the
    /// `S = 1` shape); used by tests and single-shard assembly alike.
    pub fn from_vec(values: Vec<T>) -> Self {
        let len = values.len();
        Self::from_chunks(vec![Arc::new(values)], len.max(1), len)
    }

    /// Number of participating ranks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the round is empty (never true for a live hub: `P ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the values in rank order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.round.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Copy the values out into one rank-indexed vector.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len);
        for chunk in self.round.chunks.iter() {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// Reduce the round **once**: the first handle to ask runs `fold` over
    /// the values (rank order is chunk order, so an `f64` sum is
    /// bit-identical for any shard count); every other handle of the same
    /// round gets a clone of the cached result, and handles asking
    /// concurrently wait for the one fold rather than starting their own.
    /// A reduction therefore costs `O(P)` per round, `O(1)` per rank.
    ///
    /// `fold` must be a pure function of the round's values and the same
    /// on every rank — it runs on whichever rank asks first. Returns
    /// `None` when the round was already reduced to a different result
    /// type (a collective-ordering bug in the caller).
    pub fn reduce_once<R>(&self, fold: impl FnOnce(&Self) -> R) -> Option<R>
    where
        R: Clone + Send + Sync + 'static,
    {
        self.round.reduced.get_or_init(|| Box::new(fold(self))).downcast_ref::<R>().cloned()
    }
}

impl<T> Index<usize> for RoundValues<T> {
    type Output = T;

    fn index(&self, rank: usize) -> &T {
        &self.round.chunks[rank / self.width][rank % self.width]
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for RoundValues<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.len == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RoundValues<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Result of one exchange round: the rank-indexed values and the latest
/// deposit clock (the virtual instant at which the collective can complete).
pub struct ExchangeRound<T> {
    /// Values deposited by each rank, indexed by rank.
    pub values: RoundValues<T>,
    /// Maximum clock among the participants at deposit time.
    pub max_clock: VirtualTime,
}

impl<T> Clone for ExchangeRound<T> {
    fn clone(&self) -> Self {
        Self { values: self.values.clone(), max_clock: self.max_clock }
    }
}

/// A type-erased chunk handle a shard keeps after distributing its round,
/// so the underlying buffer can be recycled once every consumer has
/// dropped its copy (steady-state rounds then allocate nothing
/// proportional to `P`).
trait ReclaimChunk: Send {
    /// Recover the chunk's buffer if this is the last handle: returns the
    /// cleared `Vec<T>` (capacity intact) keyed by its element type.
    fn reclaim(self: Box<Self>) -> Option<(TypeId, Box<dyn Any + Send>)>;
}

impl<T: Send + Sync + 'static> ReclaimChunk for Arc<Vec<T>> {
    fn reclaim(self: Box<Self>) -> Option<(TypeId, Box<dyn Any + Send>)> {
        Arc::try_unwrap(*self).ok().map(|mut buf| {
            buf.clear();
            (TypeId::of::<T>(), Box::new(buf) as Box<dyn Any + Send>)
        })
    }
}

/// Lock-protected state of one leaf shard: the deposit slots of its ranks,
/// the entry guard, and the distributed copy of the completed round.
struct ShardState {
    /// Id of the owning job (0 for standalone hubs), for diagnostics.
    job: u64,
    generation: u64,
    op_name: Option<&'static str>,
    /// Number of ranks in this shard.
    width: usize,
    /// Typed deposit slots of this shard's ranks (`Vec<Option<T>>`,
    /// indexed locally by `rank - base`), created by the round's first
    /// deposit and drained into the shard's chunk by the root assembly.
    /// Recycled per element type across generations, so steady-state
    /// deposits box nothing.
    deposits: Option<Box<dyn Any + Send>>,
    arrived: usize,
    max_clock: VirtualTime,
    /// Whether a new deposit may enter. Closed when the shard completes
    /// locally; reopened by the globally last drain of the round.
    entry_open: bool,
    /// Type-erased [`RoundValues<T>`] of the completed round, distributed
    /// to every shard by the completing rank.
    result: Option<Box<dyn Any + Send>>,
    result_max_clock: VirtualTime,
    /// This shard's own chunk of the distributed round, retained so the
    /// buffer can be recycled once consumers drop their round handles.
    own_chunk: Option<Box<dyn ReclaimChunk>>,
    /// Last generation's chunk handle, awaiting reclamation at the next
    /// assembly (by then every rank has re-entered, so its round handles
    /// — which pin all chunks through the shared chunk list — are gone).
    graveyard: Option<Box<dyn ReclaimChunk>>,
    /// Cleared, capacity-bearing chunk buffers keyed by element type; the
    /// collective mix of an application is a handful of types, so this
    /// stays O(types × shard width).
    spare_chunks: HashMap<TypeId, Box<dyn Any + Send>>,
    /// Cleared `Vec<Option<T>>` deposit buffers keyed by element type.
    spare_deposits: HashMap<TypeId, Box<dyn Any + Send>>,
    departed: usize,
    /// Wakers of the ranks parked at the rendezvous (waiting either for
    /// the round to complete or for entry to reopen),
    /// indexed locally. A rank runs one operation at a time, so one slot
    /// per rank suffices.
    wakers: Vec<Option<Waker>>,
}

/// Diagnostic suffix naming the owning job; empty for standalone hubs
/// (job id 0), so single-run panic messages stay unchanged.
fn job_tag(job: u64) -> String {
    if job == 0 {
        String::new()
    } else {
        format!(" [job #{job}]")
    }
}

/// The diagnostic of ranks disagreeing on a collective's types — the
/// deposited payload, or the result a reduction folds it to.
pub(crate) fn payload_mismatch(op_name: &str, job: u64) -> ! {
    panic!("collective `{op_name}`: payload type mismatch across ranks{}", job_tag(job))
}

impl ShardState {
    fn new(width: usize, job: u64) -> Self {
        Self {
            job,
            generation: 0,
            op_name: None,
            width,
            deposits: None,
            arrived: 0,
            max_clock: VirtualTime::ZERO,
            entry_open: true,
            result: None,
            result_max_clock: VirtualTime::ZERO,
            own_chunk: None,
            graveyard: None,
            spare_chunks: HashMap::new(),
            spare_deposits: HashMap::new(),
            departed: 0,
            wakers: (0..width).map(|_| None).collect(),
        }
    }

    /// Deposit `value` for the shard-local slot `local` (global id `rank`)
    /// into the current round; the caller must have checked
    /// [`ShardState::entry_open`]. Returns `true` when this deposit
    /// completed the shard (all of its ranks arrived), which closes entry
    /// and obliges the caller to propagate the completion up the tree.
    fn deposit<T: Send + Sync + 'static>(
        &mut self,
        local: usize,
        rank: usize,
        op_name: &'static str,
        value: T,
        clock: VirtualTime,
    ) -> bool {
        debug_assert!(self.entry_open, "deposit into an undrained round");
        match self.op_name {
            None => self.op_name = Some(op_name),
            Some(existing) => assert_eq!(
                existing,
                op_name,
                "collective mismatch: rank {rank} entered `{op_name}` while \
                 others are in `{existing}` (generation {}){}",
                self.generation,
                job_tag(self.job)
            ),
        }
        let job = self.job;
        let slots = match &mut self.deposits {
            Some(buf) => buf
                .downcast_mut::<Vec<Option<T>>>()
                .unwrap_or_else(|| payload_mismatch(op_name, job)),
            none => {
                let mut buf: Vec<Option<T>> = match self.spare_deposits.remove(&TypeId::of::<T>()) {
                    Some(spare) => *spare.downcast().expect("spare deposit buffer keyed by type"),
                    None => Vec::with_capacity(self.width),
                };
                buf.resize_with(self.width, || None);
                none.insert(Box::new(buf)).downcast_mut::<Vec<Option<T>>>().expect("just inserted")
            }
        };
        assert!(
            slots[local].is_none(),
            "rank {rank} deposited twice in collective `{op_name}` \
             (generation {}){}",
            self.generation,
            job_tag(self.job)
        );
        slots[local] = Some(value);
        self.arrived += 1;
        self.max_clock = self.max_clock.max(clock);
        if self.arrived == self.width {
            self.entry_open = false;
            true
        } else {
            false
        }
    }

    /// Drain this shard's typed deposit slots into a chunk in local-rank
    /// order, recycling both the chunk buffer and the deposit buffer from
    /// previous generations of the same element type. Called by the root
    /// assembly with the shard complete.
    fn assemble_chunk<T: Send + Sync + 'static>(&mut self, op_name: &'static str) -> Vec<T> {
        // A full generation has passed since the graveyard chunk was
        // distributed, so every consumer handle is normally gone and the
        // buffer comes back; if a rank body still pins it, the handle is
        // simply dropped and the next round allocates afresh.
        if let Some(grave) = self.graveyard.take() {
            if let Some((tid, buf)) = grave.reclaim() {
                self.spare_chunks.insert(tid, buf);
            }
        }
        let mut chunk: Vec<T> = match self.spare_chunks.remove(&TypeId::of::<T>()) {
            Some(spare) => *spare.downcast().expect("spare chunk keyed by type"),
            None => Vec::with_capacity(self.width),
        };
        let mut slots: Vec<Option<T>> = *self
            .deposits
            .take()
            .expect("completed shard has deposits")
            .downcast::<Vec<Option<T>>>()
            .unwrap_or_else(|_| payload_mismatch(op_name, self.job));
        chunk.extend(
            slots.iter_mut().map(|s| s.take().expect("all ranks of a completed round deposited")),
        );
        slots.clear();
        self.spare_deposits.insert(TypeId::of::<T>(), Box::new(slots));
        chunk
    }

    /// Read the distributed round result, if present. Returns the round
    /// plus whether this caller was the last of the *shard* to depart
    /// (which obliges the caller to propagate the drain up the tree). Must
    /// be called at most once per depositing rank.
    fn collect<T: Send + Sync + 'static>(
        &mut self,
        op_name: &'static str,
    ) -> Option<(ExchangeRound<T>, bool)> {
        let values = self
            .result
            .as_ref()?
            .downcast_ref::<RoundValues<T>>()
            .unwrap_or_else(|| payload_mismatch(op_name, self.job))
            .clone();
        let max_clock = self.result_max_clock;
        self.departed += 1;
        let shard_drained = self.departed == self.width;
        Some((ExchangeRound { values, max_clock }, shard_drained))
    }

    /// Take every parked waker (to be woken after the shard lock is
    /// released).
    fn take_wakers(&mut self) -> Vec<Waker> {
        self.wakers.iter_mut().filter_map(Option::take).collect()
    }
}

/// One leaf shard: `O(P/S)` ranks behind one lock, plus its position in the
/// reduction tree.
struct Shard {
    /// First global rank of this shard (`ranks = base..base + width`).
    base: usize,
    /// Parent node index in [`Hub::nodes`], `None` when the shard is the
    /// tree root (single-shard hub).
    parent: Option<usize>,
    state: Mutex<ShardState>,
}

/// Internal reduction-tree node: fan-in counters for round completion and
/// drain. Only one rank per child touches a node per round (the one that
/// completed/drained the child), so plain atomics suffice — the counter
/// resets itself when the last child reports, ready for the next
/// generation (the next round cannot reach the node before the current one
/// fully drains).
struct TreeNode {
    parent: Option<usize>,
    children: usize,
    arrived: AtomicUsize,
    drained: AtomicUsize,
}

/// Rendezvous coordinator shared by all ranks of one run: `S` leaf shards
/// combined by a fixed-arity reduction tree.
pub struct Hub {
    size: usize,
    /// Id of the owning job (0 for standalone hubs), for diagnostics.
    job: u64,
    /// Ranks per shard (`ceil(size / shard_count)`); the last shard may
    /// hold fewer ("ragged").
    shard_width: usize,
    shards: Vec<Shard>,
    /// Internal tree nodes, leaves-to-root; empty for a single shard.
    nodes: Vec<TreeNode>,
}

impl Hub {
    /// Create a single-shard hub for `size` ranks (the degenerate
    /// configuration, equivalent to the pre-shard global-mutex hub).
    pub fn new(size: usize) -> Self {
        Self::with_shards(size, 1)
    }

    /// Create a hub for `size` ranks over (up to) `shards` leaf shards.
    /// The effective shard count is clamped to `[1, size]`; ranks map to
    /// shards by `rank / ceil(size / shards)`.
    pub fn with_shards(size: usize, shards: usize) -> Self {
        Self::for_job(0, size, shards)
    }

    /// [`Hub::with_shards`] for the hub of job `job`: collective-mismatch
    /// diagnostics are tagged with the id, so concurrent jobs on one
    /// [`crate::exec::server::JobServer`] stay distinguishable (`0`
    /// suppresses the tag).
    pub fn for_job(job: u64, size: usize, shards: usize) -> Self {
        assert!(size >= 1, "a run needs at least one rank");
        let shard_width = size.div_ceil(shards.clamp(1, size));
        let shard_count = size.div_ceil(shard_width);

        let mut shards: Vec<Shard> = (0..shard_count)
            .map(|s| {
                let base = s * shard_width;
                let width = shard_width.min(size - base);
                Shard { base, parent: None, state: Mutex::new(ShardState::new(width, job)) }
            })
            .collect();

        // Build the reduction tree bottom-up: group the shards (then each
        // node level) by TREE_ARITY until a single root remains.
        let mut nodes: Vec<TreeNode> = Vec::new();
        if shard_count > 1 {
            let mut level_len = shard_count.div_ceil(TREE_ARITY);
            for j in 0..level_len {
                let children = TREE_ARITY.min(shard_count - j * TREE_ARITY);
                nodes.push(TreeNode {
                    parent: None,
                    children,
                    arrived: AtomicUsize::new(0),
                    drained: AtomicUsize::new(0),
                });
            }
            for (s, shard) in shards.iter_mut().enumerate() {
                shard.parent = Some(s / TREE_ARITY);
            }
            let mut level_start = 0;
            while level_len > 1 {
                let next_start = nodes.len();
                let next_len = level_len.div_ceil(TREE_ARITY);
                for j in 0..next_len {
                    let children = TREE_ARITY.min(level_len - j * TREE_ARITY);
                    nodes.push(TreeNode {
                        parent: None,
                        children,
                        arrived: AtomicUsize::new(0),
                        drained: AtomicUsize::new(0),
                    });
                }
                for j in 0..level_len {
                    nodes[level_start + j].parent = Some(next_start + j / TREE_ARITY);
                }
                level_start = next_start;
                level_len = next_len;
            }
        }

        Self { size, job, shard_width, shards, nodes }
    }

    /// Number of participating ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Id of the owning job (0 for standalone hubs).
    pub fn job(&self) -> u64 {
        self.job
    }

    /// Number of leaf shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The leaf shard holding `rank`.
    pub fn shard_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.size);
        rank / self.shard_width
    }

    /// The contiguous ranks of leaf shard `shard` — the job server takes
    /// its schedulable blocks from here, so a block is exactly a shard.
    pub fn shard_range(&self, shard: usize) -> std::ops::Range<usize> {
        let base = self.shards[shard].base;
        base..(base + self.shard_width).min(self.size)
    }

    /// Walk one fan-in counter from `start` towards the root; returns
    /// `true` when the walk completed the root (i.e. every shard reported).
    /// Counters self-reset on the last report — safe because the next
    /// round's reports are gated behind the current round's full drain.
    fn propagate(&self, start: Option<usize>, which: impl Fn(&TreeNode) -> &AtomicUsize) -> bool {
        let mut cur = start;
        while let Some(i) = cur {
            let node = &self.nodes[i];
            if which(node).fetch_add(1, Ordering::AcqRel) + 1 < node.children {
                return false;
            }
            which(node).store(0, Ordering::Release);
            cur = node.parent;
        }
        true
    }

    /// Root of the reduction: every shard completed, so assemble one chunk
    /// per shard — each drained under its own lock into a recycled buffer,
    /// never concatenated into an `O(P)` vector — and distribute the
    /// chunked, rank-indexed [`RoundValues`] back to the shards (chunk
    /// order = shard order = rank order, hence bit-identical for any shard
    /// count). Returns the parked wakers to wake once no locks are held.
    fn complete_round<T: Send + Sync + 'static>(&self, op_name: &'static str) -> Vec<Waker> {
        let mut chunks: Vec<Arc<Vec<T>>> = Vec::with_capacity(self.shards.len());
        let mut max_clock = VirtualTime::ZERO;
        for (idx, shard) in self.shards.iter().enumerate() {
            let mut st = shard.state.lock();
            let shard_op = st.op_name.expect("completed shard has an op");
            assert_eq!(
                shard_op,
                op_name,
                "collective mismatch across hub shards: shard {idx} is in \
                 `{shard_op}` while the completing rank is in `{op_name}` \
                 (generation {}){}",
                st.generation,
                job_tag(self.job)
            );
            debug_assert_eq!(st.arrived, st.width, "shard {idx} incomplete at assembly");
            let chunk = Arc::new(st.assemble_chunk::<T>(op_name));
            st.own_chunk = Some(Box::new(Arc::clone(&chunk)));
            chunks.push(chunk);
            max_clock = max_clock.max(st.max_clock);
        }
        let values = RoundValues::from_chunks(chunks, self.shard_width, self.size);
        let mut to_wake = Vec::new();
        for shard in &self.shards {
            let mut st = shard.state.lock();
            st.result = Some(Box::new(values.clone()));
            st.result_max_clock = max_clock;
            to_wake.extend(st.take_wakers());
        }
        to_wake
    }

    /// Root of the drain reduction: every shard fully departed, so reset
    /// all shards for the next generation and reopen entry. Each shard's
    /// chunk handle moves to its graveyard, to be recycled by the next
    /// assembly once consumers have dropped their round handles. Returns
    /// the parked wakers (entry-guard waiters) to wake once no locks are
    /// held.
    fn reopen_entry(&self) -> Vec<Waker> {
        let mut to_wake = Vec::new();
        for shard in &self.shards {
            let mut st = shard.state.lock();
            debug_assert!(st.deposits.is_none());
            st.result = None;
            let retired = st.own_chunk.take();
            st.graveyard = retired;
            st.arrived = 0;
            st.departed = 0;
            st.max_clock = VirtualTime::ZERO;
            st.op_name = None;
            st.generation += 1;
            st.entry_open = true;
            to_wake.extend(st.take_wakers());
        }
        to_wake
    }

    /// Deposit `value` into the current round. Every rank must deposit the
    /// same value type `T` under the same `op_name`; mismatches indicate a
    /// collective-ordering bug in the application and panic with a
    /// diagnostic. Returns `Err(value)` when the previous round has not
    /// been fully drained yet, parking `waker` to be woken once entry
    /// reopens. On the deposit that completes the round, every parked rank
    /// is woken.
    pub(crate) fn poll_deposit<T: Send + Sync + 'static>(
        &self,
        shard_idx: usize,
        rank: usize,
        op_name: &'static str,
        value: T,
        clock: VirtualTime,
        waker: &Waker,
    ) -> Result<(), T> {
        assert!(rank < self.size, "rank {rank} out of range (size {})", self.size);
        let shard = &self.shards[shard_idx];
        let local = rank - shard.base;
        let mut st = shard.state.lock();
        if !st.entry_open {
            st.wakers[local] = Some(waker.clone());
            return Err(value);
        }
        if st.deposit(local, rank, op_name, value, clock) {
            drop(st);
            if self.propagate(shard.parent, |n| &n.arrived) {
                self.complete_round::<T>(op_name).into_iter().for_each(Waker::wake);
            }
        }
        Ok(())
    }

    /// Collect the round: `None` while ranks are still missing from it
    /// (parking `waker` until the round completes). Must be called at most
    /// once (until `Some`) per deposit. The last rank to drain reopens
    /// entry and wakes every rank parked on the entry guard.
    pub(crate) fn poll_collect<T: Send + Sync + 'static>(
        &self,
        shard_idx: usize,
        rank: usize,
        op_name: &'static str,
        waker: &Waker,
    ) -> Option<ExchangeRound<T>> {
        let shard = &self.shards[shard_idx];
        let local = rank - shard.base;
        let mut st = shard.state.lock();
        match st.collect(op_name) {
            Some((round, shard_drained)) => {
                drop(st);
                if shard_drained && self.propagate(shard.parent, |n| &n.drained) {
                    self.reopen_entry().into_iter().for_each(Waker::wake);
                }
                Some(round)
            }
            None => {
                st.wakers[local] = Some(waker.clone());
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One full round, single-threaded, the way the schedulers drive it:
    /// every rank deposits its `(value, clock)` in rank order, then every
    /// rank collects. Returns each rank's view of the round.
    fn exchange_all<T: Send + Sync + 'static>(
        hub: &Hub,
        op: &'static str,
        deposits: impl IntoIterator<Item = (T, VirtualTime)>,
    ) -> Vec<ExchangeRound<T>> {
        let noop = Waker::noop();
        for (rank, (value, clock)) in deposits.into_iter().enumerate() {
            let accepted = hub.poll_deposit(hub.shard_of(rank), rank, op, value, clock, noop);
            assert!(accepted.is_ok(), "rank {rank}: previous round fully drained");
        }
        (0..hub.size())
            .map(|rank| {
                hub.poll_collect(hub.shard_of(rank), rank, op, noop).expect("round complete")
            })
            .collect()
    }

    /// Shard counts exercised by every sharded test: degenerate, even
    /// split, ragged (non-dividing), and fully sharded (one rank each).
    fn shard_sweep(size: usize) -> Vec<usize> {
        let mut s = vec![1, 2, 7, size];
        s.retain(|&c| c >= 1);
        s.dedup();
        s
    }

    #[test]
    fn single_rank_exchange_is_immediate() {
        let hub = Hub::new(1);
        let rounds = exchange_all(&hub, "test", [(42u32, VirtualTime::from_secs(1.0))]);
        assert_eq!(rounds[0].values, vec![42]);
        assert_eq!(rounds[0].max_clock.as_secs(), 1.0);
    }

    #[test]
    fn shard_layout_covers_all_ranks() {
        for size in [1usize, 2, 5, 8, 10, 17, 64, 100] {
            for shards in [1usize, 2, 3, 4, 7, 16, 100] {
                let hub = Hub::with_shards(size, shards);
                assert!(hub.shard_count() >= 1 && hub.shard_count() <= shards.clamp(1, size));
                // Every rank maps to a valid shard; shard ids are monotone.
                let mut prev = 0;
                for rank in 0..size {
                    let s = hub.shard_of(rank);
                    assert!(s < hub.shard_count(), "rank {rank} of {size} → shard {s}");
                    assert!(s >= prev);
                    prev = s;
                }
                assert_eq!(hub.shard_of(size - 1), hub.shard_count() - 1);
                // The ranges tile `0..size` and agree with `shard_of`.
                let mut next = 0;
                for s in 0..hub.shard_count() {
                    let range = hub.shard_range(s);
                    assert_eq!(range.start, next);
                    assert!(range.clone().all(|rank| hub.shard_of(rank) == s));
                    next = range.end;
                }
                assert_eq!(next, size);
            }
        }
    }

    #[test]
    fn values_are_rank_indexed() {
        for shards in shard_sweep(8) {
            let hub = Hub::with_shards(8, shards);
            let deposits = (0..8usize).map(|r| (r * 10, VirtualTime::from_secs(r as f64)));
            for round in exchange_all(&hub, "gather-ranks", deposits) {
                assert_eq!(round.values, (0..8).map(|r| r * 10).collect::<Vec<_>>());
                assert_eq!(round.max_clock.as_secs(), 7.0);
            }
        }
    }

    #[test]
    fn ragged_last_shard_exchanges_correctly() {
        // 10 ranks over width-3 shards: 3 + 3 + 3 + 1.
        let hub = Hub::with_shards(10, 4);
        assert_eq!(hub.shard_count(), 4);
        assert_eq!(hub.shard_of(9), 3);
        for round in exchange_all(&hub, "ragged", (0..10u64).map(|r| (r, VirtualTime::ZERO))) {
            assert_eq!(round.values, (0..10u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn consecutive_rounds_do_not_mix() {
        for shards in shard_sweep(4) {
            let hub = Hub::with_shards(4, shards);
            for round_idx in 0..100u64 {
                let clock = VirtualTime::from_secs(round_idx as f64);
                let deposits = (0..4u64).map(|r| ((r, round_idx), clock));
                for round in exchange_all(&hub, "loop", deposits) {
                    for (r, &(vr, vi)) in round.values.iter().enumerate() {
                        assert_eq!(vr, r as u64);
                        assert_eq!(vi, round_idx, "round {round_idx} mixed with {vi}");
                    }
                }
            }
        }
    }

    #[test]
    fn max_clock_is_maximum_of_deposits() {
        for shards in shard_sweep(3) {
            let hub = Hub::with_shards(3, shards);
            let deposits = [0.5, 9.25, 3.0].map(|secs| ((), VirtualTime::from_secs(secs)));
            for round in exchange_all(&hub, "clocks", deposits) {
                assert_eq!(round.max_clock.as_secs(), 9.25);
            }
        }
    }

    #[test]
    fn many_ranks_heavy_payloads_multi_level_tree() {
        // 64 ranks over 32 shards: two internal tree levels (32 → 8 → 2 → 1).
        let hub = Hub::with_shards(64, 32);
        assert_eq!(hub.shard_count(), 32);
        let deposits = (0..64usize).map(|r| (vec![r as u8; 1024], VirtualTime::ZERO));
        for round in exchange_all(&hub, "heavy", deposits) {
            assert_eq!(round.values.len(), 64);
            assert_eq!(round.values[17][0], 17);
        }
    }

    #[test]
    fn nonblocking_protocol_completes_a_round() {
        for shards in shard_sweep(3) {
            let hub = Hub::with_shards(3, shards);
            let noop = Waker::noop();
            for rank in 0..3usize {
                let s = hub.shard_of(rank);
                assert!(hub
                    .poll_deposit(
                        s,
                        rank,
                        "poll",
                        rank as u32,
                        VirtualTime::from_secs(rank as f64),
                        noop
                    )
                    .is_ok());
                if rank < 2 {
                    assert!(
                        hub.poll_collect::<u32>(s, rank, "poll", noop).is_none(),
                        "round incomplete"
                    );
                }
            }
            for rank in 0..3usize {
                let s = hub.shard_of(rank);
                let round = hub.poll_collect::<u32>(s, rank, "poll", noop).expect("round complete");
                assert_eq!(round.values, vec![0, 1, 2]);
                assert_eq!(round.max_clock.as_secs(), 2.0);
            }
            // Fully drained: the next round may start.
            assert!(hub
                .poll_deposit(hub.shard_of(0), 0, "poll", 9u32, VirtualTime::ZERO, noop)
                .is_ok());
        }
    }

    #[test]
    fn nonblocking_deposit_rejected_until_drained() {
        for shards in shard_sweep(2) {
            let hub = Hub::with_shards(2, shards);
            let noop = Waker::noop();
            let s0 = hub.shard_of(0);
            let s1 = hub.shard_of(1);
            assert!(hub.poll_deposit(s0, 0, "guard", 1u8, VirtualTime::ZERO, noop).is_ok());
            assert!(hub.poll_deposit(s1, 1, "guard", 2u8, VirtualTime::ZERO, noop).is_ok());
            // Round complete but undrained: rank 0 cannot enter the next round.
            let _ = hub.poll_collect::<u8>(s0, 0, "guard", noop).expect("complete");
            assert_eq!(hub.poll_deposit(s0, 0, "guard", 3u8, VirtualTime::ZERO, noop), Err(3u8));
            let _ = hub.poll_collect::<u8>(s1, 1, "guard", noop).expect("complete");
            // Now both departed: entry reopens.
            assert!(hub.poll_deposit(s0, 0, "guard", 3u8, VirtualTime::ZERO, noop).is_ok());
        }
    }

    #[test]
    fn wakers_fire_on_round_completion_and_entry_reopen() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::task::Wake;

        struct CountingWaker(Arc<AtomicUsize>);
        impl Wake for CountingWaker {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        for shards in shard_sweep(2) {
            let wakes = Arc::new(AtomicUsize::new(0));
            let waker = std::task::Waker::from(Arc::new(CountingWaker(Arc::clone(&wakes))));
            let hub = Hub::with_shards(2, shards);
            let s0 = hub.shard_of(0);
            let s1 = hub.shard_of(1);

            // Rank 0 deposits and parks on collect; rank 1's completing
            // deposit must wake it — across shards when S = 2.
            assert!(hub.poll_deposit(s0, 0, "wake", 1u8, VirtualTime::ZERO, &waker).is_ok());
            assert!(hub.poll_collect::<u8>(s0, 0, "wake", &waker).is_none());
            assert_eq!(wakes.load(Ordering::SeqCst), 0);
            assert!(hub.poll_deposit(s1, 1, "wake", 2u8, VirtualTime::ZERO, Waker::noop()).is_ok());
            assert_eq!(wakes.load(Ordering::SeqCst), 1, "round completion wakes parked ranks");

            // Rank 0 drains and immediately parks on the next round's entry
            // guard; rank 1's final drain must wake it.
            let _ = hub.poll_collect::<u8>(s0, 0, "wake", Waker::noop()).expect("complete");
            assert_eq!(hub.poll_deposit(s0, 0, "wake", 3u8, VirtualTime::ZERO, &waker), Err(3u8));
            let _ = hub.poll_collect::<u8>(s1, 1, "wake", Waker::noop()).expect("complete");
            assert_eq!(wakes.load(Ordering::SeqCst), 2, "entry reopening wakes parked ranks");
        }
    }

    #[test]
    #[should_panic(expected = "collective mismatch")]
    fn cross_shard_op_mismatch_panics_at_assembly() {
        // Two single-rank shards: neither shard sees the other's op name
        // at deposit time, so the mismatch is caught by the root assembly.
        let hub = Hub::with_shards(2, 2);
        let noop = Waker::noop();
        assert!(hub.poll_deposit(0, 0, "barrier", (), VirtualTime::ZERO, noop).is_ok());
        let _ = hub.poll_deposit(1, 1, "allreduce", (), VirtualTime::ZERO, noop);
    }

    #[test]
    fn sharded_and_unsharded_agree_over_many_generations() {
        // The degenerate S = 1 hub is the reference; every shard count must
        // produce byte-identical rounds for the same deposits.
        let size = 10usize;
        let rounds = 25u64;
        let run = |shards: usize| -> Vec<(Vec<u64>, f64)> {
            let hub = Hub::with_shards(size, shards);
            (0..rounds)
                .map(|g| {
                    let deposits = (0..size).map(|rank| {
                        let clock = VirtualTime::from_secs((rank as f64) * 0.25 + g as f64);
                        (rank as u64 * 1000 + g, clock)
                    });
                    let round = exchange_all(&hub, "agree", deposits).swap_remove(0);
                    (round.values.to_vec(), round.max_clock.as_secs())
                })
                .collect()
        };
        let reference = run(1);
        for shards in [2usize, 3, 4, 7, 10] {
            assert_eq!(run(shards), reference, "shards = {shards}");
        }
    }
}
