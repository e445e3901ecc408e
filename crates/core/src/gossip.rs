//! Gossip/dissemination of the WIR database (§III-C).
//!
//! "one dissemination step is done at each iteration to mitigate the
//! overhead due to the WIR communication" — relying on the principle of
//! persistence [Kalé 2002] to tolerate slightly stale entries.
//!
//! Peer selection is a pure function of `(mode, rank, size, round, seed)`,
//! so runs are deterministic and every rank can compute anybody's peers.
//! The module also contains a round-based, runtime-free simulation used for
//! convergence tests and the gossip ablation study.
//!
//! Two wire formats exist ([`GossipWire`]): the paper's full-snapshot
//! messages, and delta messages ([`GossipOutbox`]) that carry only entries
//! fresher than the per-peer watermark — the receiver's merged state is
//! provably identical either way (omitted entries were already delivered,
//! and merges are idempotent and monotone), so rounds-to-completion and
//! final databases match exactly while the bytes on the wire drop from
//! `O(known)` to `O(changed since last contact)` per message.
//!
//! Either way a message travels by reference: [`GossipOutbox::view`]
//! hands out a [`WirView`] of the sender's run (copy-on-write, see
//! [`crate::db`]) and the receiver merges it in place, so no entry is
//! copied to send it.

use crate::db::{WirDatabase, WirEntry, WirView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// How peers are chosen at each dissemination step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GossipMode {
    /// Deterministic ring: push to `(rank + 1) mod P`. Diameter `P − 1`
    /// rounds — cheap but slow.
    Ring,
    /// Epidemic push to `fanout` random peers per round: converges in
    /// `O(log P)` rounds with high probability (Demers et al., PODC'87).
    RandomPush {
        /// Number of peers contacted per round (≥ 1).
        fanout: usize,
    },
    /// Push to `fanout` random peers *and* to the ring successor: combines
    /// the worst-case guarantee of the ring with epidemic speed.
    Hybrid {
        /// Number of random peers contacted per round (≥ 1).
        fanout: usize,
    },
}

impl GossipMode {
    /// Hard config validation: reject a zero `fanout`, which would
    /// otherwise trip `random_peers`' assert inside every rank of a
    /// launched run. The single check every config `validate()` routes
    /// through, beside [`GossipWire::validate`].
    pub fn validate(&self) -> Result<(), String> {
        match self {
            GossipMode::RandomPush { fanout: 0 } | GossipMode::Hybrid { fanout: 0 } => {
                Err("gossip fanout must be at least 1".into())
            }
            _ => Ok(()),
        }
    }

    /// Upper bound (in rounds) within which dissemination is guaranteed or
    /// expected w.h.p.; used by tests and by staleness heuristics.
    pub fn expected_rounds(&self, size: usize) -> usize {
        match self {
            GossipMode::Ring => size.saturating_sub(1),
            // log2(P) push rounds spread a rumor to everyone w.h.p.;
            // generous constant for small P.
            GossipMode::RandomPush { .. } | GossipMode::Hybrid { .. } => {
                (4.0 * (size.max(2) as f64).log2().ceil()) as usize + 4
            }
        }
    }
}

/// Deterministic peer selection for `rank` at `round`.
///
/// Returned peers are distinct and never equal to `rank`. For a single-rank
/// run the list is empty.
pub fn select_peers(
    mode: GossipMode,
    rank: usize,
    size: usize,
    round: u64,
    seed: u64,
) -> Vec<usize> {
    if size <= 1 {
        return Vec::new();
    }
    let ring_next = (rank + 1) % size;
    match mode {
        GossipMode::Ring => vec![ring_next],
        GossipMode::RandomPush { fanout } => random_peers(rank, size, round, seed, fanout, None),
        GossipMode::Hybrid { fanout } => {
            random_peers(rank, size, round, seed, fanout, Some(ring_next))
        }
    }
}

fn random_peers(
    rank: usize,
    size: usize,
    round: u64,
    seed: u64,
    fanout: usize,
    include: Option<usize>,
) -> Vec<usize> {
    assert!(fanout >= 1, "fanout must be at least 1");
    // Derive a per-(rank, round) stream so peers are independent across
    // ranks and rounds yet fully reproducible.
    let stream = seed
        ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut rng = StdRng::seed_from_u64(stream);
    // At most size − 1 distinct peers exist (everyone but `rank`); an
    // `include` peer counts against the same pool, so the cap applies to
    // the whole list, not just the random part.
    let want = (usize::from(include.is_some()) + fanout).min(size - 1);
    let mut peers = Vec::with_capacity(want);
    peers.extend(include);
    let mut draws = 0;
    while peers.len() < want && draws < 64 * size {
        draws += 1;
        let p = rng.random_range(0..size);
        // Membership by a linear scan of at most `fanout + 1` peers: it
        // rejects `rank`, duplicates and `include`, and allocates nothing.
        if p != rank && !peers.contains(&p) {
            peers.push(p);
        }
    }
    // Hard assert in every profile: an under-filled list would silently
    // gossip to fewer peers than configured, skewing convergence — a
    // release build must fail loudly rather than degrade dissemination.
    // (`want ≤ size − 1` and the 64·P draw budget make this unreachable in
    // practice: the worst case is coupon-collector, ~P·ln P draws.)
    assert_eq!(
        peers.len(),
        want,
        "random_peers under-filled after {draws} draws \
         (rank {rank}, size {size}, fanout {fanout}, round {round})"
    );
    peers
}

/// Wire format of the gossip payloads (what a dissemination step sends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GossipWire {
    /// Every message carries the sender's full database snapshot — the
    /// paper's scheme, `O(known entries)` bytes per message.
    Full,
    /// Messages carry only the entries that changed since the sender last
    /// wrote to that peer (per-peer change-clock watermark, see
    /// [`GossipOutbox`]), with a periodic full-snapshot anti-entropy round
    /// as the safety net. This is the default wire: it is provably
    /// merge-identical to [`GossipWire::Full`] and the honest wire charge
    /// is what makes the largest legs affordable.
    Delta {
        /// Anti-entropy period: at rounds divisible by `full_every`, full
        /// snapshots are sent regardless of watermarks, so a peer that
        /// somehow missed a delta is repaired within one period and Ring
        /// mode's worst-case guarantee survives any single loss. Must be
        /// ≥ 1; `1` degenerates to [`GossipWire::Full`].
        full_every: u64,
    },
}

impl GossipWire {
    /// Default anti-entropy period of [`GossipWire::delta`].
    pub const DEFAULT_FULL_EVERY: u64 = 32;

    /// Delta wire with the default anti-entropy period.
    pub fn delta() -> Self {
        GossipWire::Delta { full_every: Self::DEFAULT_FULL_EVERY }
    }

    /// Hard config validation: reject `Delta { full_every: 0 }`.
    ///
    /// `FromStr` already refuses `delta:0`, but configs can also be built
    /// programmatically or deserialized; this is the single check every
    /// config `validate()` routes through, mirroring the `random_peers`
    /// fill assert — a release build must fail loudly, not skip
    /// anti-entropy forever.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            GossipWire::Delta { full_every: 0 } => {
                Err("gossip wire delta:0 is invalid (anti-entropy period must be ≥ 1)".into())
            }
            _ => Ok(()),
        }
    }
}

impl Default for GossipWire {
    /// Delta gossip with the default anti-entropy period — flipped from
    /// `Full` once the committed baselines were regenerated under the new
    /// wire (see the README's baseline regeneration policy).
    fn default() -> Self {
        Self::delta()
    }
}

impl fmt::Display for GossipWire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GossipWire::Full => write!(f, "full"),
            GossipWire::Delta { full_every } => write!(f, "delta:{full_every}"),
        }
    }
}

impl FromStr for GossipWire {
    type Err = String;

    /// Parse `full`, `delta` (default anti-entropy period) or `delta:<N>`.
    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw {
            "full" => Ok(GossipWire::Full),
            "delta" => Ok(GossipWire::delta()),
            other => match other.strip_prefix("delta:").map(str::parse::<u64>) {
                Some(Ok(full_every)) if full_every >= 1 => Ok(GossipWire::Delta { full_every }),
                _ => Err(format!(
                    "unknown gossip wire `{raw}` (expected `full`, `delta` or `delta:<N≥1>`)"
                )),
            },
        }
    }
}

/// Per-sender delta-gossip state: one change-clock watermark per peer,
/// recording the sender's [`WirDatabase::version`] as of the last message
/// to that peer. The next message to the same peer carries exactly the
/// entries that changed after the watermark — everything older was already
/// sent (and merges are idempotent and monotone, so resending would be a
/// no-op anyway).
///
/// A message is a [`WirView`] of the sender's run, taken by
/// [`view`](Self::view) without copying an entry; [`message`](Self::message)
/// is the same message materialized as a slice.
///
/// Memory is proportional to the number of *distinct peers actually
/// contacted* (`O(1)` for Ring, `O(min(P, fanout · rounds))` for epidemic
/// modes), never a dense `O(P)` table.
#[derive(Debug, Clone, Default)]
pub struct GossipOutbox {
    watermarks: HashMap<usize, u64>,
}

impl GossipOutbox {
    /// A fresh outbox: every peer is assumed to know nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the view for one dissemination message to `peer` at `round`,
    /// honoring the wire format, and advance the peer's watermark.
    ///
    /// Under [`GossipWire::Full`] this is the full snapshot (watermarks are
    /// not consulted — both formats can be mixed freely). Under
    /// [`GossipWire::Delta`] it is the entries changed since the last send
    /// to `peer`, or the full snapshot on first contact and on anti-entropy
    /// rounds (`round % full_every == 0`). A full view costs no pass over
    /// the run, a delta view one counting pass; neither allocates.
    pub fn view(&mut self, db: &WirDatabase, peer: usize, round: u64, wire: GossipWire) -> WirView {
        match wire {
            GossipWire::Full => db.view(),
            GossipWire::Delta { full_every } => {
                // Hard in every profile: `full_every = 0` would divide by
                // zero below, and the old `debug_assert!` + `.max(1)` mask
                // let release builds silently reinterpret `delta:0` as
                // `delta:1`. Configs are validated up front
                // ([`GossipWire::validate`]); reaching this with 0 is a bug.
                assert!(
                    full_every >= 1,
                    "anti-entropy period must be ≥ 1 (got delta:{full_every})"
                );
                let anti_entropy = round.is_multiple_of(full_every);
                match self.watermarks.insert(peer, db.version()) {
                    Some(since) if !anti_entropy => db.view_since(since),
                    // Everything changed "since" a first contact or an
                    // anti-entropy round: no need to count it.
                    _ => db.view(),
                }
            }
        }
    }

    /// [`view`](Self::view), materialized: the payload as a slice, one
    /// allocation of exactly its length (none when the delta is empty).
    pub fn message(
        &mut self,
        db: &WirDatabase,
        peer: usize,
        round: u64,
        wire: GossipWire,
    ) -> Vec<WirEntry> {
        self.view(db, peer, round, wire).to_vec()
    }

    /// Number of peers with a recorded watermark (the outbox's footprint).
    pub fn tracked_peers(&self) -> usize {
        self.watermarks.len()
    }
}

/// Outcome of [`simulate_gossip`]: rounds until every database was
/// complete (`None` if the cap was hit first) and the final databases —
/// used by the delta-vs-full equivalence suite, which asserts both fields
/// identical across wire formats.
#[derive(Debug, Clone)]
pub struct GossipSim {
    /// Rounds until every rank's database was complete, capped.
    pub rounds: Option<usize>,
    /// Every rank's database after the last simulated round.
    pub databases: Vec<WirDatabase>,
}

/// Round-based gossip simulation (no runtime needed): every rank starts
/// knowing only its own entry; rounds are synchronous (every view is
/// taken of the start-of-round state, then delivered). Runs until all
/// databases are complete or `max_rounds` is hit.
pub fn simulate_gossip(
    mode: GossipMode,
    wire: GossipWire,
    size: usize,
    seed: u64,
    max_rounds: usize,
) -> GossipSim {
    let mut dbs: Vec<WirDatabase> = (0..size)
        .map(|r| {
            let mut db = WirDatabase::new(size);
            db.update(WirEntry { rank: r, wir: r as f64, iteration: 0 });
            db
        })
        .collect();
    let mut outboxes: Vec<GossipOutbox> = vec![GossipOutbox::new(); size];
    if dbs.iter().all(|d| d.is_complete()) {
        return GossipSim { rounds: Some(0), databases: dbs };
    }
    for round in 0..max_rounds {
        // Synchronous rounds: take every view of the start-of-round
        // databases, then deliver. A view keeps its run as it was taken
        // (copy-on-write), so merging one never leaks into another.
        let mut deliveries: Vec<(usize, WirView)> = Vec::new();
        for (rank, outbox) in outboxes.iter_mut().enumerate() {
            for peer in select_peers(mode, rank, size, round as u64, seed) {
                deliveries.push((peer, outbox.view(&dbs[rank], peer, round as u64, wire)));
            }
        }
        for (peer, view) in deliveries {
            dbs[peer].merge_view(&view);
        }
        if dbs.iter().all(|d| d.is_complete()) {
            return GossipSim { rounds: Some(round + 1), databases: dbs };
        }
    }
    GossipSim { rounds: None, databases: dbs }
}

/// [`simulate_gossip`] under the classic full-snapshot wire, reporting only
/// the number of rounds until all databases are complete.
pub fn simulate_rounds_to_completion(
    mode: GossipMode,
    size: usize,
    seed: u64,
    max_rounds: usize,
) -> Option<usize> {
    simulate_gossip(mode, GossipWire::Full, size, seed, max_rounds).rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_peer_is_successor() {
        assert_eq!(select_peers(GossipMode::Ring, 3, 8, 0, 0), vec![4]);
        assert_eq!(select_peers(GossipMode::Ring, 7, 8, 5, 9), vec![0]);
    }

    #[test]
    fn single_rank_no_peers() {
        for mode in [
            GossipMode::Ring,
            GossipMode::RandomPush { fanout: 2 },
            GossipMode::Hybrid { fanout: 1 },
        ] {
            assert!(select_peers(mode, 0, 1, 0, 0).is_empty());
        }
    }

    #[test]
    fn random_peers_valid_and_deterministic() {
        let mode = GossipMode::RandomPush { fanout: 3 };
        let a = select_peers(mode, 5, 32, 7, 42);
        let b = select_peers(mode, 5, 32, 7, 42);
        assert_eq!(a, b, "peer selection must be deterministic");
        assert_eq!(a.len(), 3);
        for &p in &a {
            assert_ne!(p, 5);
            assert!(p < 32);
        }
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "peers must be distinct");
    }

    #[test]
    fn different_rounds_different_peers() {
        let mode = GossipMode::RandomPush { fanout: 2 };
        let rounds: Vec<Vec<usize>> = (0..8).map(|r| select_peers(mode, 0, 64, r, 1)).collect();
        assert!(rounds.windows(2).any(|w| w[0] != w[1]), "peer choices should vary across rounds");
    }

    #[test]
    fn fanout_capped_by_size() {
        let peers = select_peers(GossipMode::RandomPush { fanout: 10 }, 0, 4, 0, 0);
        assert_eq!(peers.len(), 3, "cannot contact more peers than exist");
    }

    #[test]
    fn hybrid_includes_ring_successor() {
        let peers = select_peers(GossipMode::Hybrid { fanout: 2 }, 6, 16, 3, 5);
        assert!(peers.contains(&7));
        assert_eq!(peers.len(), 3);
    }

    #[test]
    fn ring_completes_in_exactly_p_minus_1() {
        for size in [2usize, 5, 16] {
            let rounds = simulate_rounds_to_completion(GossipMode::Ring, size, 0, 2 * size);
            assert_eq!(rounds, Some(size - 1), "size {size}");
        }
    }

    #[test]
    fn random_push_completes_within_expected_bound() {
        for size in [8usize, 32, 128] {
            let mode = GossipMode::RandomPush { fanout: 2 };
            let bound = mode.expected_rounds(size);
            let rounds = simulate_rounds_to_completion(mode, size, 13, bound).expect("converged");
            assert!(rounds <= bound, "size {size}: {rounds} > {bound}");
        }
    }

    #[test]
    fn hybrid_no_slower_than_ring() {
        let size = 64;
        let ring = simulate_rounds_to_completion(GossipMode::Ring, size, 3, size).unwrap();
        let hybrid =
            simulate_rounds_to_completion(GossipMode::Hybrid { fanout: 1 }, size, 3, size).unwrap();
        assert!(hybrid <= ring);
    }

    #[test]
    fn single_rank_converges_in_zero_rounds() {
        assert_eq!(simulate_rounds_to_completion(GossipMode::Ring, 1, 0, 1), Some(0));
    }

    #[test]
    fn gossip_wire_parses_and_displays() {
        assert_eq!("full".parse::<GossipWire>(), Ok(GossipWire::Full));
        assert_eq!("delta".parse::<GossipWire>(), Ok(GossipWire::delta()));
        assert_eq!("delta:7".parse::<GossipWire>(), Ok(GossipWire::Delta { full_every: 7 }));
        assert!("delta:0".parse::<GossipWire>().is_err());
        assert!("bogus".parse::<GossipWire>().is_err());
        assert_eq!(GossipWire::Delta { full_every: 7 }.to_string(), "delta:7");
        assert_eq!(GossipWire::Full.to_string(), "full");
        assert_eq!(GossipWire::default(), GossipWire::delta(), "delta is the default wire");
    }

    #[test]
    fn random_peers_always_fill_to_want_in_every_profile() {
        // Regression: the under-fill check used to be a `debug_assert`, so
        // a release build could silently gossip to fewer peers than
        // configured. Sweep the adversarial corners — fanout = P − 1
        // (coupon collector, maximal rejection) and tiny sizes with an
        // `include` peer eating into the pool — and check the exact fill
        // that the hard assert now enforces in all profiles.
        for size in [2usize, 3, 4, 7, 16, 64, 256] {
            for round in 0..8u64 {
                let all =
                    select_peers(GossipMode::RandomPush { fanout: size - 1 }, 0, size, round, 7);
                assert_eq!(all.len(), size - 1, "size {size} round {round}");
                let hybrid =
                    select_peers(GossipMode::Hybrid { fanout: size - 1 }, 1, size, round, 7);
                assert_eq!(hybrid.len(), size - 1, "size {size} round {round} (hybrid)");
            }
        }
    }

    #[test]
    fn mode_validate_rejects_zero_fanout() {
        assert!(GossipMode::RandomPush { fanout: 0 }.validate().is_err());
        assert!(GossipMode::Hybrid { fanout: 0 }.validate().is_err());
        assert!(GossipMode::RandomPush { fanout: 1 }.validate().is_ok());
        assert!(GossipMode::Hybrid { fanout: 2 }.validate().is_ok());
        assert!(GossipMode::Ring.validate().is_ok());
    }

    #[test]
    fn wire_validate_rejects_zero_anti_entropy_period() {
        assert!(GossipWire::Delta { full_every: 0 }.validate().is_err());
        assert!(GossipWire::Delta { full_every: 1 }.validate().is_ok());
        assert!(GossipWire::delta().validate().is_ok());
        assert!(GossipWire::Full.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "anti-entropy period must be ≥ 1")]
    fn outbox_panics_on_zero_period_in_every_profile() {
        // Regression: this used to be a debug_assert plus a `.max(1)` mask,
        // so release builds silently ran `delta:0` as `delta:1`.
        let db = WirDatabase::new(2);
        let mut outbox = GossipOutbox::new();
        let _ = outbox.message(&db, 1, 0, GossipWire::Delta { full_every: 0 });
    }

    #[test]
    fn outbox_full_wire_is_the_snapshot() {
        let mut db = WirDatabase::new(4);
        db.update(WirEntry { rank: 1, wir: 1.0, iteration: 3 });
        let mut outbox = GossipOutbox::new();
        let payload = outbox.message(&db, 2, 5, GossipWire::Full);
        assert_eq!(payload, db.snapshot());
        assert_eq!(outbox.tracked_peers(), 0, "full wire needs no watermarks");
    }

    #[test]
    fn outbox_delta_sends_only_the_news_per_peer() {
        let wire = GossipWire::Delta { full_every: 100 };
        let mut db = WirDatabase::new(8);
        db.update(WirEntry { rank: 0, wir: 1.0, iteration: 1 });
        let mut outbox = GossipOutbox::new();
        // First contact (round 1, not anti-entropy): watermark empty → full.
        let first = outbox.message(&db, 3, 1, wire);
        assert_eq!(first.len(), 1);
        // Nothing changed: the next message to the same peer is empty.
        assert!(outbox.message(&db, 3, 2, wire).is_empty());
        // News arrives; only it is sent — and a *new* peer gets everything.
        db.update(WirEntry { rank: 5, wir: 2.0, iteration: 2 });
        let next = outbox.message(&db, 3, 3, wire);
        assert_eq!(next.iter().map(|e| e.rank).collect::<Vec<_>>(), vec![5]);
        assert_eq!(outbox.message(&db, 6, 3, wire).len(), 2);
        assert_eq!(outbox.tracked_peers(), 2);
    }

    #[test]
    fn outbox_anti_entropy_rounds_send_full_snapshots() {
        let wire = GossipWire::Delta { full_every: 4 };
        let mut db = WirDatabase::new(8);
        db.update(WirEntry { rank: 0, wir: 1.0, iteration: 1 });
        db.update(WirEntry { rank: 2, wir: 2.0, iteration: 1 });
        let mut outbox = GossipOutbox::new();
        assert_eq!(outbox.message(&db, 1, 1, wire).len(), 2);
        assert!(outbox.message(&db, 1, 2, wire).is_empty());
        // Round 4 is divisible by the period: full snapshot despite the
        // up-to-date watermark.
        assert_eq!(outbox.message(&db, 1, 4, wire).len(), 2);
    }

    #[test]
    fn delta_simulation_matches_full_simulation() {
        for mode in [
            GossipMode::Ring,
            GossipMode::RandomPush { fanout: 2 },
            GossipMode::Hybrid { fanout: 1 },
        ] {
            let size = 24;
            let bound = mode.expected_rounds(size).max(size);
            let full = simulate_gossip(mode, GossipWire::Full, size, 11, bound);
            let delta = simulate_gossip(mode, GossipWire::delta(), size, 11, bound);
            assert_eq!(full.rounds, delta.rounds, "{mode:?}");
            assert_eq!(full.databases, delta.databases, "{mode:?}");
        }
    }

    /// `random_peers` as it was when membership was a per-call hash set:
    /// the oracle the linear scan must reproduce draw for draw.
    fn hash_set_peers(
        rank: usize,
        size: usize,
        round: u64,
        seed: u64,
        fanout: usize,
        include: Option<usize>,
    ) -> Vec<usize> {
        let stream = seed
            ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut rng = StdRng::seed_from_u64(stream);
        let mut peers: Vec<usize> = include.into_iter().collect();
        let want = (peers.len() + fanout).min(size - 1);
        let mut seen: std::collections::HashSet<usize> = peers.iter().copied().collect();
        seen.insert(rank);
        let mut draws = 0;
        while peers.len() < want && draws < 64 * size {
            draws += 1;
            let p = rng.random_range(0..size);
            if seen.insert(p) {
                peers.push(p);
            }
        }
        peers
    }

    #[test]
    fn peer_lists_match_the_hash_set_oracle() {
        for size in [2usize, 3, 7, 64, 256] {
            // Every fanout on the small sizes; the corners and a spread
            // between them on the large ones.
            let fanouts: Vec<usize> = if size <= 7 {
                (1..size).collect()
            } else {
                vec![1, 2, 3, 4, 8, size / 2, size - 2, size - 1]
            };
            for fanout in fanouts {
                for seed in [0u64, 7, 0xDEAD_BEEF] {
                    for round in 0..6u64 {
                        let rank = (seed as usize + round as usize * 5) % size;
                        let ring_next = (rank + 1) % size;
                        for (mode, include) in [
                            (GossipMode::Ring, None),
                            (GossipMode::RandomPush { fanout }, None),
                            (GossipMode::Hybrid { fanout }, Some(ring_next)),
                        ] {
                            let expected = match mode {
                                GossipMode::Ring => vec![ring_next],
                                _ => hash_set_peers(rank, size, round, seed, fanout, include),
                            };
                            assert_eq!(
                                select_peers(mode, rank, size, round, seed),
                                expected,
                                "{mode:?} rank {rank} size {size} round {round} seed {seed}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_view_is_charged_as_its_materialized_payload() {
        // One sender, one outbox, each kind of message in turn: the charge
        // the driver books for a view is `wire_bytes` of the same message
        // as a slice, which a twin outbox builds.
        let wire = GossipWire::Delta { full_every: 4 };
        let mut db = WirDatabase::new(16);
        for rank in [0, 3, 5, 9] {
            db.update(WirEntry { rank, wir: rank as f64, iteration: 1 });
        }
        let (mut views, mut slices) = (GossipOutbox::new(), GossipOutbox::new());
        let mut charged = |db: &WirDatabase, round: u64, wire: GossipWire| {
            let view = views.view(db, 2, round, wire);
            let payload = slices.message(db, 2, round, wire);
            assert_eq!(view.to_vec(), payload, "round {round} {wire}");
            assert_eq!(view.wire_bytes(), crate::db::wire_bytes(&payload), "round {round} {wire}");
            view.len()
        };
        assert_eq!(charged(&db, 1, wire), 4, "first contact: the full snapshot");
        db.update(WirEntry { rank: 3, wir: 7.0, iteration: 2 });
        db.update(WirEntry { rank: 11, wir: 1.0, iteration: 2 });
        assert_eq!(charged(&db, 2, wire), 2, "a delta: the two changes");
        assert_eq!(charged(&db, 3, wire), 0, "an empty delta");
        assert_eq!(charged(&db, 4, wire), 5, "anti-entropy: the full snapshot");
        assert_eq!(charged(&db, 5, GossipWire::Full), 5, "the full wire");
    }

    #[test]
    fn hybrid_tiny_size_underfill_is_benign() {
        // P = 2, Hybrid{1}: the ring successor is the only possible peer, so
        // the random part cannot add anyone — the want-cap must account for
        // that instead of spinning and silently under-filling.
        let peers = select_peers(GossipMode::Hybrid { fanout: 1 }, 0, 2, 0, 0);
        assert_eq!(peers, vec![1]);
        let peers = select_peers(GossipMode::Hybrid { fanout: 2 }, 1, 3, 4, 9);
        assert_eq!(peers.len(), 2, "both non-self ranks, nothing more");
    }
}
