//! The probabilistic erosion dynamics.
//!
//! "Each fluid cell computes a probabilistic erosion of neighboring rock
//! cells" (§IV-B): a rock cell with `k` fluid 4-neighbours survives one
//! iteration with probability `(1 − p)^k`, where `p` is its disc's erosion
//! probability (0.02 weak / 0.4 strong at paper scale).
//!
//! Sampling is **stateless and ownership-independent**: the random roll of a
//! cell at a given iteration is a hash of `(seed, iteration, col, row)`, so
//! which rank owns a cell never changes what it rolls, and a fixed
//! partitioning replays the same trajectory whatever the backend, pool or
//! wire format (the paper's physical runs needed the median of 5 runs to
//! average that noise out). What does *not* follow is that every LB policy
//! sees the same erosion: only cells on a column's exposure list roll, and
//! the two columns at a join between segments that [`crate::stripe::migrate`]
//! brought together from different owners keep lists that miss the other
//! side's erosions of that very iteration — boundary columns are refreshed
//! from halos only while they *are* boundary columns. A rock cell there can
//! sit unlisted, and never roll, so totals differ by a few cells between
//! policies on some seeds (ROADMAP item 1(a) has the cause, the fix and the
//! numbers).
//!
//! Host cost: `O(frontier + erosions)`. The decision pass hashes once per
//! exposed cell; what is constant over the step (`seed ^ mix(iteration)`)
//! or down a column (its key, `p`, neighbour slices, the thresholds
//! `t = 1 − (1 − p)^k`) is computed once. Thresholds are integers: the roll
//! is `x · 2⁻⁵³` for the hash's 53 bits `x`, and scaling by 2⁵³ is exact,
//! so `x · 2⁻⁵³ < t ⇔ x < ⌈t · 2⁵³⌉`. The neighbour count is lazy: a roll
//! not below the largest threshold cannot erode (≈ 92 % of the frontier at
//! `p = 0.02`), so only the rest read their four neighbours. The pass
//! compacts each column's list in place, dropping the rows that erode; the
//! apply pass refines them and [`Column::expose`]s their neighbours in
//! `O(1)` through the cell's list bit, with no search.

use crate::cell::Cell;
use crate::column::Column;

/// SplitMix64 finalizer: a high-quality 64-bit mixer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The part of a cell's hash that is constant over one erosion step.
#[inline]
fn step_key(seed: u64, iteration: u64) -> u64 {
    seed ^ mix(iteration)
}

/// The part of a cell's hash that is constant down one column of a step.
#[inline]
fn column_key(step_key: u64, col: u64) -> u64 {
    step_key ^ mix(col).rotate_left(17)
}

/// `2⁵³`: the roll has 53 bits.
const ROLL_SCALE: f64 = (1u64 << 53) as f64;

/// Finish a [`column_key`] with the row into the roll's 53 bits `x` (roll = `x · 2⁻⁵³`).
#[inline]
fn roll_bits(column_key: u64, row: u64) -> u64 {
    mix(column_key ^ mix(row).rotate_left(41)) >> 11
}

/// Deterministic uniform roll in `[0, 1)` for cell `(col, row)` at
/// `iteration` under `seed`: a hash of the four, keyed step → column → row
/// so that [`erosion_step`] computes each prefix once.
#[inline]
pub fn roll(seed: u64, iteration: u64, col: u64, row: u64) -> f64 {
    roll_bits(column_key(step_key(seed, iteration), col), row) as f64 * (1.0 / ROLL_SCALE)
}

/// The roll below which an exposed rock cell with `fluid_neighbors` fluid
/// 4-neighbours erodes: `1 − (1 − p)^k`, and 0 (no roll is below it) for an
/// unexposed cell or a non-positive `p`.
#[inline]
fn erosion_threshold(fluid_neighbors: u32, p: f64) -> f64 {
    if fluid_neighbors == 0 || p <= 0.0 {
        return 0.0;
    }
    let survive = (1.0 - p).powi(fluid_neighbors as i32);
    1.0 - survive
}

/// Does an exposed rock cell with `fluid_neighbors` fluid 4-neighbours erode
/// this iteration? (`p` = its disc's per-neighbour erosion probability.)
#[inline]
pub fn erodes(seed: u64, iteration: u64, col: u64, row: u64, fluid_neighbors: u32, p: f64) -> bool {
    roll(seed, iteration, col, row) < erosion_threshold(fluid_neighbors, p)
}

/// Outcome of one erosion step over a stripe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErosionDelta {
    /// Rock cells converted to refined fluid this iteration.
    pub eroded: usize,
    /// Rock cells newly exposed by this iteration's erosion (own stripe
    /// only; cross-boundary exposure is repaired by the next halo refresh).
    pub newly_exposed: usize,
}

/// One synchronous erosion step over the columns of a stripe.
///
/// * `cols` — the stripe's columns (mutated);
/// * `first_col` — global index of `cols[0]`;
/// * `left`/`right` — neighbouring ranks' boundary column cells (halo), or
///   `None` at the domain borders;
/// * `prob_of` — erosion probability by *global column index* (rock cells
///   do not store their disc id; the disc is positional, so the caller
///   derives it as `col / cols_per_stripe` — see [`crate::cell`]).
///
/// Two-phase (gather decisions on the pre-iteration state, then apply), so
/// the result is independent of column visit order and of the partitioning.
pub fn erosion_step(
    cols: &mut [Column],
    first_col: usize,
    left: Option<&[Cell]>,
    right: Option<&[Cell]>,
    seed: u64,
    iteration: u64,
    prob_of: &dyn Fn(usize) -> f64,
) -> ErosionDelta {
    let height = cols.first().map_or(0, |c| c.height());
    // Phase 1: decide on the pre-step cells — [`erodes`]'s `roll < threshold`
    // with row-independent work hoisted; eroding rows leave their list here.
    let step_key = step_key(seed, iteration);
    // Integer thresholds by fluid-neighbour count, for the last `p` seen:
    // columns of one disc share it, so it changes a handful of times per stripe.
    let mut thresholds: Option<(f64, [u64; 5])> = None;
    let mut decisions: Vec<(usize, usize)> = Vec::new();
    for ci in 0..cols.len() {
        let (west_cols, rest) = cols.split_at_mut(ci);
        let (col, east_cols) = rest.split_first_mut().expect("ci < cols.len()");
        if col.exposed().is_empty() {
            continue;
        }
        let global_col = first_col + ci;
        let column_key = column_key(step_key, global_col as u64);
        let p = prob_of(global_col);
        let by_neighbors = match thresholds {
            Some((cached_p, by_neighbors)) if cached_p == p => by_neighbors,
            _ => {
                let by_neighbors =
                    [0, 1, 2, 3, 4].map(|k| (erosion_threshold(k, p) * ROLL_SCALE).ceil() as u64);
                thresholds = Some((p, by_neighbors));
                by_neighbors
            }
        };
        let max = by_neighbors.into_iter().max().unwrap_or(0);
        // The neighbouring columns' cells: the halo at either stripe edge.
        let west = west_cols.last().map_or(left, |c| Some(c.cells()));
        let east = east_cols.first().map_or(right, |c| Some(c.cells()));
        col.retain_exposed(|cells, row| {
            debug_assert!(cells[row].is_rock(), "exposed rows are rock");
            let x = roll_bits(column_key, row as u64);
            if x >= max {
                return true;
            }
            let k = usize::from(west.is_some_and(|c| c[row].is_fluid()))
                + usize::from(east.is_some_and(|c| c[row].is_fluid()))
                + usize::from(row > 0 && cells[row - 1].is_fluid())
                + usize::from(row + 1 < height && cells[row + 1].is_fluid());
            let erodes = x < by_neighbors[k];
            if erodes {
                decisions.push((ci, row));
            }
            !erodes
        });
    }

    // Phase 2a: apply all erosions.
    for &(ci, row) in &decisions {
        cols[ci].refine(row);
    }
    // Phase 2b: expose surviving rock neighbours (own stripe only).
    let mut newly_exposed = 0usize;
    for &(ci, row) in &decisions {
        let (west, up) = (ci.wrapping_sub(1), row.wrapping_sub(1));
        for (c, r) in [(west, row), (ci + 1, row), (ci, up), (ci, row + 1)] {
            if c < cols.len() && r < height {
                newly_exposed += usize::from(cols[c].expose(r));
            }
        }
    }

    ErosionDelta { eroded: decisions.len(), newly_exposed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;

    fn build_stripe(g: &Geometry, range: std::ops::Range<usize>) -> Vec<Column> {
        range.map(|c| Column::initial(g, c)).collect()
    }

    #[test]
    fn roll_is_deterministic_and_uniformish() {
        assert_eq!(roll(1, 2, 3, 4), roll(1, 2, 3, 4));
        assert_ne!(roll(1, 2, 3, 4), roll(1, 2, 3, 5));
        // Mean of many rolls ≈ 0.5.
        let n = 10_000;
        let sum: f64 = (0..n).map(|i| roll(9, i, i * 7, i * 13)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        // All in [0, 1).
        assert!((0..1000).all(|i| {
            let r = roll(3, i, 0, i);
            (0.0..1.0).contains(&r)
        }));
    }

    #[test]
    fn erodes_probability_zero_and_one() {
        assert!(!erodes(1, 1, 1, 1, 4, 0.0));
        assert!(!erodes(1, 1, 1, 1, 0, 0.9), "unexposed cells never erode");
        assert!(erodes(1, 1, 1, 1, 1, 1.0), "p = 1 always erodes");
    }

    #[test]
    fn erodes_rate_matches_probability() {
        // Empirical frequency over many cells ≈ 1 − (1−p)^k.
        let (p, k) = (0.3, 2u32);
        let n = 20_000u64;
        let hits = (0..n).filter(|&i| erodes(7, 0, i, i * 31, k, p)).count();
        let expect = 1.0 - (1.0 - p) * (1.0 - p);
        let freq = hits as f64 / n as f64;
        assert!((freq - expect).abs() < 0.01, "freq {freq} vs {expect}");
    }

    #[test]
    fn step_erodes_only_frontier_and_conserves_cells() {
        let g = Geometry::new(1, 64, 64, 14);
        let mut cols = build_stripe(&g, 0..64);
        let rock_before: usize =
            cols.iter().map(|c| (0..64).filter(|&r| c.cell(r).is_rock()).count()).sum();
        let delta = erosion_step(&mut cols, 0, None, None, 42, 0, &|_| 0.5);
        assert!(delta.eroded > 0, "a p = 0.5 frontier must erode");
        let rock_after: usize =
            cols.iter().map(|c| (0..64).filter(|&r| c.cell(r).is_rock()).count()).sum();
        assert_eq!(rock_before - rock_after, delta.eroded);
        for c in &cols {
            c.check_invariants().unwrap();
        }
    }

    #[test]
    fn rock_fully_erodes_eventually() {
        let g = Geometry::new(1, 40, 40, 8);
        let mut cols = build_stripe(&g, 0..40);
        for iter in 0..600u64 {
            erosion_step(&mut cols, 0, None, None, 5, iter, &|_| 0.5);
        }
        let rock_left: usize =
            cols.iter().map(|c| (0..40).filter(|&r| c.cell(r).is_rock()).count()).sum();
        assert_eq!(rock_left, 0, "p = 0.5 must consume the whole disc");
        // All eroded cells are refined: weight = plain fluid + 4·eroded.
        let weight: u64 = cols.iter().map(|c| c.fluid_weight() as u64).sum();
        let plain = (40 * 40) as u64 - 197; // πr² ≈ 201 rock cells (geometry-dependent)
        assert!(weight > plain, "refined cells must add weight");
    }

    #[test]
    fn zero_probability_is_static() {
        let g = Geometry::new(1, 40, 40, 8);
        let mut cols = build_stripe(&g, 0..40);
        let before = cols.clone();
        for iter in 0..50u64 {
            let d = erosion_step(&mut cols, 0, None, None, 5, iter, &|_| 0.0);
            assert_eq!(d, ErosionDelta::default());
        }
        assert_eq!(cols, before);
    }

    #[test]
    fn partition_independence() {
        // The same domain split as 1 stripe vs 2 stripes (with halos) must
        // produce the same cells after several iterations.
        let g = Geometry::new(2, 40, 40, 8);
        let seed = 99;
        // Disc id is positional: global columns 0..40 are disc 0.
        let prob = |col: usize| if col / 40 == 0 { 0.4 } else { 0.1 };

        // Monolithic run.
        let mut whole = build_stripe(&g, 0..80);
        for iter in 0..30u64 {
            erosion_step(&mut whole, 0, None, None, seed, iter, &prob);
        }

        // Two-stripe run with manual halo exchange each iteration.
        let mut a = build_stripe(&g, 0..40);
        let mut b = build_stripe(&g, 40..80);
        for iter in 0..30u64 {
            let halo_a_right: Vec<Cell> = b[0].cells().to_vec();
            let halo_b_left: Vec<Cell> = a[39].cells().to_vec();
            // Boundary refresh mirrors the app loop.
            let a_inner = a[38].cells().to_vec();
            a[39].refresh_exposure(Some(&a_inner), Some(&halo_a_right));
            let b_inner = b[1].cells().to_vec();
            b[0].refresh_exposure(Some(&halo_b_left), Some(&b_inner));
            erosion_step(&mut a, 0, None, Some(&halo_a_right), seed, iter, &prob);
            erosion_step(&mut b, 40, Some(&halo_b_left), None, seed, iter, &prob);
        }

        for (i, col) in whole.iter().enumerate() {
            let split_col = if i < 40 { &a[i] } else { &b[i - 40] };
            assert_eq!(col.cells(), split_col.cells(), "column {i} diverged between partitionings");
        }
    }

    #[test]
    fn strong_rock_erodes_faster_than_weak() {
        let g = Geometry::new(2, 40, 40, 8);
        let mut cols = build_stripe(&g, 0..80);
        let prob = |col: usize| if col / 40 == 0 { 0.4 } else { 0.02 };
        for iter in 0..40u64 {
            erosion_step(&mut cols, 0, None, None, 11, iter, &prob);
        }
        let weight = |cols: &[Column], range: std::ops::Range<usize>| -> u64 {
            range.map(|i| cols[i].fluid_weight() as u64).sum()
        };
        let strong_side = weight(&cols, 0..40);
        let weak_side = weight(&cols, 40..80);
        assert!(strong_side > weak_side + 100, "strong {strong_side} vs weak {weak_side}");
    }
}
