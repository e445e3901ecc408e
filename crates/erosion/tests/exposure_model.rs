//! The unordered exposure lists against a model that keeps sorted ones.
//!
//! The model is the sorted-list representation the kernel had before lists
//! became unordered sets marked by the cell's list bit: its `erode`,
//! `expose`, `refresh_exposure` and two-phase step are copied here, with
//! decisions taken through the public [`erodes`]. Both run the same
//! multi-rank loop — halos from the neighbouring pieces, a boundary
//! refresh, a step per piece — and between iterations the domain is cut
//! into new pieces and reassembled through [`Stripe::from_segments`], which
//! refreshes nothing at the joins: the lists there stay as stale as the
//! model's.

use proptest::prelude::*;
use ulba_erosion::erode::{erodes, erosion_step, roll};
use ulba_erosion::{Cell, Column, Geometry, Stripe};

/// One column of the model: a sorted exposure list and no list bit.
#[derive(Clone)]
struct ModelColumn {
    cells: Vec<Cell>,
    fluid_weight: u32,
    exposed: Vec<u16>,
}

impl ModelColumn {
    fn initial(g: &Geometry, col: usize) -> Self {
        let cells: Vec<Cell> = (0..g.height).map(|row| g.initial_cell(col, row)).collect();
        let exposed =
            (0..g.height).filter(|&row| g.initially_exposed(col, row)).map(|r| r as u16).collect();
        let fluid_weight = cells.iter().map(|c| c.weight()).sum();
        Self { cells, fluid_weight, exposed }
    }

    fn erode(&mut self, row: usize) {
        let c = self.cells[row];
        self.cells[row] = c.eroded();
        self.fluid_weight += self.cells[row].weight();
        if let Ok(pos) = self.exposed.binary_search(&(row as u16)) {
            self.exposed.remove(pos);
        }
    }

    /// Whether the row was newly listed.
    fn expose(&mut self, row: usize) -> bool {
        if !self.cells[row].is_rock() {
            return false;
        }
        match self.exposed.binary_search(&(row as u16)) {
            Ok(_) => false,
            Err(pos) => {
                self.exposed.insert(pos, row as u16);
                true
            }
        }
    }

    fn refresh_exposure(&mut self, left: Option<&[Cell]>, right: Option<&[Cell]>) {
        let h = self.cells.len();
        self.exposed.clear();
        for row in 0..h {
            if !self.cells[row].is_rock() {
                continue;
            }
            let fluid_left = left.is_some_and(|l| l[row].is_fluid());
            let fluid_right = right.is_some_and(|r| r[row].is_fluid());
            let fluid_up = row > 0 && self.cells[row - 1].is_fluid();
            let fluid_down = row + 1 < h && self.cells[row + 1].is_fluid();
            if fluid_left || fluid_right || fluid_up || fluid_down {
                self.exposed.push(row as u16);
            }
        }
    }
}

fn model_refresh_boundary(cols: &mut [ModelColumn], left: Option<&[Cell]>, right: Option<&[Cell]>) {
    let n = cols.len();
    if n == 1 {
        cols[0].refresh_exposure(left, right);
        return;
    }
    let inner = cols[1].cells.clone();
    cols[0].refresh_exposure(left, Some(&inner));
    let inner = cols[n - 2].cells.clone();
    cols[n - 1].refresh_exposure(Some(&inner), right);
}

/// The model's step: `(eroded, newly exposed)`.
#[allow(clippy::too_many_arguments)]
fn model_step(
    cols: &mut [ModelColumn],
    first_col: usize,
    left: Option<&[Cell]>,
    right: Option<&[Cell]>,
    seed: u64,
    iter: u64,
    prob_of: &dyn Fn(usize) -> f64,
) -> (usize, usize) {
    let height = cols[0].cells.len();
    let fluid = |cells: Option<&[Cell]>, row: usize| cells.is_some_and(|c| c[row].is_fluid());
    let mut decisions = Vec::new();
    for (ci, col) in cols.iter().enumerate() {
        let west = if ci > 0 { Some(cols[ci - 1].cells.as_slice()) } else { left };
        let east = if ci + 1 < cols.len() { Some(cols[ci + 1].cells.as_slice()) } else { right };
        for &row in &col.exposed {
            let row = row as usize;
            let k = [
                fluid(west, row),
                fluid(east, row),
                row > 0 && col.cells[row - 1].is_fluid(),
                row + 1 < height && col.cells[row + 1].is_fluid(),
            ];
            let k = k.into_iter().filter(|&f| f).count() as u32;
            let global = (first_col + ci) as u64;
            if erodes(seed, iter, global, row as u64, k, prob_of(first_col + ci)) {
                decisions.push((ci, row));
            }
        }
    }
    for &(ci, row) in &decisions {
        cols[ci].erode(row);
    }
    let mut newly_exposed = 0;
    for &(ci, row) in &decisions {
        if ci > 0 {
            newly_exposed += usize::from(cols[ci - 1].expose(row));
        }
        if ci + 1 < cols.len() {
            newly_exposed += usize::from(cols[ci + 1].expose(row));
        }
        if row > 0 {
            newly_exposed += usize::from(cols[ci].expose(row - 1));
        }
        if row + 1 < height {
            newly_exposed += usize::from(cols[ci].expose(row + 1));
        }
    }
    (decisions.len(), newly_exposed)
}

/// A piece's halo on one side: `None` at a domain border.
type Halo = Option<Vec<Cell>>;

/// Random cells for the outer halo on `side` at `iter`.
fn random_halo(seed: u64, iter: u64, side: u64, height: usize) -> Vec<Cell> {
    (0..height as u64)
        .map(|row| {
            [Cell::FLUID, Cell::REFINED, Cell::ROCK][(roll(!seed, iter, side, row) * 3.0) as usize]
        })
        .collect()
}

/// The piece boundaries of `span` for one iteration: `0`, the distinct
/// interior cuts drawn from `raw`, and `span.len()`, all span-relative.
fn cut_points(raw: &[u16], len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = vec![0, len];
    if len > 1 {
        cuts.extend(raw.iter().map(|&c| 1 + usize::from(c) % (len - 1)));
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Every column against its model: same cells, the sorted list equal to
/// the model's, the list bit on exactly the listed rows, only rock listed,
/// no row twice, the same weight.
fn compare(pieces: &[Stripe], model: &[ModelColumn]) -> Result<(), String> {
    let cols = pieces.iter().flat_map(|p| p.cols());
    for (i, (col, want)) in cols.zip(model).enumerate() {
        if col.cells() != want.cells.as_slice() {
            return Err(format!("column {i}: cells diverged"));
        }
        let mut sorted = col.exposed().to_vec();
        sorted.sort_unstable();
        if sorted != want.exposed {
            return Err(format!("column {i}: exposed {sorted:?} != model {:?}", want.exposed));
        }
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("column {i}: a row is listed twice"));
        }
        for (row, cell) in col.cells().iter().enumerate() {
            let listed = sorted.binary_search(&(row as u16)).is_ok();
            if cell.is_listed() != listed || (listed && !cell.is_rock()) {
                return Err(format!(
                    "column {i} row {row}: bit {} vs listed {listed}",
                    cell.is_listed()
                ));
            }
        }
        if col.fluid_weight() != want.fluid_weight {
            return Err(format!(
                "column {i}: weight {} != {}",
                col.fluid_weight(),
                want.fluid_weight
            ));
        }
        col.check_invariants().map_err(|e| format!("column {i}: {e}"))?;
    }
    Ok(())
}

const STRIPES: usize = 3;
const COLS: usize = 20;
const HEIGHT: usize = 22;
const RADIUS: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn unordered_lists_follow_the_sorted_model_across_rejoins(
        seed in any::<u64>(),
        span in (0usize..STRIPES * COLS, 1usize..=STRIPES * COLS),
        discs in collection::vec((0u8..4, 0.0f64..1.0), STRIPES..STRIPES + 1),
        halo_kinds in (0u8..3, 0u8..3),
        iterations in 1u64..9,
        cuts in collection::vec(collection::vec(any::<u16>(), 0..4), 9..10),
    ) {
        let g = Geometry::new(STRIPES, COLS, HEIGHT, RADIUS);
        let first = span.0;
        let len = span.1.min(g.width - first);
        let probs: Vec<f64> = discs
            .iter()
            .map(|&(kind, p)| match kind { 0 => 0.0, 1 => 1.0, _ => p })
            .collect();
        let prob_of = |col: usize| probs[col / COLS];
        let outer = |kind: u8, iter: u64, side: u64| match kind {
            0 => None,
            1 => Some(vec![Cell::FLUID; HEIGHT]),
            _ => Some(random_halo(seed, iter, side, HEIGHT)),
        };

        let bounds = cut_points(&cuts[0], len);
        let mut pieces: Vec<Stripe> = bounds
            .windows(2)
            .map(|w| Stripe::initial(&g, first + w[0]..first + w[1]))
            .collect();
        let mut model: Vec<ModelColumn> =
            (first..first + len).map(|c| ModelColumn::initial(&g, c)).collect();

        for iter in 0..iterations {
            let bounds: Vec<usize> =
                pieces.iter().map(|p| p.first_col() - first).chain([len]).collect();
            // Every piece's halos come from the pre-step state, as in the
            // collective exchange.
            let edge = |j: usize, last: bool| {
                let cols = pieces[j].cols();
                cols[if last { cols.len() - 1 } else { 0 }].cells().to_vec()
            };
            let halos: Vec<[Halo; 2]> = (0..pieces.len())
                .map(|j| {
                    let left = if j == 0 {
                        outer(halo_kinds.0, iter, 0)
                    } else {
                        Some(edge(j - 1, true))
                    };
                    let right = if j + 1 == pieces.len() {
                        outer(halo_kinds.1, iter, 1)
                    } else {
                        Some(edge(j + 1, false))
                    };
                    [left, right]
                })
                .collect();

            for (j, (piece, [left, right])) in pieces.iter_mut().zip(&halos).enumerate() {
                let (left, right) = (left.as_deref(), right.as_deref());
                let part = &mut model[bounds[j]..bounds[j + 1]];

                // The running totals, kept the way the erosion rank keeps them.
                let mut fluid_weight = piece.fluid_weight();
                let mut exposed = piece.exposed_count() - piece.boundary_exposed_count();
                piece.refresh_boundary_exposure(left, right);
                exposed += piece.boundary_exposed_count();
                model_refresh_boundary(part, left, right);

                let first_col = piece.first_col();
                let delta =
                    erosion_step(piece.cols_mut(), first_col, left, right, seed, iter, &prob_of);
                let want = model_step(part, first_col, left, right, seed, iter, &prob_of);
                prop_assert_eq!((delta.eroded, delta.newly_exposed), want, "iteration {}", iter);

                fluid_weight += 4 * delta.eroded as u64;
                exposed = exposed + delta.newly_exposed - delta.eroded;
                prop_assert_eq!(fluid_weight, piece.fluid_weight(), "iteration {}", iter);
                prop_assert_eq!(exposed, piece.exposed_count(), "iteration {}", iter);
            }
            if let Err(err) = compare(&pieces, &model) {
                prop_assert!(false, "iteration {iter}: {err}");
            }

            // Re-cut: each new piece is reassembled from the segments of the
            // old pieces it overlaps, handed over in reverse order.
            let old: Vec<(usize, Vec<Column>)> =
                pieces.iter().map(|p| (p.first_col(), p.cols().to_vec())).collect();
            let bounds = cut_points(&cuts[iter as usize + 1], len);
            pieces = bounds
                .windows(2)
                .map(|w| {
                    let (lo, hi) = (first + w[0], first + w[1]);
                    let mut segments: Vec<(usize, Vec<Column>)> = old
                        .iter()
                        .filter(|(start, cols)| *start < hi && start + cols.len() > lo)
                        .map(|(start, cols)| {
                            let (a, b) = (lo.max(*start), hi.min(start + cols.len()));
                            (a, cols[a - start..b - start].to_vec())
                        })
                        .collect();
                    segments.reverse();
                    Stripe::from_segments(segments)
                })
                .collect();
            if let Err(err) = compare(&pieces, &model) {
                prop_assert!(false, "after re-cutting iteration {iter}: {err}");
            }
        }
    }
}
