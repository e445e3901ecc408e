//! One column of the mesh: the unit of partitioning and migration.
//!
//! The §IV-B LB technique "divides the computational domain in stripes along
//! the x-axis … composed of several consecutive columns of cells". A column
//! carries its cells, a cached fluid weight (the partitioner's item weight)
//! and rock count, and the list of its exposed rock cells (the erosion
//! frontier): each row once, in unspecified order, marked by the list bit.
//!
//! The list lives inside the column while it has at most 15 rows
//! (`INLINE_ROWS`) and spills to the heap past that, so the erosion step's
//! roll pass reads a column's rows from the cache line that holds its
//! header instead of missing cache on one heap buffer per column. Longer
//! lists are rare (the disc's flank columns). The cells are a boxed slice
//! (their count never changes), which pays for the inline rows: a `Column`
//! is 56 bytes on a 64-bit target, as it was with a `Vec` of cells and a
//! heap list.

use crate::cell::{Cell, REFINED_WEIGHT};
use crate::geometry::Geometry;
use serde::{Deserialize, Serialize};

/// The most exposed rows a column holds inline: the largest count that
/// keeps [`Column`] at 56 bytes.
const INLINE_ROWS: usize = 15;

/// A column's exposure list: inline up to [`INLINE_ROWS`] rows, a heap
/// vector from the first push past that on (it stays one when it shrinks).
#[derive(Debug, Clone)]
enum ExposedRows {
    Inline { len: u8, rows: [u16; INLINE_ROWS] },
    Spilled(Vec<u16>),
}

impl ExposedRows {
    const EMPTY: Self = Self::Inline { len: 0, rows: [0; INLINE_ROWS] };

    fn as_slice(&self) -> &[u16] {
        match self {
            Self::Inline { len, rows } => &rows[..usize::from(*len)],
            Self::Spilled(rows) => rows,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u16] {
        match self {
            Self::Inline { len, rows } => &mut rows[..usize::from(*len)],
            Self::Spilled(rows) => rows,
        }
    }

    fn push(&mut self, row: u16) {
        match self {
            Self::Inline { len, rows } if usize::from(*len) < INLINE_ROWS => {
                rows[usize::from(*len)] = row;
                *len += 1;
            }
            Self::Inline { rows, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_ROWS);
                spilled.extend_from_slice(rows);
                spilled.push(row);
                *self = Self::Spilled(spilled);
            }
            Self::Spilled(rows) => rows.push(row),
        }
    }

    /// Keep the first `kept` rows (all of them if there are no more).
    fn truncate(&mut self, kept: usize) {
        match self {
            Self::Inline { len, .. } if kept < usize::from(*len) => *len = kept as u8,
            Self::Inline { .. } => {}
            Self::Spilled(rows) => rows.truncate(kept),
        }
    }
}

/// A single mesh column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    cells: Box<[Cell]>,
    fluid_weight: u32,
    /// Rock cells left: a column without any has no frontier to refresh.
    rock: u32,
    /// Rows of rock cells with a fluid 4-neighbour; exactly these carry the list bit.
    exposed: ExposedRows,
}

/// Equal cells, weights and exposure sets (marked by the bits, so in any order).
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        let marked = |&c: &Cell| (c, c.is_listed());
        self.fluid_weight == other.fluid_weight
            && self.cells.iter().map(marked).eq(other.cells.iter().map(marked))
    }
}

impl Column {
    /// Build the initial state of global column `col` from the analytic
    /// geometry: a fluid fill, the disc's one rock run
    /// ([`Geometry::rock_rows`]) and the frontier that run has against the
    /// two neighbouring columns' runs — no per-cell predicate is evaluated.
    pub fn initial(geometry: &Geometry, col: usize) -> Self {
        let height = geometry.height;
        let rock = geometry.rock_rows(col);
        let mut cells = vec![Cell::FLUID; height];
        cells[rock.clone()].fill(Cell::ROCK);
        let fluid_weight = (height - rock.len()) as u32;

        let mut exposed = ExposedRows::EMPTY;
        if !rock.is_empty() {
            // A rock row is buried when all four neighbours are non-fluid,
            // and the domain border counts as non-fluid: vertically that is
            // the run minus whichever end has a fluid cell beyond it,
            // horizontally the rows both in-domain neighbours' runs cover.
            // All three are intervals, so the buried rows are one interval
            // and the frontier is the run's rows on either side of it.
            let mut buried =
                rock.start + usize::from(rock.start > 0)..rock.end - usize::from(rock.end < height);
            let neighbours = [col.checked_sub(1), Some(col + 1).filter(|&c| c < geometry.width)];
            for neighbour in neighbours.into_iter().flatten() {
                let run = geometry.rock_rows(neighbour);
                buried = buried.start.max(run.start)..buried.end.min(run.end);
            }
            // "No buried row" may come out as start > end: clamp it to an
            // empty interval inside the run, so the two sides tile the run.
            let buried_start = buried.start.min(rock.end);
            let buried_end = buried.end.max(buried_start);
            for row in (rock.start..buried_start).chain(buried_end..rock.end) {
                cells[row] = Cell::ROCK.with_listed(true);
                exposed.push(row as u16);
            }
        }
        Self { cells: cells.into_boxed_slice(), fluid_weight, rock: rock.len() as u32, exposed }
    }

    /// Number of rows.
    pub fn height(&self) -> usize {
        self.cells.len()
    }

    /// The cell at `row`.
    pub fn cell(&self, row: usize) -> Cell {
        self.cells[row]
    }

    /// All cells (row order).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Cached total fluid weight of the column.
    pub fn fluid_weight(&self) -> u32 {
        self.fluid_weight
    }

    /// Currently exposed rock rows, each once, in unspecified order.
    pub fn exposed(&self) -> &[u16] {
        self.exposed.as_slice()
    }

    /// Erode the rock cell at `row` (must currently be rock): it becomes a
    /// refined fluid cell, the weight cache is updated and the row leaves
    /// the exposure list.
    pub fn erode(&mut self, row: usize) {
        if self.cells[row].is_listed() {
            let rows = self.exposed.as_mut_slice();
            let pos = rows.iter().position(|&r| usize::from(r) == row);
            let last = rows.len() - 1;
            rows.swap(pos.expect("a listed cell is on the list"), last);
            self.exposed.truncate(last);
        }
        self.refine(row);
    }

    /// Turn the rock cell at `row` into refined fluid; the list is the caller's.
    pub(crate) fn refine(&mut self, row: usize) {
        self.cells[row] = self.cells[row].eroded();
        self.fluid_weight += REFINED_WEIGHT;
        self.rock -= 1;
    }

    /// List the rock cell at `row` as exposed; `false` (and no change) for
    /// a fluid cell or an already-listed row.
    pub fn expose(&mut self, row: usize) -> bool {
        let cell = self.cells[row];
        if !cell.is_rock() || cell.is_listed() {
            return false;
        }
        self.cells[row] = cell.with_listed(true);
        self.exposed.push(row as u16);
        true
    }

    /// Keep the rows for which `keep(cells, row)` holds, compacting the list in
    /// place with no branch on `keep` (the erosion step drops ≈ 60 % of a
    /// touched list on a strong disc, too many misses for a predictor). The
    /// erosion step calls it after refining a column's eroding rows, with
    /// `keep` = is rock: `refine` has cleared their list bits. Any other
    /// caller must `refine` every row it drops, or the bit outlives the entry.
    pub(crate) fn retain_exposed(&mut self, mut keep: impl FnMut(&[Cell], usize) -> bool) {
        let rows = self.exposed.as_mut_slice();
        let mut kept = 0;
        for i in 0..rows.len() {
            let row = rows[i];
            rows[kept] = row;
            kept += usize::from(keep(&self.cells, usize::from(row)));
        }
        self.exposed.truncate(kept);
    }

    /// Recompute the exposure list from scratch given this column's cells
    /// and its (possibly changed) neighbours. `left`/`right` are the
    /// adjacent columns' cells, or `None` at domain borders.
    pub fn refresh_exposure(&mut self, left: Option<&[Cell]>, right: Option<&[Cell]>) {
        if self.rock == 0 {
            return; // only rock is ever listed: the list is empty
        }
        for &row in self.exposed.as_slice() {
            self.cells[usize::from(row)] = self.cells[usize::from(row)].with_listed(false);
        }
        self.exposed.truncate(0);
        let h = self.cells.len();
        for row in 0..h {
            if !self.cells[row].is_rock() {
                continue;
            }
            let fluid_left = left.is_some_and(|l| l[row].is_fluid());
            let fluid_right = right.is_some_and(|r| r[row].is_fluid());
            let fluid_up = row > 0 && self.cells[row - 1].is_fluid();
            let fluid_down = row + 1 < h && self.cells[row + 1].is_fluid();
            if fluid_left || fluid_right || fluid_up || fluid_down {
                self.cells[row] = self.cells[row].with_listed(true);
                self.exposed.push(row as u16);
            }
        }
    }

    /// Wire size of this column when migrated or sent as a halo.
    pub fn wire_bytes(&self) -> usize {
        self.cells.len() * Cell::WIRE_BYTES + self.exposed.as_slice().len() * 2 + 8
    }

    /// Internal consistency check (test/debug aid): the cached weight and
    /// rock count match the cells, exposure lists rock rows only, each once,
    /// and exactly the listed cells carry the list bit.
    pub fn check_invariants(&self) -> Result<(), String> {
        let w: u32 = self.cells.iter().map(|c| c.weight()).sum();
        if w != self.fluid_weight {
            return Err(format!("cached weight {} != actual {w}", self.fluid_weight));
        }
        let rock = self.cells.iter().filter(|c| c.is_rock()).count();
        if rock != self.rock as usize {
            return Err(format!("cached rock count {} != actual {rock}", self.rock));
        }
        let mut rows = self.exposed.as_slice().to_vec();
        rows.sort_unstable();
        let marked = (0..self.cells.len()).filter(|&r| self.cells[r].is_listed());
        if rows.iter().map(|&r| usize::from(r)).eq(marked.filter(|&r| self.cells[r].is_rock())) {
            return Ok(());
        }
        Err(format!("exposure list {:?} is not the rock rows carrying the bit", self.exposed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> Geometry {
        Geometry::new(2, 32, 32, 8)
    }

    #[test]
    fn initial_column_invariants() {
        let g = geometry();
        for col in [0usize, 10, 16, 31, 47] {
            let c = Column::initial(&g, col);
            c.check_invariants().unwrap();
            assert_eq!(c.height(), 32);
        }
    }

    #[test]
    fn fluid_only_column_has_full_weight() {
        let g = geometry();
        let c = Column::initial(&g, 0); // stripe border: no rock
        assert_eq!(c.fluid_weight(), 32);
        assert!(c.exposed().is_empty());
    }

    #[test]
    fn center_column_counts_rock() {
        let g = geometry();
        let c = Column::initial(&g, 16); // through disc 0's centre
        assert!(c.fluid_weight() < 32);
        // Top and bottom frontier cells of the disc are exposed.
        assert_eq!(c.exposed().len(), 2);
    }

    #[test]
    fn erosion_updates_weight_and_exposure() {
        let g = geometry();
        let mut c = Column::initial(&g, 16);
        let before = c.fluid_weight();
        let row = c.exposed()[0] as usize;
        c.erode(row);
        assert_eq!(c.fluid_weight(), before + 4);
        assert!(c.cell(row).is_fluid());
        assert!(!c.exposed().contains(&(row as u16)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn expose_is_idempotent_and_rock_only() {
        let g = geometry();
        let mut c = Column::initial(&g, 16);
        let n = c.exposed().len();
        c.expose(0); // fluid row: ignored
        assert_eq!(c.exposed().len(), n);
        // A buried rock row becomes exposed once, not twice.
        let buried = (0..32)
            .find(|&r| c.cell(r).is_rock() && !c.exposed().contains(&(r as u16)))
            .expect("some buried rock");
        c.expose(buried);
        c.expose(buried);
        assert_eq!(c.exposed().len(), n + 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn refresh_exposure_sees_neighbor_fluid() {
        let g = geometry();
        let mut c = Column::initial(&g, 16);
        // Pretend both neighbours are all fluid: every rock cell in this
        // column becomes exposed.
        let all_fluid = vec![Cell::FLUID; 32];
        let rock_rows = (0..32).filter(|&r| c.cell(r).is_rock()).count();
        c.refresh_exposure(Some(&all_fluid), Some(&all_fluid));
        assert_eq!(c.exposed().len(), rock_rows);
        c.check_invariants().unwrap();
    }

    #[test]
    fn refresh_exposure_without_neighbors() {
        let g = geometry();
        let mut c = Column::initial(&g, 16);
        let initial: Vec<u16> = c.exposed().to_vec();
        // Rock neighbours on both sides (same disc slice): exposure reduces
        // to the vertical frontier, which equals the analytic initial one
        // for the centre column.
        let left = Column::initial(&g, 15);
        let right = Column::initial(&g, 17);
        c.refresh_exposure(Some(left.cells()), Some(right.cells()));
        let mut refreshed = c.exposed().to_vec();
        refreshed.sort_unstable();
        assert_eq!(refreshed, initial);
        c.check_invariants().unwrap();
    }

    #[test]
    fn equality_ignores_list_order() {
        let g = geometry();
        let (mut a, mut b) = (Column::initial(&g, 16), Column::initial(&g, 16));
        let buried: Vec<usize> = (0..32)
            .filter(|&r| a.cell(r).is_rock() && !a.exposed().contains(&(r as u16)))
            .take(2)
            .collect();
        assert!(a.expose(buried[0]) && a.expose(buried[1]));
        assert!(b.expose(buried[1]) && b.expose(buried[0]));
        assert_ne!(a.exposed(), b.exposed());
        assert_eq!(a, b);
        b.erode(buried[0]);
        assert_ne!(a, b);
    }

    #[test]
    fn refresh_returns_at_once_without_rock() {
        let g = geometry();
        let mut c = Column::initial(&g, 0);
        let before = c.clone();
        c.refresh_exposure(Some(&[Cell::FLUID; 32]), None);
        assert_eq!(c, before);
        assert!(c.exposed().is_empty());
    }

    #[test]
    fn a_column_is_no_larger_than_with_a_heap_list() {
        assert!(std::mem::size_of::<Column>() <= 56, "{} bytes", std::mem::size_of::<Column>());
    }

    /// Sorted rows of `c`'s list.
    fn sorted_rows(c: &Column) -> Vec<u16> {
        let mut rows = c.exposed().to_vec();
        rows.sort_unstable();
        rows
    }

    /// `spilled` holds what `twin`, whose list never left the column, holds.
    fn assert_same_as_inline(spilled: &Column, twin: &Column) {
        spilled.check_invariants().unwrap();
        twin.check_invariants().unwrap();
        assert!(matches!(spilled.exposed, ExposedRows::Spilled(_)));
        assert!(matches!(twin.exposed, ExposedRows::Inline { .. }));
        assert_eq!(spilled, twin);
        assert_eq!(sorted_rows(spilled), sorted_rows(twin));
        assert_eq!(spilled.wire_bytes(), twin.wire_bytes());
    }

    #[test]
    fn one_step_can_empty_a_spilled_list() {
        let g = Geometry::new(1, 64, 64, 20);
        // Through the disc's centre, with fluid on both sides: every rock
        // row is exposed.
        let mut c = Column::initial(&g, 32);
        let fluid = vec![Cell::FLUID; 64];
        c.refresh_exposure(Some(&fluid), Some(&fluid));
        let listed = c.exposed().len();
        assert_eq!(listed, (0..64).filter(|&r| c.cell(r).is_rock()).count());
        assert!(listed > INLINE_ROWS, "{listed} rows");
        assert!(matches!(c.exposed, ExposedRows::Spilled(_)));

        let cols = std::slice::from_mut(&mut c);
        let delta =
            crate::erode::erosion_step(cols, 32, Some(&fluid), Some(&fluid), 3, 0, &|_| 1.0);
        assert_eq!(delta.eroded, listed, "p = 1 erodes every listed row");
        assert_eq!(delta.newly_exposed, 0);
        assert!(c.exposed().is_empty());
        assert_eq!(c.rock, 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn a_spilled_list_shrinks_back_and_matches_one_that_never_spilled() {
        let g = Geometry::new(1, 64, 64, 20);
        let mut a = Column::initial(&g, 32); // through the disc's centre
        let mut b = a.clone();
        let rock: Vec<usize> = (0..64).filter(|&r| a.cell(r).is_rock()).collect();
        assert!(rock.len() > 2 * INLINE_ROWS, "{} rock rows", rock.len());
        let initial = sorted_rows(&a);

        // Up past the inline rows one `expose` at a time.
        let mut listed = initial.len();
        for &row in &rock {
            listed += usize::from(a.expose(row));
            a.check_invariants().unwrap();
            assert_eq!(a.exposed().len(), listed);
        }
        assert_eq!(a.exposed().len(), rock.len());
        assert!(matches!(a.exposed, ExposedRows::Spilled(_)));

        // Back down through `retain_exposed`: keep the initial frontier and
        // ten buried rows, refine the rest as the erosion step does.
        let extra: Vec<usize> = rock[5..15].to_vec();
        let keep = |row: usize| initial.contains(&(row as u16)) || extra.contains(&row);
        a.retain_exposed(|_, row| keep(row));
        let dropped: Vec<usize> = rock.iter().copied().filter(|&r| !keep(r)).collect();
        for &row in &dropped {
            a.refine(row);
        }
        for &row in &extra {
            assert!(b.expose(row));
        }
        for &row in &dropped {
            b.erode(row); // unlisted in `b`: only refined
        }
        assert_same_as_inline(&a, &b);

        // `erode`'s swap-remove, from the middle of the list.
        let row = usize::from(a.exposed()[a.exposed().len() / 2]);
        a.erode(row);
        b.erode(row);
        assert_same_as_inline(&a, &b);

        // `refresh_exposure`'s clear-and-refill against rock neighbours.
        let rock_beside = vec![Cell::ROCK; 64];
        a.refresh_exposure(Some(&rock_beside), Some(&rock_beside));
        b.refresh_exposure(Some(&rock_beside), Some(&rock_beside));
        assert!(a.exposed().len() <= INLINE_ROWS);
        assert_same_as_inline(&a, &b);
    }
}
