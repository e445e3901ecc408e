//! One column of the mesh: the unit of partitioning and migration.
//!
//! The §IV-B LB technique "divides the computational domain in stripes along
//! the x-axis … composed of several consecutive columns of cells". A column
//! carries its cells, a cached fluid weight (the partitioner's item weight)
//! and rock count, and the list of its exposed rock cells (the erosion
//! frontier): each row once, in unspecified order, marked by the list bit.

use crate::cell::{Cell, REFINED_WEIGHT};
use crate::geometry::Geometry;
use serde::{Deserialize, Serialize};

/// A single mesh column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    cells: Vec<Cell>,
    fluid_weight: u32,
    /// Rock cells left: a column without any has no frontier to refresh.
    rock: u32,
    /// Rows of rock cells with a fluid 4-neighbour; exactly these carry the list bit.
    exposed: Vec<u16>,
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

        let mut exposed = Vec::new();
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
        Self { cells, fluid_weight, rock: rock.len() as u32, exposed }
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
        &self.exposed
    }

    /// Erode the rock cell at `row` (must currently be rock): it becomes a
    /// refined fluid cell, the weight cache is updated and the row leaves
    /// the exposure list.
    pub fn erode(&mut self, row: usize) {
        if self.cells[row].is_listed() {
            let pos = self.exposed.iter().position(|&r| usize::from(r) == row);
            self.exposed.swap_remove(pos.expect("a listed cell is on the list"));
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
    /// place (`Vec::retain` ran ≈ 10 % slower); a dropped row keeps its bit until `refine`.
    pub(crate) fn retain_exposed(&mut self, mut keep: impl FnMut(&[Cell], usize) -> bool) {
        let mut kept = 0;
        for i in 0..self.exposed.len() {
            let row = self.exposed[i];
            if keep(&self.cells, usize::from(row)) {
                self.exposed[kept] = row;
                kept += 1;
            }
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
        for row in self.exposed.drain(..) {
            self.cells[usize::from(row)] = self.cells[usize::from(row)].with_listed(false);
        }
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
        self.cells.len() * Cell::WIRE_BYTES + self.exposed.len() * 2 + 8
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
        let mut rows = self.exposed.clone();
        rows.sort_unstable();
        let marked = (0..self.cells.len()).filter(|&r| self.cells[r].is_listed());
        if rows.iter().map(|&r| usize::from(r)).eq(marked.filter(|&r| self.cells[r].is_rock())) {
            return Ok(());
        }
        Err(format!("exposure list {:?} is not the rock rows carrying the bit", self.exposed))
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
}
