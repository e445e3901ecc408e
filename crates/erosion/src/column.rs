//! One column of the mesh: the unit of partitioning and migration.
//!
//! The §IV-B LB technique "divides the computational domain in stripes along
//! the x-axis … composed of several consecutive columns of cells". A column
//! carries its cells, a cached fluid weight (the partitioner's item weight)
//! and the list of its currently exposed rock cells (the erosion frontier).

use crate::cell::Cell;
use crate::geometry::Geometry;
use serde::{Deserialize, Serialize};

/// A single mesh column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    cells: Vec<Cell>,
    fluid_weight: u32,
    /// Rows of rock cells having at least one fluid 4-neighbour, sorted.
    exposed: Vec<u16>,
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
            exposed.extend(
                (rock.start..buried_start).chain(buried_end..rock.end).map(|row| row as u16),
            );
        }
        Self { cells, fluid_weight, exposed }
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

    /// Currently exposed rock rows (sorted ascending).
    pub fn exposed(&self) -> &[u16] {
        &self.exposed
    }

    /// Erode the rock cell at `row` (must currently be rock): it becomes a
    /// refined fluid cell, the weight cache is updated and the row leaves
    /// the exposure list.
    pub fn erode(&mut self, row: usize) {
        let c = self.cells[row];
        self.cells[row] = c.eroded();
        self.fluid_weight += self.cells[row].weight();
        if let Ok(pos) = self.exposed.binary_search(&(row as u16)) {
            self.exposed.remove(pos);
        }
    }

    /// Mark the rock cell at `row` as exposed (no-op for fluid cells or
    /// already-exposed rows).
    pub fn expose(&mut self, row: usize) {
        if !self.cells[row].is_rock() {
            return;
        }
        if let Err(pos) = self.exposed.binary_search(&(row as u16)) {
            self.exposed.insert(pos, row as u16);
        }
    }

    /// Recompute the exposure list from scratch given this column's cells
    /// and its (possibly changed) neighbours. `left`/`right` are the
    /// adjacent columns' cells, or `None` at domain borders.
    pub fn refresh_exposure(&mut self, left: Option<&[Cell]>, right: Option<&[Cell]>) {
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

    /// Wire size of this column when migrated or sent as a halo.
    pub fn wire_bytes(&self) -> usize {
        self.cells.len() * Cell::WIRE_BYTES + self.exposed.len() * 2 + 8
    }

    /// Internal consistency check (test/debug aid): the cached weight
    /// matches the cells and exposure only lists rock rows.
    pub fn check_invariants(&self) -> Result<(), String> {
        let w: u32 = self.cells.iter().map(|c| c.weight()).sum();
        if w != self.fluid_weight {
            return Err(format!("cached weight {} != actual {w}", self.fluid_weight));
        }
        for &row in &self.exposed {
            if !self.cells[row as usize].is_rock() {
                return Err(format!("exposed row {row} is not rock"));
            }
        }
        if !self.exposed.windows(2).all(|w| w[0] < w[1]) {
            return Err("exposure list not strictly sorted".into());
        }
        Ok(())
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
        assert_eq!(c.exposed(), initial.as_slice());
    }
}
