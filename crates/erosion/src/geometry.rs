//! Closed-form initial geometry: `P` rock discs spread uniformly along the
//! x-axis, one per initial stripe (§IV-B: "P rock disks with a radius of 250
//! cells are uniformly distributed along the x-axis. At the beginning of the
//! application, the partitioning technique attributes one rock per PE.").
//!
//! Because the initial layout is analytic, any cell's initial state — and
//! the initial exposure of any rock cell — can be computed without
//! materializing neighbouring columns, which lets each rank build exactly
//! its own stripe. A disc meets a column in exactly one row interval
//! ([`Geometry::rock_rows`]), which is all [`crate::column::Column::initial`]
//! reads; the per-cell predicates below it ([`Geometry::initial_cell`],
//! [`Geometry::initially_exposed`]) are the definition that interval is
//! tested against.

use crate::cell::Cell;
use serde::{Deserialize, Serialize};

/// The static disc layout of the initial domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Geometry {
    /// Total number of columns (`P · cols_per_pe`).
    pub width: usize,
    /// Rows per column.
    pub height: usize,
    /// Columns per initial stripe (one disc is centred in each).
    pub cols_per_stripe: usize,
    /// Disc radius in cells.
    pub radius: usize,
}

impl Geometry {
    /// Build the layout for `stripes` stripes of `cols_per_stripe` columns.
    pub fn new(stripes: usize, cols_per_stripe: usize, height: usize, radius: usize) -> Self {
        assert!(stripes >= 1 && cols_per_stripe >= 1 && height >= 1);
        assert!(
            2 * radius < cols_per_stripe,
            "disc diameter {d} must fit inside one stripe of {cols_per_stripe} columns",
            d = 2 * radius
        );
        assert!(2 * radius < height, "disc must fit the domain height");
        Self { width: stripes * cols_per_stripe, height, cols_per_stripe, radius }
    }

    /// Number of discs (= number of initial stripes).
    pub fn num_rocks(&self) -> usize {
        self.width / self.cols_per_stripe
    }

    /// Disc centre of rock `k` (x in columns, y in rows).
    pub fn rock_center(&self, k: usize) -> (f64, f64) {
        ((k as f64 + 0.5) * self.cols_per_stripe as f64, self.height as f64 / 2.0)
    }

    /// The rock disc covering `(col, row)` initially, if any.
    ///
    /// This is also *the* id-derivation rule: a rock cell belongs to the
    /// disc of its column's home stripe, `col / cols_per_stripe` — which is
    /// why cells never store the id (see [`crate::cell`]).
    pub fn rock_at(&self, col: usize, row: usize) -> Option<usize> {
        // Only the disc of this column's home stripe can cover it (the disc
        // fits strictly inside its stripe).
        let k = col / self.cols_per_stripe;
        let (cx, cy) = self.rock_center(k);
        let dx = col as f64 + 0.5 - cx;
        let dy = row as f64 + 0.5 - cy;
        let r = self.radius as f64;
        (dx * dx + dy * dy <= r * r).then_some(k)
    }

    /// The rows of column `col` that are initially rock: one interval,
    /// possibly empty, equal to `{row : rock_at(col, row).is_some()}`.
    ///
    /// [`rock_at`](Self::rock_at) is monotone in `|dy|` (`dy` is exact,
    /// squaring and adding a constant round monotonically), so the rock rows
    /// are contiguous around the row nearest the disc centre. The closed
    /// form `cy ± √(r² − dx²)` only *estimates* the two ends; each is then
    /// walked to where the exact predicate flips, so the interval agrees
    /// with the per-cell scan to the cell whatever the square root rounds to.
    pub fn rock_rows(&self, col: usize) -> std::ops::Range<usize> {
        // `height / 2` is a row of minimal |dy| (0 for odd heights, ½ for
        // even): if it is fluid, the whole column is.
        let mid = self.height / 2;
        if self.rock_at(col, mid).is_none() {
            return mid..mid;
        }
        let (cx, cy) = self.rock_center(col / self.cols_per_stripe);
        let dx = col as f64 + 0.5 - cx;
        let r = self.radius as f64;
        let half = (r * r - dx * dx).max(0.0).sqrt();
        // Float → usize casts saturate, so a negative estimate is row 0.
        let mut start = ((cy - 0.5 - half).ceil() as usize).min(mid);
        while start > 0 && self.rock_at(col, start - 1).is_some() {
            start -= 1;
        }
        while self.rock_at(col, start).is_none() {
            start += 1;
        }
        let mut end = ((cy + 0.5 + half).floor() as usize).clamp(mid + 1, self.height);
        while end < self.height && self.rock_at(col, end).is_some() {
            end += 1;
        }
        while self.rock_at(col, end - 1).is_none() {
            end -= 1;
        }
        start..end
    }

    /// Initial cell at `(col, row)`.
    pub fn initial_cell(&self, col: usize, row: usize) -> Cell {
        match self.rock_at(col, row) {
            Some(_) => Cell::ROCK,
            None => Cell::FLUID,
        }
    }

    /// Whether `(col, row)` is initially a rock cell with at least one fluid
    /// 4-neighbour (i.e. on the erosion frontier). Domain borders count as
    /// non-fluid.
    pub fn initially_exposed(&self, col: usize, row: usize) -> bool {
        if self.rock_at(col, row).is_none() {
            return false;
        }
        let neighbors = [
            (col.wrapping_sub(1), row),
            (col + 1, row),
            (col, row.wrapping_sub(1)),
            (col, row + 1),
        ];
        neighbors
            .into_iter()
            .any(|(c, r)| c < self.width && r < self.height && self.rock_at(c, r).is_none())
    }

    /// Total number of initially-rock cells in column `col` (test helper and
    /// workload-accounting aid).
    pub fn rock_cells_in_column(&self, col: usize) -> usize {
        (0..self.height).filter(|&row| self.rock_at(col, row).is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Geometry {
        Geometry::new(4, 32, 32, 8)
    }

    #[test]
    fn disc_centers_are_stripe_centers() {
        let g = small();
        assert_eq!(g.num_rocks(), 4);
        assert_eq!(g.rock_center(0), (16.0, 16.0));
        assert_eq!(g.rock_center(3), (112.0, 16.0));
    }

    #[test]
    fn rock_at_center_fluid_at_corner() {
        let g = small();
        assert_eq!(g.rock_at(16, 16), Some(0));
        assert_eq!(g.rock_at(0, 0), None);
        assert_eq!(g.rock_at(48, 16), Some(1));
        assert!(g.initial_cell(16, 16).is_rock());
        assert!(g.initial_cell(0, 0).is_fluid());
    }

    #[test]
    fn discs_do_not_cross_stripes() {
        let g = small();
        // Boundary columns of every stripe are fully fluid.
        for stripe in 0..4usize {
            for row in 0..32 {
                assert_eq!(g.rock_at(stripe * 32, row), None);
                assert_eq!(g.rock_at(stripe * 32 + 31, row), None);
            }
        }
    }

    #[test]
    fn disc_area_is_plausible() {
        let g = small();
        let cells: usize = (0..32).map(|c| g.rock_cells_in_column(c)).sum();
        let expected = std::f64::consts::PI * 64.0; // πr²
        assert!(
            (cells as f64 - expected).abs() < 0.25 * expected,
            "disc area {cells} vs πr² = {expected:.1}"
        );
    }

    #[test]
    fn exposure_is_exactly_the_frontier() {
        let g = small();
        // The centre is buried; cells on the rim are exposed.
        assert!(!g.initially_exposed(16, 16));
        let mut exposed = 0usize;
        let mut rock = 0usize;
        for col in 0..32 {
            for row in 0..32 {
                if g.rock_at(col, row).is_some() {
                    rock += 1;
                    if g.initially_exposed(col, row) {
                        exposed += 1;
                    }
                }
            }
        }
        // Perimeter ~ 2πr ≈ 50; area ≈ 201. Frontier must be a thin ring.
        assert!(exposed > 20 && exposed < 80, "exposed = {exposed}");
        assert!(rock > exposed * 2);
        // Fluid cells are never exposed.
        assert!(!g.initially_exposed(0, 0));
    }

    #[test]
    #[should_panic(expected = "must fit inside one stripe")]
    fn oversized_disc_rejected() {
        Geometry::new(2, 16, 64, 8);
    }

    #[test]
    fn paper_scale_geometry_constructs() {
        // 32 PEs at paper scale: 32 000 × 1000 cells, radius 250.
        let g = Geometry::new(32, 1000, 1000, 250);
        assert_eq!(g.width, 32_000);
        assert_eq!(g.num_rocks(), 32);
        assert_eq!(g.rock_at(500, 500), Some(0));
    }
}
