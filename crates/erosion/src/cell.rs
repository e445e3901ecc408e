//! Packed cell representation of the 2-D fluid/rock mesh.
//!
//! "The computational domain is organized as a 2D mesh with two cell types:
//! fluid and rock" (§IV-B). When a rock cell is eroded "it converts the rock
//! cell into four fluid cells of smaller size reproducing a mesh-refinement
//! mechanism" — we model the refined patch as one fluid cell of *weight 4*
//! (same FLOP count and same partitioning weight as four small cells, on an
//! unchanged index space).
//!
//! A cell is one byte holding one of three states: `0` = plain fluid
//! (weight 1), `1` = refined fluid (weight 4), `2` = rock. Bit 7 is not
//! state but the column's list bit ([`crate::column`]): equality, weight and
//! the rock/fluid tests ignore it, and halos and migrations carry it for
//! free. Stripes are the dominant resident memory of an erosion run (1 MB
//! per PE at paper scale, the largest single term of the `P = 2²⁰` leg's
//! budget), so the cell is as small as its state space. A rock cell does
//! *not* store its disc id — discs fit strictly inside their home stripe, so
//! the id is always derivable as `global_col / cols_per_stripe`
//! ([`crate::geometry::Geometry::rock_at`]), which lets one cell type serve
//! any `P`.
//!
//! What a cell occupies in host memory and what it is *charged* on the
//! modelled wire are separate numbers: halo and migration messages cost
//! [`Cell::WIRE_BYTES`] per cell of virtual time, and that constant is part
//! of the reproduced cost model (every committed makespan depends on it),
//! not a property of this struct.

use serde::{Deserialize, Serialize};

/// Compute/partition weight of a refined (post-erosion) fluid cell.
pub const REFINED_WEIGHT: u32 = 4;

/// One mesh cell, packed into one byte.
#[derive(Debug, Clone, Copy, Eq, Serialize, Deserialize)]
pub struct Cell(u8);

/// Bit 7: the cell is on its column's exposure list.
const LISTED: u8 = 0x80;

impl PartialEq for Cell {
    fn eq(&self, other: &Self) -> bool {
        self.0 & !LISTED == other.0 & !LISTED
    }
}

impl Cell {
    /// A plain fluid cell (weight 1).
    pub const FLUID: Cell = Cell(0);
    /// A refined fluid cell (weight 4), produced by eroding a rock cell.
    pub const REFINED: Cell = Cell(1);
    /// A rock cell (disc membership is positional: `col / cols_per_stripe`).
    pub const ROCK: Cell = Cell(2);

    /// Is this a fluid cell (plain or refined)?
    pub fn is_fluid(self) -> bool {
        self.0 & !LISTED <= 1
    }

    /// Is this a rock cell?
    pub fn is_rock(self) -> bool {
        self.0 & !LISTED >= 2
    }

    /// Is this cell on its column's exposure list?
    pub fn is_listed(self) -> bool {
        self.0 & LISTED != 0
    }

    /// This cell with the list bit set (`true`) or cleared.
    pub(crate) fn with_listed(self, listed: bool) -> Cell {
        Cell(self.0 & !LISTED | if listed { LISTED } else { 0 })
    }

    /// Compute/partition weight: 1 for plain fluid, 4 for refined fluid,
    /// 0 for rock ("rock cells involve no computation").
    pub fn weight(self) -> u32 {
        match self.0 & !LISTED {
            0 => 1,
            1 => REFINED_WEIGHT,
            _ => 0,
        }
    }

    /// Erode a rock cell into a refined fluid patch (panics on fluid).
    pub fn eroded(self) -> Cell {
        assert!(self.is_rock(), "only rock cells can erode");
        Cell::REFINED
    }

    /// *Modelled* wire size of one cell: what halo and migration messages
    /// are charged per cell on the virtual network. Deliberately not
    /// `size_of::<Cell>()` — shrinking the host representation must not
    /// move a virtual cost.
    pub const WIRE_BYTES: usize = 2;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_roundtrip() {
        assert!(Cell::FLUID.is_fluid());
        assert!(!Cell::FLUID.is_rock());
        assert!(Cell::REFINED.is_fluid());
        assert!(Cell::ROCK.is_rock());
        assert!(!Cell::ROCK.is_fluid());
    }

    #[test]
    fn weights() {
        assert_eq!(Cell::FLUID.weight(), 1);
        assert_eq!(Cell::REFINED.weight(), 4);
        assert_eq!(Cell::ROCK.weight(), 0);
    }

    #[test]
    fn erosion_refines() {
        let c = Cell::ROCK.eroded();
        assert_eq!(c, Cell::REFINED);
        assert_eq!(c.weight(), REFINED_WEIGHT);
    }

    #[test]
    #[should_panic(expected = "only rock cells can erode")]
    fn fluid_cannot_erode() {
        Cell::FLUID.eroded();
    }

    #[test]
    fn the_list_bit_is_not_state() {
        for cell in [Cell::FLUID, Cell::REFINED, Cell::ROCK] {
            let listed = cell.with_listed(true);
            assert!(listed.is_listed() && !cell.is_listed());
            assert_eq!(listed, cell);
            assert_eq!(listed.weight(), cell.weight());
            assert_eq!(listed.is_rock(), cell.is_rock());
            assert_eq!(listed.is_fluid(), cell.is_fluid());
            assert_eq!(listed.with_listed(false).0, cell.0);
        }
        assert_ne!(Cell::ROCK.with_listed(true), Cell::REFINED);
        assert_eq!(Cell::ROCK.with_listed(true).eroded(), Cell::REFINED);
        assert!(!Cell::ROCK.with_listed(true).eroded().is_listed());
    }
}
