//! The two fast paths against the per-cell definitions they replace:
//! closed-form column construction against `initial_cell` /
//! `initially_exposed`, and the hoisted decision pass of `erosion_step`
//! against the public `erodes`.

use proptest::prelude::*;
use std::collections::BTreeSet;
use ulba_erosion::erode::{erodes, erosion_step, roll};
use ulba_erosion::{Cell, Column, Geometry, Stripe};

/// Every column of `g`, built in closed form, equals the column built cell
/// by cell from the per-cell predicates.
fn check_closed_form(g: &Geometry) -> Result<(), String> {
    for col in 0..g.width {
        let cells: Vec<Cell> = (0..g.height).map(|row| g.initial_cell(col, row)).collect();
        let exposed: Vec<u16> =
            (0..g.height).filter(|&row| g.initially_exposed(col, row)).map(|r| r as u16).collect();
        let weight: u32 = cells.iter().map(|c| c.weight()).sum();

        let built = Column::initial(g, col);
        let at = format!("column {col} of {g:?}");
        if built.cells() != cells {
            return Err(format!("cells differ in {at}"));
        }
        if built.exposed() != exposed {
            return Err(format!("exposed {:?} != reference {exposed:?} in {at}", built.exposed()));
        }
        if built.fluid_weight() != weight {
            return Err(format!("fluid weight {} != {weight} in {at}", built.fluid_weight()));
        }
        let rows = g.rock_rows(col);
        if rows.len() != g.rock_cells_in_column(col) {
            return Err(format!("rock_rows {rows:?} miscounts the rock cells in {at}"));
        }
    }
    Ok(())
}

#[test]
fn closed_form_matches_reference_on_the_corner_table() {
    // (stripes, cols per stripe, height, radius); every column is compared,
    // so each row covers its first and last domain column and, with more
    // than one stripe, the joins between discs.
    let table = [
        (2, 33, 17, 8),  // height = 2r + 1: the centre column's run starts at row 0
        (2, 17, 40, 8),  // cols = 2r + 1: the disc touches both stripe borders
        (2, 17, 17, 8),  // both at once
        (3, 5, 7, 0),    // r = 0, odd × odd: one rock cell per stripe
        (3, 4, 6, 0),    // r = 0, even sizes: no cell centre is on the disc centre
        (1, 1, 1, 0),    // a 1 × 1 domain: one buried rock cell
        (2, 5, 40, 2),   // tall and thin
        (2, 40, 5, 2),   // short and wide
        (2, 32, 32, 8),  // even × even
        (2, 33, 32, 8),  // odd × even
        (2, 32, 33, 8),  // even × odd
        (4, 64, 64, 14), // the `tiny` preset
        (2, 250, 250, 62),
        (2, 1000, 1000, 250), // paper size
    ];
    for (stripes, cols, height, radius) in table {
        let g = Geometry::new(stripes, cols, height, radius);
        check_closed_form(&g).unwrap_or_else(|err| panic!("{err}"));
    }
}

/// Random cells for the halo on `side` at `iter`: any spread over the three
/// states will do, so the crate's own stateless hash is the generator.
fn random_halo(seed: u64, iter: u64, side: u64, height: usize) -> Vec<Cell> {
    (0..height as u64)
        .map(|row| {
            [Cell::FLUID, Cell::REFINED, Cell::ROCK][(roll(!seed, iter, side, row) * 3.0) as usize]
        })
        .collect()
}

const STRIPES: usize = 3;
const COLS: usize = 20;
const HEIGHT: usize = 22;
const RADIUS: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn closed_form_matches_reference(
        stripes in 1usize..=4,
        radius in 0usize..=10,
        extra_cols in 0usize..12,
        extra_height in 0usize..12,
    ) {
        // The smallest legal sizes (`2r + 1`) plus a random margin.
        let (cols, height) = (2 * radius + 1 + extra_cols, 2 * radius + 1 + extra_height);
        let g = Geometry::new(stripes, cols, height, radius);
        if let Err(err) = check_closed_form(&g) {
            prop_assert!(false, "{err}");
        }
    }

    /// `erosion_step` erodes exactly the exposed cells the public `erodes`
    /// says erode, evaluated cell by cell on the pre-step state, and its
    /// counts match a recount — on stripes that start and end anywhere
    /// (single columns included), with no halo, a true-to-size fluid halo or
    /// a random one on either side, discs of probability 0, 1 and anything
    /// between, and exposure lists both fresh and stale (a stale list can
    /// name a cell with no fluid neighbour left).
    #[test]
    fn kernel_erodes_exactly_what_erodes_says(
        seed in any::<u64>(),
        span in (0usize..STRIPES * COLS, 1usize..=STRIPES * COLS),
        discs in collection::vec((0u8..4, 0.0f64..1.0), STRIPES..STRIPES + 1),
        halo_kinds in (0u8..3, 0u8..3),
        refresh_every_iteration in any::<bool>(),
        iterations in 1u64..6,
    ) {
        let g = Geometry::new(STRIPES, COLS, HEIGHT, RADIUS);
        let first_col = span.0;
        let mut stripe = Stripe::initial(&g, first_col..(first_col + span.1).min(g.width));
        let probs: Vec<f64> = discs
            .iter()
            .map(|&(kind, p)| match kind { 0 => 0.0, 1 => 1.0, _ => p })
            .collect();
        let prob_of = |col: usize| probs[col / COLS];
        let halo = |kind: u8, iter: u64, side: u64| match kind {
            0 => None,
            1 => Some(vec![Cell::FLUID; HEIGHT]),
            _ => Some(random_halo(seed, iter, side, HEIGHT)),
        };
        let fluid = |cells: Option<&[Cell]>, row: usize| cells.is_some_and(|c| c[row].is_fluid());

        for iter in 0..iterations {
            let (left, right) = (halo(halo_kinds.0, iter, 0), halo(halo_kinds.1, iter, 1));
            let (left, right) = (left.as_deref(), right.as_deref());
            if iter == 0 || refresh_every_iteration {
                stripe.refresh_boundary_exposure(left, right);
            }

            let before = stripe.cols().to_vec();
            let mut expected = BTreeSet::new();
            for (ci, col) in before.iter().enumerate() {
                let west = if ci > 0 { Some(before[ci - 1].cells()) } else { left };
                let east = if ci + 1 < before.len() { Some(before[ci + 1].cells()) } else { right };
                for &row in col.exposed() {
                    let row = row as usize;
                    let k = [
                        fluid(west, row),
                        fluid(east, row),
                        row > 0 && col.cell(row - 1).is_fluid(),
                        row + 1 < HEIGHT && col.cell(row + 1).is_fluid(),
                    ];
                    let k = k.into_iter().filter(|&f| f).count() as u32;
                    let global = first_col + ci;
                    if erodes(seed, iter, global as u64, row as u64, k, prob_of(global)) {
                        expected.insert((ci, row));
                    }
                }
            }

            let delta =
                erosion_step(stripe.cols_mut(), first_col, left, right, seed, iter, &prob_of);

            let mut eroded = BTreeSet::new();
            let mut newly_exposed = 0usize;
            for (ci, (old, new)) in before.iter().zip(stripe.cols()).enumerate() {
                for row in 0..HEIGHT {
                    if old.cell(row) != new.cell(row) {
                        prop_assert!(old.cell(row).is_rock() && new.cell(row) == Cell::REFINED);
                        eroded.insert((ci, row));
                    }
                }
                newly_exposed +=
                    new.exposed().iter().filter(|row| !old.exposed().contains(row)).count();
            }
            prop_assert_eq!(&eroded, &expected, "iteration {}", iter);
            prop_assert_eq!(delta.eroded, expected.len());
            prop_assert_eq!(delta.newly_exposed, newly_exposed);
            prop_assert!(stripe.check_invariants().is_ok());
        }
    }
}
