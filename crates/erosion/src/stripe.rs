//! A rank's stripe (contiguous columns), halo exchange, and column
//! migration.

use crate::cell::Cell;
use crate::column::Column;
use crate::geometry::Geometry;
use ulba_core::partition::Partition;
use ulba_runtime::{SpmdCtx, Tag};

/// Message tag of halo exchanges.
pub const HALO_TAG: Tag = 0x4841;
/// Message tag of migration transfers.
pub const MIGRATE_TAG: Tag = 0x4D49;

/// The contiguous block of columns owned by one rank. The default is the
/// empty stripe a rank holds while its columns are in flight.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stripe {
    first_col: usize,
    cols: Vec<Column>,
}

impl Stripe {
    /// Build the initial stripe covering `range` from the analytic geometry.
    pub fn initial(geometry: &Geometry, range: std::ops::Range<usize>) -> Self {
        let first_col = range.start;
        let cols = range.map(|c| Column::initial(geometry, c)).collect();
        Self { first_col, cols }
    }

    /// Assemble a stripe from (global start, columns) segments; segments
    /// must tile a contiguous range.
    pub fn from_segments(mut segments: Vec<(usize, Vec<Column>)>) -> Self {
        assert!(!segments.is_empty(), "a stripe needs at least one segment");
        segments.sort_by_key(|(start, _)| *start);
        let first_col = segments[0].0;
        let mut cols = Vec::new();
        let mut expected = first_col;
        for (start, seg) in segments {
            assert_eq!(start, expected, "segments must tile a contiguous range");
            expected += seg.len();
            cols.extend(seg);
        }
        Self { first_col, cols }
    }

    /// Global index of the first owned column.
    pub fn first_col(&self) -> usize {
        self.first_col
    }

    /// Global one-past-the-end column index.
    pub fn end_col(&self) -> usize {
        self.first_col + self.cols.len()
    }

    /// The owned global range.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.first_col..self.end_col()
    }

    /// Number of owned columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the stripe is empty (only transiently during migration).
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Mutable access to the columns (for the erosion step).
    pub fn cols_mut(&mut self) -> &mut [Column] {
        &mut self.cols
    }

    /// Shared access to the columns.
    pub fn cols(&self) -> &[Column] {
        &self.cols
    }

    /// Total fluid weight of the stripe (the rank's workload driver).
    pub fn fluid_weight(&self) -> u64 {
        self.cols.iter().map(|c| c.fluid_weight() as u64).sum()
    }

    /// Fill `out` with the per-column weights in global column order (the
    /// partitioner's items), clearing it first.
    pub fn col_weights_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.cols.iter().map(|c| c.fluid_weight() as u64));
    }

    /// Total number of currently exposed rock cells.
    pub fn exposed_count(&self) -> usize {
        self.cols.iter().map(|c| c.exposed().len()).sum()
    }

    /// Exposed cells listed on the boundary columns, the only lists that
    /// [`refresh_boundary_exposure`](Self::refresh_boundary_exposure) rewrites.
    pub fn boundary_exposed_count(&self) -> usize {
        match self.cols.as_slice() {
            [] => 0,
            [only] => only.exposed().len(),
            [first, .., last] => first.exposed().len() + last.exposed().len(),
        }
    }

    /// Refresh the exposure lists of the boundary columns using the halo
    /// cells received from the neighbouring ranks (or `None` at the domain
    /// borders). Call once per iteration, right after the halo exchange.
    pub fn refresh_boundary_exposure(&mut self, left: Option<&[Cell]>, right: Option<&[Cell]>) {
        let n = self.cols.len();
        if n == 0 {
            return;
        }
        if n == 1 {
            self.cols[0].refresh_exposure(left, right);
            return;
        }
        // Split borrows instead of copying the inner neighbour columns:
        // each boundary column is mutated while its inner neighbour is
        // only read, so the two height-sized `to_vec` snapshots this used
        // to take every iteration were pure allocation overhead.
        let (first, rest) = self.cols.split_at_mut(1);
        first[0].refresh_exposure(left, Some(rest[0].cells()));
        let (rest, last) = self.cols.split_at_mut(n - 1);
        last[0].refresh_exposure(Some(rest[n - 2].cells()), right);
    }

    /// Consistency check across all columns (tests / debug).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, c) in self.cols.iter().enumerate() {
            c.check_invariants().map_err(|e| format!("column {}: {e}", self.first_col + i))?;
        }
        Ok(())
    }
}

/// Exchanged halos for one iteration.
pub struct Halos {
    /// Cells of the left neighbour's last column (`None` at the left
    /// domain border).
    pub left: Option<Vec<Cell>>,
    /// Cells of the right neighbour's first column.
    pub right: Option<Vec<Cell>>,
}

impl Halos {
    /// Hand the consumed halo buffers back to `scratch` so the next
    /// iteration's sends refill them instead of allocating.
    pub fn recycle_into(self, scratch: &mut HaloScratch) {
        if let Some(buf) = self.left {
            scratch.recycle(buf);
        }
        if let Some(buf) = self.right {
            scratch.recycle(buf);
        }
    }
}

/// Send-buffer pool for [`exchange_halos_reusing`]. A halo payload must be
/// an owned `Vec<Cell>` (the receiving rank consumes it), so the sender
/// cannot keep its buffer — but each rank also *receives* at most as many
/// halos as it sends, so recycling the received buffers closes the loop:
/// after the first iteration the exchange allocates nothing.
#[derive(Debug, Default)]
pub struct HaloScratch {
    pool: Vec<Vec<Cell>>,
}

impl HaloScratch {
    /// An empty pool (the first exchange through it allocates its buffers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Return a consumed halo buffer for reuse as a future send buffer.
    pub fn recycle(&mut self, mut buf: Vec<Cell>) {
        buf.clear();
        self.pool.push(buf);
    }

    fn take(&mut self) -> Vec<Cell> {
        self.pool.pop().unwrap_or_default()
    }
}

/// Perform the per-iteration halo exchange: boundary column cells flow to
/// both neighbours. Every rank must own at least one column. Send buffers
/// are drawn from `scratch`: the erosion loop recycles each iteration's
/// received halos into the next iteration's sends.
pub async fn exchange_halos_reusing(
    ctx: &mut SpmdCtx,
    stripe: &Stripe,
    scratch: &mut HaloScratch,
) -> Halos {
    assert!(!stripe.is_empty(), "halo exchange requires a non-empty stripe");
    let rank = ctx.rank();
    let size = ctx.size();
    let height_bytes = stripe.cols()[0].height() * Cell::WIRE_BYTES;
    if rank > 0 {
        let mut cells = scratch.take();
        cells.extend_from_slice(stripe.cols()[0].cells());
        ctx.send(rank - 1, HALO_TAG, cells, height_bytes);
    }
    if rank + 1 < size {
        let mut cells = scratch.take();
        cells.extend_from_slice(stripe.cols()[stripe.len() - 1].cells());
        ctx.send(rank + 1, HALO_TAG, cells, height_bytes);
    }
    let left = if rank > 0 { Some(ctx.recv::<Vec<Cell>>(rank - 1, HALO_TAG).await) } else { None };
    let right =
        if rank + 1 < size { Some(ctx.recv::<Vec<Cell>>(rank + 1, HALO_TAG).await) } else { None };
    Halos { left, right }
}

fn intersect(a: &std::ops::Range<usize>, b: &std::ops::Range<usize>) -> std::ops::Range<usize> {
    a.start.max(b.start)..a.end.min(b.end)
}

/// The ranks whose range under `partition` intersects `span`: because
/// ranges are contiguous and rank-ordered, they form the contiguous rank
/// interval `owner(span.start) ..= owner(span.end − 1)` — found with two
/// binary searches instead of scanning all `P` ranks (which made every
/// migration `O(P)` per rank, `O(P²)` across the machine).
fn overlapping_ranks(
    partition: &Partition,
    span: &std::ops::Range<usize>,
) -> std::ops::Range<usize> {
    if span.is_empty() {
        return 0..0;
    }
    partition.owner(span.start)..partition.owner(span.end - 1) + 1
}

/// Migrate columns so that this rank ends up owning exactly
/// `partition.range(rank)`. `old_partition` is the pre-migration partition
/// (every rank's stripe must match its range — it is the same object on
/// every rank between LB steps, so sharing it costs nothing); ranges must
/// be contiguous and rank-ordered in both partitions. Wrap in
/// `begin_lb`/`end_lb` so the transfer time books as LB cost.
pub async fn migrate(
    ctx: &mut SpmdCtx,
    stripe: Stripe,
    old_partition: &Partition,
    partition: &Partition,
) -> Stripe {
    let rank = ctx.rank();
    let my_old = stripe.range();
    debug_assert_eq!(old_partition.range(rank), my_old, "old partition out of sync");
    let my_new = partition.range(rank);

    // Decompose my columns into per-destination segments (only ranks whose
    // new range overlaps my old one can be destinations).
    let Stripe { first_col, cols } = stripe;
    let mut cols: Vec<Option<Column>> = cols.into_iter().map(Some).collect();
    let mut kept: Vec<(usize, Vec<Column>)> = Vec::new();
    for dest in overlapping_ranks(partition, &my_old) {
        let overlap = intersect(&my_old, &partition.range(dest));
        if overlap.is_empty() {
            continue;
        }
        let seg: Vec<Column> = (overlap.start..overlap.end)
            .map(|g| cols[g - first_col].take().expect("each column leaves once"))
            .collect();
        if dest == rank {
            kept.push((overlap.start, seg));
        } else {
            let bytes: usize = seg.iter().map(|c| c.wire_bytes()).sum();
            ctx.send(dest, MIGRATE_TAG, (overlap.start, seg), bytes);
        }
    }

    // Receive the segments that make up my new range (only ranks whose old
    // range overlaps it can be sources).
    let mut segments = kept;
    for src in overlapping_ranks(old_partition, &my_new) {
        if src == rank {
            continue;
        }
        if !intersect(&old_partition.range(src), &my_new).is_empty() {
            let (start, seg) = ctx.recv::<(usize, Vec<Column>)>(src, MIGRATE_TAG).await;
            segments.push((start, seg));
        }
    }

    let rebuilt = Stripe::from_segments(segments);
    assert_eq!(rebuilt.range(), my_new, "migration must produce the new range");
    rebuilt
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use ulba_core::partition::Partition;
    use ulba_runtime::{run, RunConfig};

    fn geometry(stripes: usize) -> Geometry {
        Geometry::new(stripes, 32, 32, 8)
    }

    #[test]
    fn initial_stripe_covers_range() {
        let g = geometry(4);
        let s = Stripe::initial(&g, 32..64);
        assert_eq!(s.first_col(), 32);
        assert_eq!(s.end_col(), 64);
        assert_eq!(s.len(), 32);
        s.check_invariants().unwrap();
        assert!(s.fluid_weight() > 0);
        assert!(s.exposed_count() > 0, "the stripe's disc has a frontier");
    }

    #[test]
    fn from_segments_reorders_and_validates() {
        let g = geometry(2);
        let a: Vec<Column> = (0..8).map(|c| Column::initial(&g, c)).collect();
        let b: Vec<Column> = (8..16).map(|c| Column::initial(&g, c)).collect();
        let s = Stripe::from_segments(vec![(8, b), (0, a)]);
        assert_eq!(s.range(), 0..16);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn from_segments_rejects_gaps() {
        let g = geometry(2);
        let a: Vec<Column> = (0..4).map(|c| Column::initial(&g, c)).collect();
        let b: Vec<Column> = (8..12).map(|c| Column::initial(&g, c)).collect();
        Stripe::from_segments(vec![(0, a), (8, b)]);
    }

    #[test]
    fn halo_exchange_delivers_boundary_cells() {
        let g = std::sync::Arc::new(geometry(4));
        run(RunConfig::new(4), |mut ctx| {
            let g = std::sync::Arc::clone(&g);
            async move {
                let g = &*g;
                let rank = ctx.rank();
                let stripe = Stripe::initial(g, rank * 32..(rank + 1) * 32);
                let halos =
                    exchange_halos_reusing(&mut ctx, &stripe, &mut HaloScratch::new()).await;
                assert_eq!(halos.left.is_some(), rank > 0);
                assert_eq!(halos.right.is_some(), rank < 3);
                if let Some(left) = &halos.left {
                    let expect = Column::initial(g, rank * 32 - 1);
                    assert_eq!(left.as_slice(), expect.cells());
                }
                if let Some(right) = &halos.right {
                    let expect = Column::initial(g, (rank + 1) * 32);
                    assert_eq!(right.as_slice(), expect.cells());
                }
            }
        });
    }

    /// The host representation of a cell and its modelled wire size are
    /// separate: a one-byte `Cell` is still charged two bytes per cell, so
    /// editing the cell type cannot move a virtual cost.
    #[test]
    fn wire_model_is_pinned_apart_from_the_cell_layout() {
        use ulba_runtime::{EventKind, Tracer};
        assert_eq!(std::mem::size_of::<Cell>(), 1);
        let g = std::sync::Arc::new(geometry(2));
        // Through disc 0's centre: 32 cells, 2 frontier rows, 8 header bytes.
        assert_eq!(Column::initial(&g, 16).wire_bytes(), 32 * 2 + 2 * 2 + 8);

        let tracer = std::sync::Arc::new(Tracer::new(64));
        run(RunConfig::new(2).with_tracer(std::sync::Arc::clone(&tracer)), |mut ctx| {
            let g = std::sync::Arc::clone(&g);
            async move {
                let rank = ctx.rank();
                let stripe = Stripe::initial(&g, rank * 32..(rank + 1) * 32);
                exchange_halos_reusing(&mut ctx, &stripe, &mut HaloScratch::new()).await;
            }
        });
        let halo_bytes: Vec<usize> = tracer
            .timeline()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Send { tag: HALO_TAG, bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(halo_bytes, [32 * 2, 32 * 2], "a halo is charged height × 2 bytes");
    }

    #[test]
    fn migration_moves_columns_correctly() {
        let g = std::sync::Arc::new(geometry(4));
        let final_weights = std::sync::Arc::new(Mutex::new(Vec::<(usize, u64)>::new()));
        run(RunConfig::new(4), |mut ctx| {
            let g = std::sync::Arc::clone(&g);
            let final_weights = std::sync::Arc::clone(&final_weights);
            async move {
                let g = &*g;
                let rank = ctx.rank();
                let stripe = Stripe::initial(g, rank * 32..(rank + 1) * 32);
                let old = Partition::from_bounds(vec![0, 32, 64, 96, 128], 128);
                // New partition shifts everything: [0,16), [16,64), [64,120), [120,128).
                let part = Partition::from_bounds(vec![0, 16, 64, 120, 128], 128);
                let stripe = migrate(&mut ctx, stripe, &old, &part).await;
                assert_eq!(stripe.range(), part.range(rank));
                stripe.check_invariants().unwrap();
                // Every column must equal a freshly built one (content preserved).
                for (i, col) in stripe.cols().iter().enumerate() {
                    let expect = Column::initial(g, stripe.first_col() + i);
                    assert_eq!(col, &expect, "column {} corrupted", stripe.first_col() + i);
                }
                final_weights.lock().push((rank, stripe.fluid_weight()));
            }
        });
        // Total weight conserved.
        let g_total: u64 =
            (0..128).map(|c| Column::initial(&geometry(4), c).fluid_weight() as u64).sum();
        let migrated_total: u64 = final_weights.lock().iter().map(|(_, w)| w).sum();
        assert_eq!(migrated_total, g_total);
    }

    #[test]
    fn identity_migration_is_noop() {
        let g = std::sync::Arc::new(geometry(2));
        run(RunConfig::new(2), |mut ctx| {
            let g = std::sync::Arc::clone(&g);
            async move {
                let g = &*g;
                let rank = ctx.rank();
                let stripe = Stripe::initial(g, rank * 32..(rank + 1) * 32);
                let before = stripe.clone();
                let old = Partition::from_bounds(vec![0, 32, 64], 64);
                let part = Partition::from_bounds(vec![0, 32, 64], 64);
                let after = migrate(&mut ctx, stripe, &old, &part).await;
                assert_eq!(after, before);
            }
        });
    }

    #[test]
    fn refresh_boundary_exposure_single_column_stripe() {
        let g = geometry(2);
        let mut s = Stripe::initial(&g, 16..17); // through disc 0's centre
        let all_fluid = vec![Cell::FLUID; 32];
        s.refresh_boundary_exposure(Some(&all_fluid), Some(&all_fluid));
        // Every rock cell of the single column is now exposed.
        let rock: usize = (0..32).filter(|&r| s.cols()[0].cell(r).is_rock()).count();
        assert_eq!(s.exposed_count(), rock);
        s.check_invariants().unwrap();
    }
}
