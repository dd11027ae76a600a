//! Uniform spatial-grid neighbor index.
//!
//! The collision medium and proximity-graph construction both ask one
//! geometric question: *which devices can possibly hear a transmitter?*
//! With a dense `n × n` gain matrix that answer costs O(n) per query and
//! O(n²) memory up front. [`SpatialGrid`] replaces it with uniform
//! bucketing: the arena is cut into square cells whose side is the
//! worst-case audibility radius (derived from the path-loss model and
//! the detection threshold by the radio layer), so a disc query touches
//! a bounded number of cells and returns O(occupancy) candidates.
//!
//! Design notes:
//!
//! * The index stores point ids in a CSR layout (`cell_start` offsets
//!   into one `items` array), built in O(n) by counting sort.
//! * Ids within a cell are stored in ascending order, and
//!   [`SpatialGrid::cells_intersecting_disc`] yields cells in ascending
//!   linear-index order, so iteration over candidates is deterministic
//!   — a requirement for bit-reproducible trials.
//! * [`SpatialGrid::within`] is *inclusive* (`distance ≤ r`): a pair at
//!   exactly the audibility radius is a candidate, never pruned. The
//!   disc→cell cover is the disc's bounding box, a conservative
//!   superset, so pruning can only drop provably-inaudible pairs.
//! * Coordinates outside the arena are clamped into the boundary cells
//!   rather than rejected.

use crate::VertexId;

/// Hard cap on the number of grid cells; callers pick the cell size, and
/// this guards against degenerate configurations (huge arena, tiny
/// radius) silently allocating unbounded memory.
pub const MAX_CELLS: usize = 1 << 24;

/// A uniform grid over a `width × height` arena indexing point ids.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_size: f64,
    cols: usize,
    rows: usize,
    /// CSR offsets: cell `c` holds `items[cell_start[c]..cell_start[c+1]]`.
    cell_start: Vec<u32>,
    /// Point ids grouped by cell, ascending within each cell.
    items: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl SpatialGrid {
    /// Build a grid with square cells of side `cell_size` over a
    /// `width × height` arena and bucket `points` (id = index).
    ///
    /// # Panics
    ///
    /// If the arena or cell size is non-positive/non-finite, or the
    /// implied cell count exceeds [`MAX_CELLS`].
    pub fn new(width: f64, height: f64, cell_size: f64, points: &[(f64, f64)]) -> SpatialGrid {
        assert!(
            width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite(),
            "arena must be positive and finite"
        );
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell size must be positive and finite"
        );
        let cols = ((width / cell_size).ceil() as usize).max(1);
        let rows = ((height / cell_size).ceil() as usize).max(1);
        assert!(
            cols.saturating_mul(rows) <= MAX_CELLS,
            "grid of {cols}x{rows} cells exceeds MAX_CELLS; pick a larger cell size"
        );
        let cells = cols * rows;
        let mut grid = SpatialGrid {
            cell_size,
            cols,
            rows,
            cell_start: vec![0; cells + 1],
            items: vec![0; points.len()],
            xs: points.iter().map(|p| p.0).collect(),
            ys: points.iter().map(|p| p.1).collect(),
        };
        // Counting sort: cell sizes, prefix sums, then scatter ids.
        for &(x, y) in points {
            let c = grid.cell_index(x, y);
            grid.cell_start[c + 1] += 1;
        }
        for c in 0..cells {
            grid.cell_start[c + 1] += grid.cell_start[c];
        }
        let mut cursor = grid.cell_start[..cells].to_vec();
        // Points are visited in id order, so each cell's slice ends up
        // sorted ascending by id.
        for (i, &(x, y)) in points.iter().enumerate() {
            let c = grid.cell_index(x, y);
            grid.items[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        grid
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if no points are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Cell side length.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Grid columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cols * self.rows
    }

    /// The stored coordinates of point `id`.
    #[inline]
    pub fn point(&self, id: VertexId) -> (f64, f64) {
        (self.xs[id as usize], self.ys[id as usize])
    }

    #[inline]
    fn clamp_axis(coord: f64, cell: f64, count: usize) -> usize {
        if !coord.is_finite() || coord <= 0.0 {
            return 0;
        }
        ((coord / cell).floor() as usize).min(count - 1)
    }

    /// Linear index of the cell containing `(x, y)` (clamped into the
    /// arena).
    #[inline]
    pub fn cell_index(&self, x: f64, y: f64) -> usize {
        Self::clamp_axis(y, self.cell_size, self.rows) * self.cols
            + Self::clamp_axis(x, self.cell_size, self.cols)
    }

    /// Point ids bucketed in cell `cell`, ascending.
    #[inline]
    pub fn cell_items(&self, cell: usize) -> &[VertexId] {
        let lo = self.cell_start[cell] as usize;
        let hi = self.cell_start[cell + 1] as usize;
        &self.items[lo..hi]
    }

    /// Linear indices of every cell whose area may intersect the disc of
    /// radius `r` around `(x, y)` — the cells covering the disc's
    /// bounding box. Yields ascending linear indices (row-major), which
    /// keeps downstream iteration deterministic.
    pub fn cells_intersecting_disc(
        &self,
        x: f64,
        y: f64,
        r: f64,
    ) -> impl Iterator<Item = usize> + '_ {
        let r = r.max(0.0);
        let c0 = Self::clamp_axis(x - r, self.cell_size, self.cols);
        let c1 = Self::clamp_axis(x + r, self.cell_size, self.cols);
        let r0 = Self::clamp_axis(y - r, self.cell_size, self.rows);
        let r1 = Self::clamp_axis(y + r, self.cell_size, self.rows);
        let cols = self.cols;
        (r0..=r1).flat_map(move |row| (c0..=c1).map(move |col| row * cols + col))
    }

    /// Append to `out` the ids of every point within distance `r`
    /// (inclusive) of `(x, y)`, sorted ascending. Includes a stored
    /// point at the query position itself; callers exclude self-ids.
    pub fn within(&self, x: f64, y: f64, r: f64, out: &mut Vec<VertexId>) {
        let start = out.len();
        let r2 = r * r;
        for cell in self.cells_intersecting_disc(x, y, r) {
            for &id in self.cell_items(cell) {
                let dx = self.xs[id as usize] - x;
                let dy = self.ys[id as usize] - y;
                if dx * dx + dy * dy <= r2 {
                    out.push(id);
                }
            }
        }
        out[start..].sort_unstable();
    }

    /// Convenience wrapper over [`SpatialGrid::within`] that allocates.
    pub fn within_vec(&self, x: f64, y: f64, r: f64) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.within(x, y, r, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(points: &[(f64, f64)], x: f64, y: f64, r: f64) -> Vec<VertexId> {
        let r2 = r * r;
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let (dx, dy) = (p.0 - x, p.1 - y);
                dx * dx + dy * dy <= r2
            })
            .map(|(i, _)| i as VertexId)
            .collect()
    }

    #[test]
    fn geometry_matches_arena() {
        let g = SpatialGrid::new(100.0, 50.0, 30.0, &[]);
        assert_eq!(g.cols(), 4);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.cell_count(), 8);
        assert!(g.is_empty());
    }

    #[test]
    fn single_cell_grid_holds_everything() {
        let pts = [(1.0, 1.0), (99.0, 99.0), (50.0, 50.0)];
        let g = SpatialGrid::new(100.0, 100.0, 150.0, &pts);
        assert_eq!(g.cell_count(), 1);
        assert_eq!(g.cell_items(0), &[0, 1, 2]);
    }

    #[test]
    fn boundary_coordinates_are_clamped_into_the_grid() {
        // Points exactly on the far edge (and beyond) land in the last
        // cell instead of indexing out of bounds.
        let pts = [(100.0, 100.0), (120.0, -3.0), (0.0, 0.0)];
        let g = SpatialGrid::new(100.0, 100.0, 10.0, &pts);
        assert_eq!(g.cell_index(100.0, 100.0), g.cell_count() - 1);
        assert_eq!(g.cell_index(0.0, 0.0), 0);
        assert_eq!(g.len(), 3);
        // Every point is findable.
        assert_eq!(g.within_vec(50.0, 50.0, 200.0), vec![0, 1, 2]);
    }

    #[test]
    fn within_matches_brute_force() {
        // Deterministic pseudo-random scatter.
        let mut s = 12345u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<(f64, f64)> = (0..200).map(|_| (next() * 200.0, next() * 100.0)).collect();
        let g = SpatialGrid::new(200.0, 100.0, 17.0, &pts);
        for &(qx, qy, r) in &[(10.0, 10.0, 25.0), (100.0, 50.0, 17.0), (199.0, 99.0, 60.0)] {
            assert_eq!(g.within_vec(qx, qy, r), brute_force(&pts, qx, qy, r));
        }
    }

    #[test]
    fn query_radius_is_inclusive_at_the_boundary() {
        // 3-4-5 triangle: the point at exactly distance 5 is included.
        let pts = [(0.0, 0.0), (3.0, 4.0)];
        let g = SpatialGrid::new(10.0, 10.0, 2.0, &pts);
        assert_eq!(g.within_vec(0.0, 0.0, 5.0), vec![0, 1]);
        assert_eq!(g.within_vec(0.0, 0.0, 4.999), vec![0]);
    }

    #[test]
    fn co_located_points_are_all_reported() {
        let pts = [(5.0, 5.0), (5.0, 5.0), (5.0, 5.0), (40.0, 40.0)];
        let g = SpatialGrid::new(50.0, 50.0, 10.0, &pts);
        assert_eq!(g.within_vec(5.0, 5.0, 0.0), vec![0, 1, 2]);
    }

    #[test]
    fn disc_cover_is_ascending_and_complete() {
        let g = SpatialGrid::new(100.0, 100.0, 10.0, &[]);
        let cells: Vec<usize> = g.cells_intersecting_disc(55.0, 55.0, 10.0).collect();
        let mut sorted = cells.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(cells, sorted, "cells must come out ascending, unique");
        // A 10 m disc at a cell centre touches a 3x3 neighbourhood.
        assert_eq!(cells.len(), 9);
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_size_rejected() {
        let _ = SpatialGrid::new(10.0, 10.0, 0.0, &[]);
    }

    #[test]
    #[should_panic(expected = "MAX_CELLS")]
    fn degenerate_cell_count_rejected() {
        let _ = SpatialGrid::new(1.0e9, 1.0e9, 0.001, &[]);
    }
}
