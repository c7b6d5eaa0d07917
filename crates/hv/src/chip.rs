//! The chip: a grid of Slice and cache-bank tiles.

use std::fmt;

/// What occupies a tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TileKind {
    /// A compute Slice.
    Slice,
    /// A 64 KB L2 cache bank.
    CacheBank,
}

/// One tile of the chip.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tile {
    /// Row on the grid.
    pub row: u16,
    /// Column on the grid.
    pub col: u16,
    /// What the tile is.
    pub kind: TileKind,
}

impl Tile {
    /// Manhattan distance to another tile (hop count on the switched
    /// interconnect).
    #[must_use]
    pub fn distance(&self, other: &Tile) -> u32 {
        u32::from(self.row.abs_diff(other.row)) + u32::from(self.col.abs_diff(other.col))
    }
}

impl fmt::Display for Tile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            TileKind::Slice => 'S',
            TileKind::CacheBank => 'C',
        };
        write!(f, "{k}({},{})", self.row, self.col)
    }
}

/// The chip layout: rows alternate Slice and cache-bank columns (like the
/// paper's Figure 3, where Slices and banks interleave on the fabric).
///
/// Allocation state is tracked per tile.
#[derive(Clone, Debug)]
pub struct Chip {
    rows: u16,
    cols: u16,
    /// `occupied[row][col]`.
    occupied: Vec<Vec<bool>>,
}

impl Chip {
    /// Builds a chip with `rows × cols` tiles; even columns are Slices,
    /// odd columns cache banks.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: u16, cols: u16) -> Self {
        assert!(rows > 0 && cols > 0, "chip dimensions must be positive");
        Chip {
            rows,
            cols,
            occupied: vec![vec![false; cols as usize]; rows as usize],
        }
    }

    /// Grid rows.
    #[must_use]
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Grid columns.
    #[must_use]
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// The kind of the tile at `(row, col)` under the alternating layout.
    #[must_use]
    pub fn kind_at(&self, _row: u16, col: u16) -> TileKind {
        if col.is_multiple_of(2) {
            TileKind::Slice
        } else {
            TileKind::CacheBank
        }
    }

    /// The tile at a position.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn tile(&self, row: u16, col: u16) -> Tile {
        assert!(row < self.rows && col < self.cols, "tile out of range");
        Tile {
            row,
            col,
            kind: self.kind_at(row, col),
        }
    }

    /// Whether a tile is currently allocated.
    #[must_use]
    pub fn is_occupied(&self, row: u16, col: u16) -> bool {
        self.occupied[row as usize][col as usize]
    }

    /// Marks a tile allocated or free.
    pub(crate) fn set_occupied(&mut self, row: u16, col: u16, value: bool) {
        self.occupied[row as usize][col as usize] = value;
    }

    /// Total Slice tiles on the chip: the even columns of every row.
    #[must_use]
    pub fn total_slices(&self) -> usize {
        usize::from(self.rows) * usize::from(self.cols).div_ceil(2)
    }

    /// Total cache-bank tiles on the chip: the odd columns of every row.
    #[must_use]
    pub fn total_banks(&self) -> usize {
        usize::from(self.rows) * (usize::from(self.cols) / 2)
    }

    /// Iterates all tiles in row-major order.
    pub fn iter_tiles(&self) -> impl Iterator<Item = Tile> + '_ {
        (0..self.rows).flat_map(move |r| (0..self.cols).map(move |c| self.tile(r, c)))
    }

    /// Finds a run of `n` contiguous **free Slice tiles in one row**
    /// (Slices of a VCore must be contiguous, §3). Returns the tiles, or
    /// `None` if no row has such a run.
    #[must_use]
    pub fn find_slice_run(&self, n: usize) -> Option<Vec<Tile>> {
        if n == 0 {
            return Some(Vec::new());
        }
        for r in 0..self.rows {
            let mut run: Vec<Tile> = Vec::new();
            for c in 0..self.cols {
                if self.kind_at(r, c) != TileKind::Slice {
                    continue; // bank columns do not break Slice adjacency
                }
                if self.is_occupied(r, c) {
                    run.clear();
                } else {
                    run.push(self.tile(r, c));
                    if run.len() == n {
                        return Some(run);
                    }
                }
            }
        }
        None
    }

    /// Finds the `n` free cache banks nearest to `anchor` (banks need not
    /// be contiguous, §3). Returns `None` if fewer than `n` are free.
    #[must_use]
    pub fn find_banks_near(&self, anchor: Tile, n: usize) -> Option<Vec<Tile>> {
        let mut free: Vec<Tile> = self
            .iter_tiles()
            .filter(|t| t.kind == TileKind::CacheBank && !self.is_occupied(t.row, t.col))
            .collect();
        if free.len() < n {
            return None;
        }
        free.sort_by_key(|t| (t.distance(&anchor), t.row, t.col));
        free.truncate(n);
        Some(free)
    }

    /// Slice fragmentation: `1 - largest_free_run / free_slices`, the
    /// share of free Slices that lie outside the longest contiguous free
    /// run of any row. 0.0 means one run holds every free Slice (also when
    /// none are free); values near 1.0 mean free Slices are scattered in
    /// short runs that cannot serve a large contiguous request.
    #[must_use]
    pub fn slice_fragmentation(&self) -> f64 {
        let free: usize = self
            .iter_tiles()
            .filter(|t| t.kind == TileKind::Slice && !self.is_occupied(t.row, t.col))
            .count();
        if free == 0 {
            return 0.0;
        }
        let mut largest = 0usize;
        for r in 0..self.rows {
            let mut run = 0usize;
            for c in 0..self.cols {
                if self.kind_at(r, c) != TileKind::Slice {
                    continue;
                }
                if self.is_occupied(r, c) {
                    run = 0;
                } else {
                    run += 1;
                    largest = largest.max(run);
                }
            }
        }
        1.0 - largest as f64 / free as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternating_layout() {
        let chip = Chip::new(4, 8);
        assert_eq!(chip.kind_at(0, 0), TileKind::Slice);
        assert_eq!(chip.kind_at(0, 1), TileKind::CacheBank);
        assert_eq!(chip.total_slices(), 16);
        assert_eq!(chip.total_banks(), 16);
    }

    #[test]
    fn closed_form_totals_match_the_tile_grid() {
        for (rows, cols) in [(1, 1), (1, 2), (3, 5), (2, 8), (7, 13), (8, 16)] {
            let chip = Chip::new(rows, cols);
            let count = |kind| chip.iter_tiles().filter(|t| t.kind == kind).count();
            assert_eq!(chip.total_slices(), count(TileKind::Slice), "{rows}x{cols}");
            assert_eq!(
                chip.total_banks(),
                count(TileKind::CacheBank),
                "{rows}x{cols}"
            );
        }
    }

    #[test]
    fn slice_run_skips_bank_columns() {
        let chip = Chip::new(2, 8);
        // 4 slices per row at cols 0,2,4,6 — a run of 4 exists.
        let run = chip.find_slice_run(4).unwrap();
        assert_eq!(run.len(), 4);
        assert!(run.iter().all(|t| t.kind == TileKind::Slice));
        assert!(run.iter().all(|t| t.row == 0));
    }

    #[test]
    fn occupied_slice_breaks_run() {
        let mut chip = Chip::new(1, 8);
        chip.set_occupied(0, 2, true); // middle Slice taken
        assert!(chip.find_slice_run(3).is_none());
        assert!(chip.find_slice_run(2).is_some());
    }

    #[test]
    fn banks_chosen_by_proximity() {
        let chip = Chip::new(4, 8);
        let anchor = chip.tile(0, 0);
        let banks = chip.find_banks_near(anchor, 3).unwrap();
        assert_eq!(banks.len(), 3);
        // The nearest bank to (0,0) is (0,1).
        assert_eq!((banks[0].row, banks[0].col), (0, 1));
        // Distances are non-decreasing.
        for w in banks.windows(2) {
            assert!(w[0].distance(&anchor) <= w[1].distance(&anchor));
        }
    }

    #[test]
    fn bank_exhaustion_returns_none() {
        let mut chip = Chip::new(1, 4); // 2 banks
        chip.set_occupied(0, 1, true);
        chip.set_occupied(0, 3, true);
        assert!(chip.find_banks_near(chip.tile(0, 0), 1).is_none());
    }

    #[test]
    fn fragmentation_metric() {
        let mut chip = Chip::new(1, 8); // slices at 0,2,4,6
        assert_eq!(chip.slice_fragmentation(), 0.0);
        chip.set_occupied(0, 2, true); // free: {0}, {4,6} → largest 2 of 3
        let f = chip.slice_fragmentation();
        assert!((f - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_run_is_trivially_found() {
        let chip = Chip::new(1, 2);
        assert_eq!(chip.find_slice_run(0).unwrap().len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_bounds_checked() {
        let _ = Chip::new(2, 2).tile(2, 0);
    }
}
