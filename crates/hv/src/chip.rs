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
    /// `occupied[row * cols + col]`: one buffer, row after row.
    occupied: Vec<bool>,
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
            occupied: vec![false; usize::from(rows) * usize::from(cols)],
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
        self.occupied[self.index(row, col)]
    }

    /// Marks a tile allocated or free.
    pub(crate) fn set_occupied(&mut self, row: u16, col: u16, value: bool) {
        let i = self.index(row, col);
        self.occupied[i] = value;
    }

    /// Where a tile's flag lies in `occupied`.
    fn index(&self, row: u16, col: u16) -> usize {
        assert!(col < self.cols, "tile out of range");
        usize::from(row) * usize::from(self.cols) + usize::from(col)
    }

    /// Each row's occupancy flags, top to bottom.
    fn occupancy_rows(&self) -> std::slice::ChunksExact<'_, bool> {
        self.occupied.chunks_exact(usize::from(self.cols))
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
    #[cfg(test)]
    pub(crate) fn iter_tiles(&self) -> impl Iterator<Item = Tile> + '_ {
        (0..self.rows).flat_map(move |r| (0..self.cols).map(move |c| self.tile(r, c)))
    }

    /// Finds a run of `n` contiguous **free Slice tiles in one row**
    /// (Slices of a VCore must be contiguous, §3). Returns the tiles, or
    /// `None` if no row has such a run.
    #[must_use]
    pub fn find_slice_run(&self, n: usize) -> Option<Vec<Tile>> {
        let mut tiles = Vec::new();
        self.slice_run_into(n, &mut tiles).then_some(tiles)
    }

    /// [`Chip::find_slice_run`] into a caller's buffer: on success `out`
    /// holds exactly the run; on failure it is left empty.
    pub(crate) fn slice_run_into(&self, n: usize, out: &mut Vec<Tile>) -> bool {
        out.clear();
        if n == 0 {
            return true;
        }
        for (r, row) in (0..self.rows).zip(self.occupancy_rows()) {
            // Slices sit in the even columns; bank columns do not break
            // Slice adjacency.
            let mut run = 0;
            for (c, &taken) in row.iter().enumerate().step_by(2) {
                run = if taken { 0 } else { run + 1 };
                if run == n {
                    let first = c + 2 - 2 * n;
                    let cols = (first..=c).step_by(2);
                    out.extend(cols.map(|c| self.tile(r, c as u16)));
                    return true;
                }
            }
        }
        false
    }

    /// Finds the `n` free cache banks nearest to `anchor` (banks need not
    /// be contiguous, §3), ordered by `(distance, row, col)`. Returns
    /// `None` if fewer than `n` are free.
    ///
    /// The search walks Manhattan rings d = 0, 1, … out from the anchor,
    /// each ring row by row in ascending order, and in each row column
    /// `ac − dc` before `ac + dc`: exactly `(distance, row, col)` order,
    /// so it can stop once a row completes `n` banks.
    #[must_use]
    pub fn find_banks_near(&self, anchor: Tile, n: usize) -> Option<Vec<Tile>> {
        let mut tiles = Vec::new();
        self.banks_near_into(anchor, n, &mut tiles).then_some(tiles)
    }

    /// [`Chip::find_banks_near`] into a caller's buffer: on success `out`
    /// holds exactly the banks, in order; on failure it holds no
    /// meaning.
    pub(crate) fn banks_near_into(&self, anchor: Tile, n: usize, out: &mut Vec<Tile>) -> bool {
        out.clear();
        if n == 0 {
            return true;
        }
        let (ar, ac) = (i32::from(anchor.row), i32::from(anchor.col));
        let (last_row, last_col) = (i32::from(self.rows) - 1, i32::from(self.cols) - 1);
        // The farthest tile is a corner of the grid.
        let col_reach = ac.max(last_col - ac);
        let reach = ar.max(last_row - ar) + col_reach;
        // A row adds at most two banks before the check below.
        out.reserve(n.min(self.total_banks()) + 1);
        for d in 0..=reach {
            // Ring d's tiles in rows nearer the anchor than `gap` lie past
            // the grid's last column on both sides: skip those rows.
            let gap = (d - col_reach).max(0);
            let (top, bottom) = ((ar - d).max(0), (ar + d).min(last_row));
            let above = top..=bottom.min(ar - gap);
            let below = top.max(ar + gap.max(1))..=bottom;
            for r in above.chain(below) {
                let dc = d - (r - ar).abs();
                let start = r as usize * usize::from(self.cols);
                let row = &self.occupied[start..start + usize::from(self.cols)];
                let right = (dc > 0).then_some(ac + dc);
                for c in std::iter::once(ac - dc).chain(right) {
                    if (0..=last_col).contains(&c)
                        && self.kind_at(r as u16, c as u16) == TileKind::CacheBank
                        && !row[c as usize]
                    {
                        out.push(self.tile(r as u16, c as u16));
                    }
                }
                if out.len() >= n {
                    out.truncate(n);
                    return true;
                }
            }
        }
        false
    }

    /// Slice fragmentation: `1 - largest_free_run / free_slices`, the
    /// share of free Slices that lie outside the longest contiguous free
    /// run of any row. 0.0 means one run holds every free Slice (also when
    /// none are free); values near 1.0 mean free Slices are scattered in
    /// short runs that cannot serve a large contiguous request.
    #[must_use]
    pub fn slice_fragmentation(&self) -> f64 {
        let (mut free, mut largest) = (0usize, 0usize);
        for row in self.occupancy_rows() {
            let mut run = 0usize;
            // Slices sit in the even columns.
            for &taken in row.iter().step_by(2) {
                if taken {
                    run = 0;
                } else {
                    free += 1;
                    run += 1;
                    largest = largest.max(run);
                }
            }
        }
        if free == 0 {
            return 0.0;
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

    /// `find_slice_run` as first written: a per-row `Vec` of the run.
    fn reference_slice_run(chip: &Chip, n: usize) -> Option<Vec<Tile>> {
        if n == 0 {
            return Some(Vec::new());
        }
        for r in 0..chip.rows {
            let mut run: Vec<Tile> = Vec::new();
            for c in 0..chip.cols {
                if chip.kind_at(r, c) != TileKind::Slice {
                    continue;
                }
                if chip.is_occupied(r, c) {
                    run.clear();
                } else {
                    run.push(chip.tile(r, c));
                    if run.len() == n {
                        return Some(run);
                    }
                }
            }
        }
        None
    }

    /// `find_banks_near` as first written: every free bank, sorted by
    /// `(distance, row, col)`, truncated to `n`.
    fn reference_banks_near(chip: &Chip, anchor: Tile, n: usize) -> Option<Vec<Tile>> {
        let mut free: Vec<Tile> = chip
            .iter_tiles()
            .filter(|t| t.kind == TileKind::CacheBank && !chip.is_occupied(t.row, t.col))
            .collect();
        if free.len() < n {
            return None;
        }
        free.sort_by_key(|t| (t.distance(&anchor), t.row, t.col));
        free.truncate(n);
        Some(free)
    }

    /// `slice_fragmentation` as first written: a free count over the
    /// tiles, then a second pass for the longest run.
    fn reference_fragmentation(chip: &Chip) -> f64 {
        let free: usize = chip
            .iter_tiles()
            .filter(|t| t.kind == TileKind::Slice && !chip.is_occupied(t.row, t.col))
            .count();
        if free == 0 {
            return 0.0;
        }
        let mut largest = 0usize;
        for r in 0..chip.rows {
            let mut run = 0usize;
            for c in 0..chip.cols {
                if chip.kind_at(r, c) != TileKind::Slice {
                    continue;
                }
                if chip.is_occupied(r, c) {
                    run = 0;
                } else {
                    run += 1;
                    largest = largest.max(run);
                }
            }
        }
        1.0 - largest as f64 / free as f64
    }

    /// The searches agree with the sort-and-scan references to the bit,
    /// over seeded random occupancy, with every tile as the bank anchor:
    /// - every row count to 9 against column counts to 33, odd and even,
    ///   with every `n` from 0 to one past what is free;
    /// - the long 4x256 and 256x4 grids, where a ring mostly misses the
    ///   grid, with `n` at the ends of that range and in its middle.
    #[test]
    fn searches_match_the_reference_bodies() {
        const COLS: [u16; 12] = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33];
        let grids = (1..=9u16)
            .flat_map(|rows| COLS.map(|cols| (rows, cols)))
            .chain([(4, 256), (256, 4)]);
        // xorshift64*: a fixed stream.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % bound
        };
        for (rows, cols) in grids {
            let mut chip = Chip::new(rows, cols);
            // Occupy each tile with a per-grid chance from 0 to 100 %.
            let density = next(5) * 25;
            for r in 0..rows {
                for c in 0..cols {
                    chip.set_occupied(r, c, next(100) < density);
                }
            }
            let at = format!("{rows}x{cols} at {density} %");
            assert_eq!(
                chip.slice_fragmentation().to_bits(),
                reference_fragmentation(&chip).to_bits(),
                "{at}"
            );
            let free = |kind| {
                chip.iter_tiles()
                    .filter(|t| t.kind == kind && !chip.is_occupied(t.row, t.col))
                    .count()
            };
            for n in 0..=free(TileKind::Slice) + 1 {
                assert_eq!(
                    chip.find_slice_run(n),
                    reference_slice_run(&chip, n),
                    "{at} n {n}"
                );
            }
            let free_banks = free(TileKind::CacheBank);
            let ns: Vec<usize> = if rows.max(cols) <= 33 {
                (0..=free_banks + 1).collect()
            } else {
                let ends = [0, 1, 2, 3, free_banks / 2, free_banks.saturating_sub(1)];
                ends.into_iter()
                    .chain([free_banks, free_banks + 1])
                    .collect()
            };
            for anchor in chip.iter_tiles() {
                // The reference truncates one sorted list, so its answer
                // for any n is a prefix of its answer for every free bank.
                let all = reference_banks_near(&chip, anchor, free_banks).expect("all free");
                assert_eq!(reference_banks_near(&chip, anchor, free_banks + 1), None);
                for &n in &ns {
                    let want = all.get(..n).map(<[Tile]>::to_vec);
                    let found = chip.find_banks_near(anchor, n);
                    assert_eq!(found, want, "{at} anchor {anchor} n {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_bounds_checked() {
        let _ = Chip::new(2, 2).tile(2, 0);
    }
}
