//! The city grid: square cells with rook adjacency.

/// A cell index on the grid (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CellId(pub u32);

impl CellId {
    /// Dense index (usable as an event-type index).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A `side × side` grid of cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Grid {
    side: u32,
}

impl Grid {
    /// Build a square grid; `side ≥ 2`.
    pub(crate) fn new(side: u32) -> Grid {
        assert!(side >= 2, "grid must be at least 2×2");
        Grid { side }
    }

    /// Total number of cells.
    pub(crate) fn n_cells(&self) -> usize {
        (self.side * self.side) as usize
    }

    /// Cell at `(x, y)`; panics outside the grid.
    pub(crate) fn cell(&self, x: u32, y: u32) -> CellId {
        assert!(x < self.side && y < self.side, "({x},{y}) outside grid");
        CellId(y * self.side + x)
    }

    /// Coordinates of a cell.
    pub(crate) fn coords(&self, cell: CellId) -> (u32, u32) {
        let x = cell.0 % self.side;
        let y = cell.0 / self.side;
        (x, y)
    }

    /// The canonical "approach" neighbor of a cell: its western neighbor,
    /// wrapping at the border. Used to anchor the enter-cell patterns.
    pub(crate) fn approach_neighbor(&self, cell: CellId) -> CellId {
        let (x, y) = self.coords(cell);
        let nx = if x == 0 { self.side - 1 } else { x - 1 };
        self.cell(nx, y)
    }

    /// Rook-adjacent neighbors (up to 4).
    pub(crate) fn neighbors(&self, cell: CellId) -> Vec<CellId> {
        let (x, y) = self.coords(cell);
        let mut out = Vec::with_capacity(4);
        if x > 0 {
            out.push(self.cell(x - 1, y));
        }
        if x + 1 < self.side {
            out.push(self.cell(x + 1, y));
        }
        if y > 0 {
            out.push(self.cell(x, y - 1));
        }
        if y + 1 < self.side {
            out.push(self.cell(x, y + 1));
        }
        out
    }

    /// One greedy step from `from` toward `to` (Manhattan descent);
    /// returns `from` when already there.
    pub(crate) fn step_toward(&self, from: CellId, to: CellId) -> CellId {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        // move along the axis with the larger remaining distance
        let dx = tx as i64 - fx as i64;
        let dy = ty as i64 - fy as i64;
        if dx == 0 && dy == 0 {
            return from;
        }
        if dx.abs() >= dy.abs() {
            self.cell((fx as i64 + dx.signum()) as u32, fy)
        } else {
            self.cell(fx, (fy as i64 + dy.signum()) as u32)
        }
    }
}

/// Manhattan distance between cells, the yardstick the movement tests
/// measure steps with.
#[cfg(test)]
pub(crate) fn distance(grid: &Grid, a: CellId, b: CellId) -> u32 {
    let (ax, ay) = grid.coords(a);
    let (bx, by) = grid.coords(b);
    ax.abs_diff(bx) + ay.abs_diff(by)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let g = Grid::new(5);
        for y in 0..5 {
            for x in 0..5 {
                let c = g.cell(x, y);
                assert_eq!(g.coords(c), (x, y));
            }
        }
        assert_eq!(g.n_cells(), 25);
    }

    #[test]
    fn approach_neighbor_wraps_west() {
        let g = Grid::new(4);
        assert_eq!(g.approach_neighbor(g.cell(2, 1)), g.cell(1, 1));
        assert_eq!(g.approach_neighbor(g.cell(0, 3)), g.cell(3, 3));
    }

    #[test]
    fn neighbors_at_corner_edge_center() {
        let g = Grid::new(3);
        assert_eq!(g.neighbors(g.cell(0, 0)).len(), 2);
        assert_eq!(g.neighbors(g.cell(1, 0)).len(), 3);
        assert_eq!(g.neighbors(g.cell(1, 1)).len(), 4);
    }

    #[test]
    fn step_toward_descends_distance() {
        let g = Grid::new(8);
        let mut pos = g.cell(0, 0);
        let goal = g.cell(7, 5);
        let mut steps = 0;
        while pos != goal {
            let next = g.step_toward(pos, goal);
            assert_eq!(distance(&g, next, goal) + 1, distance(&g, pos, goal));
            pos = next;
            steps += 1;
            assert!(steps <= 12, "walk too long");
        }
        assert_eq!(steps, 12);
        assert_eq!(g.step_toward(goal, goal), goal);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn out_of_bounds_cell_panics() {
        Grid::new(3).cell(3, 0);
    }
}
