//! Private/target region construction (§VI-A.1).
//!
//! "We randomly select 20 % GPS locations as the private pattern area and
//! assign another 40 % as part of the target pattern area. … we randomly
//! select 50 % of the private pattern area to become target pattern area,
//! which leads to an overall 50 % target pattern area."

use std::collections::BTreeSet;

use pdp_dp::DpRng;

use super::grid::CellId;

/// The drawn private and target areas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionAssignment {
    /// Cells in the private area (paper: 20 % of all cells).
    pub private_cells: Vec<CellId>,
    /// Cells in the target area (paper: 50 % of all cells, half of the
    /// private area included).
    pub target_cells: Vec<CellId>,
}

impl RegionAssignment {
    /// Draw regions for a grid of `n_cells`, with the paper's fractions:
    /// `private_frac` of cells private, `overlap_frac` of those folded into
    /// the target area, and the target area topped up with public cells to
    /// `target_frac` of the grid.
    pub fn draw(
        n_cells: usize,
        private_frac: f64,
        target_frac: f64,
        overlap_frac: f64,
        rng: &mut DpRng,
    ) -> RegionAssignment {
        let n_private = ((n_cells as f64) * private_frac.clamp(0.0, 1.0)).round() as usize;
        let n_target = ((n_cells as f64) * target_frac.clamp(0.0, 1.0)).round() as usize;

        let private_picks = rng.sample_indices(n_cells, n_private.min(n_cells));
        let private_cells: Vec<CellId> = private_picks.iter().map(|&i| CellId(i as u32)).collect();
        let private_set: BTreeSet<usize> = private_picks.iter().copied().collect();

        // fold `overlap_frac` of the private area into the target area
        let n_overlap =
            ((private_cells.len() as f64) * overlap_frac.clamp(0.0, 1.0)).round() as usize;
        let overlap_picks = rng.sample_indices(private_cells.len(), n_overlap);
        let mut target_set: BTreeSet<usize> = overlap_picks
            .iter()
            .map(|&k| private_cells[k].index())
            .collect();

        // top up with public cells
        let mut public: Vec<usize> = (0..n_cells).filter(|i| !private_set.contains(i)).collect();
        rng.shuffle(&mut public);
        for i in public {
            if target_set.len() >= n_target.min(n_cells) {
                break;
            }
            target_set.insert(i);
        }

        RegionAssignment {
            private_cells,
            target_cells: target_set.into_iter().map(|i| CellId(i as u32)).collect(),
        }
    }

    /// Cells that are both private and target.
    pub fn overlap(&self) -> Vec<CellId> {
        let target: BTreeSet<CellId> = self.target_cells.iter().copied().collect();
        self.private_cells
            .iter()
            .copied()
            .filter(|c| target.contains(c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fractions_hold() {
        let mut rng = DpRng::seed_from(5);
        let n = 400;
        let r = RegionAssignment::draw(n, 0.20, 0.50, 0.50, &mut rng);
        assert_eq!(r.private_cells.len(), 80); // 20 %
        assert_eq!(r.target_cells.len(), 200); // 50 %
        assert_eq!(r.overlap().len(), 40); // 50 % of private
    }

    #[test]
    fn all_cells_in_range_and_distinct() {
        let mut rng = DpRng::seed_from(6);
        let r = RegionAssignment::draw(100, 0.20, 0.50, 0.50, &mut rng);
        let distinct: BTreeSet<_> = r.private_cells.iter().collect();
        assert_eq!(distinct.len(), r.private_cells.len());
        assert!(r.private_cells.iter().all(|c| c.index() < 100));
        assert!(r.target_cells.iter().all(|c| c.index() < 100));
    }

    #[test]
    fn zero_overlap_keeps_regions_disjoint() {
        let mut rng = DpRng::seed_from(7);
        let r = RegionAssignment::draw(200, 0.2, 0.5, 0.0, &mut rng);
        assert!(r.overlap().is_empty());
        assert_eq!(r.target_cells.len(), 100);
    }

    #[test]
    fn full_overlap_includes_all_private() {
        let mut rng = DpRng::seed_from(8);
        let r = RegionAssignment::draw(200, 0.2, 0.5, 1.0, &mut rng);
        assert_eq!(r.overlap().len(), r.private_cells.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = DpRng::seed_from(9);
        let mut b = DpRng::seed_from(9);
        assert_eq!(
            RegionAssignment::draw(64, 0.20, 0.50, 0.50, &mut a),
            RegionAssignment::draw(64, 0.20, 0.50, 0.50, &mut b)
        );
    }

    #[test]
    fn target_capped_by_universe() {
        let mut rng = DpRng::seed_from(10);
        let r = RegionAssignment::draw(10, 1.0, 1.0, 1.0, &mut rng);
        assert_eq!(r.private_cells.len(), 10);
        assert_eq!(r.target_cells.len(), 10);
    }
}
