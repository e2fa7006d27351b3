//! The Taxi workload generator: fleet simulation → indicator windows →
//! private/target patterns.

use pdp_cep::{Pattern, PatternSet};
use pdp_dp::DpRng;
use pdp_stream::{EventType, IndicatorVector, WindowedIndicators};

use super::grid::Grid;
use super::mobility::{Fleet, MobilityConfig};
use super::regions::RegionAssignment;
use crate::workload::Workload;

/// Knobs for the Taxi workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TaxiConfig {
    /// Cells per grid side (universe = side²).
    pub grid_side: u32,
    /// Fleet size. T-Drive has 10,357 taxis; the default is scaled so that
    /// per-cell occupancy stays informative (≈ fleet/cells of the real
    /// data's effective density).
    pub n_taxis: usize,
    /// Number of sampling ticks = evaluation windows.
    pub n_windows: usize,
    /// Mobility model.
    pub mobility: MobilityConfig,
    /// Fraction of cells in the private area (paper: 0.20).
    pub private_frac: f64,
    /// Fraction of cells in the target area (paper: 0.50).
    pub target_frac: f64,
    /// Fraction of the private area folded into the target area
    /// (paper: 0.50).
    pub overlap_frac: f64,
    /// Use length-2 *enter* patterns (`seq(neighbor, cell)`) for the private
    /// area. `false` degrades private patterns to bare presence (length 1),
    /// under which uniform and adaptive coincide exactly.
    pub enter_patterns: bool,
}

impl Default for TaxiConfig {
    fn default() -> Self {
        TaxiConfig {
            grid_side: 16,
            n_taxis: 100,
            n_windows: 300,
            mobility: MobilityConfig::default(),
            private_frac: 0.20,
            target_frac: 0.50,
            overlap_frac: 0.50,
            enter_patterns: true,
        }
    }
}

/// A generated Taxi dataset.
#[derive(Debug, Clone)]
pub struct TaxiDataset {
    /// The evaluation workload.
    pub workload: Workload,
    /// The drawn regions.
    pub regions: RegionAssignment,
}

impl TaxiDataset {
    /// Simulate the fleet and build the workload.
    pub fn generate(config: &TaxiConfig, seed: u64) -> TaxiDataset {
        let mut rng = DpRng::seed_from(seed);
        let grid = Grid::new(config.grid_side);
        let n_cells = grid.n_cells();

        // regions per §VI-A.1
        let regions = RegionAssignment::draw(
            n_cells,
            config.private_frac,
            config.target_frac,
            config.overlap_frac,
            &mut rng,
        );

        // fleet simulation → per-tick occupancy indicators
        let mut fleet = Fleet::spawn(grid, config.n_taxis, config.mobility.clone(), &mut rng);
        let windows: Vec<IndicatorVector> = (0..config.n_windows)
            .map(|_| {
                let positions = fleet.tick(&mut rng);
                IndicatorVector::from_present(
                    positions.into_iter().map(|c| EventType(c.0)),
                    n_cells,
                )
            })
            .collect();

        // patterns: enter-<cell> (private), in-<cell> (target)
        let mut patterns = PatternSet::new();
        let mut private = Vec::with_capacity(regions.private_cells.len());
        for &cell in &regions.private_cells {
            let pattern = if config.enter_patterns {
                let from = grid.approach_neighbor(cell);
                Pattern::seq(
                    &format!("enter-{}", cell.0),
                    vec![EventType(from.0), EventType(cell.0)],
                )
                .expect("two elements")
            } else {
                Pattern::single(&format!("in-priv-{}", cell.0), EventType(cell.0))
            };
            private.push(patterns.insert(pattern));
        }
        let mut target = Vec::with_capacity(regions.target_cells.len());
        for &cell in &regions.target_cells {
            target.push(patterns.insert(Pattern::single(
                &format!("in-{}", cell.0),
                EventType(cell.0),
            )));
        }

        let workload = Workload {
            name: "taxi".into(),
            n_types: n_cells,
            windows: WindowedIndicators::new(windows),
            patterns,
            private,
            target,
        };
        TaxiDataset { workload, regions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TaxiConfig {
        TaxiConfig {
            grid_side: 8,
            n_taxis: 40,
            n_windows: 60,
            ..TaxiConfig::default()
        }
    }

    #[test]
    fn workload_structure_matches_fractions() {
        let d = TaxiDataset::generate(&small(), 1);
        let w = &d.workload;
        assert!(w.validate().is_ok());
        assert_eq!(w.n_types, 64);
        assert_eq!(w.windows.len(), 60);
        assert_eq!(w.private.len(), 13); // 20 % of 64 ≈ 13
        assert_eq!(w.target.len(), 32); // 50 %
        assert_eq!(d.regions.overlap().len(), 7); // 50 % of 13 ≈ 7
    }

    #[test]
    fn enter_patterns_have_length_two() {
        let d = TaxiDataset::generate(&small(), 2);
        for &id in &d.workload.private {
            assert_eq!(d.workload.patterns.get(id).unwrap().len(), 2);
        }
        for &id in &d.workload.target {
            assert_eq!(d.workload.patterns.get(id).unwrap().len(), 1);
        }
    }

    #[test]
    fn presence_patterns_when_disabled() {
        let config = TaxiConfig {
            enter_patterns: false,
            ..small()
        };
        let d = TaxiDataset::generate(&config, 2);
        for &id in &d.workload.private {
            assert_eq!(d.workload.patterns.get(id).unwrap().len(), 1);
        }
    }

    #[test]
    fn occupancy_is_informative() {
        // neither empty nor saturated: some cells occupied, not all
        let d = TaxiDataset::generate(&small(), 3);
        let mut any_present = 0usize;
        let mut total = 0usize;
        for w in d.workload.windows.iter() {
            any_present += w.count_present();
            total += w.n_types();
        }
        let density = any_present as f64 / total as f64;
        assert!(
            (0.05..0.95).contains(&density),
            "degenerate occupancy {density}"
        );
    }

    #[test]
    fn overlapping_targets_exist() {
        let d = TaxiDataset::generate(&small(), 4);
        // cells shared between regions make some target patterns overlap
        // private patterns (they share the cell-presence event type)
        assert!(
            !d.workload.overlapping_targets().is_empty(),
            "evaluation needs target/private overlap"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TaxiDataset::generate(&small(), 9);
        let b = TaxiDataset::generate(&small(), 9);
        assert_eq!(a.workload.windows, b.workload.windows);
        assert_eq!(a.regions, b.regions);
    }
}
