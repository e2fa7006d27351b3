//! Trip-based fleet mobility with hotspot attraction.
//!
//! Each taxi repeatedly: picks a destination (hotspots are favoured — taxi
//! demand concentrates around stations, malls, hospitals), walks one cell
//! per sampling tick toward it (with occasional detours), dwells briefly on
//! arrival, then picks the next trip. One tick corresponds to T-Drive's
//! ~177 s sampling interval.

use pdp_dp::DpRng;

use super::grid::{CellId, Grid};

/// Mobility model knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityConfig {
    /// Number of hotspot cells.
    pub n_hotspots: usize,
    /// Probability that a new destination is a hotspot (vs uniform cell).
    pub hotspot_bias: f64,
    /// Probability of a random detour step instead of the greedy step.
    pub detour_prob: f64,
    /// Ticks a taxi dwells after arriving.
    pub dwell_ticks: u32,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            n_hotspots: 6,
            hotspot_bias: 0.7,
            detour_prob: 0.15,
            dwell_ticks: 2,
        }
    }
}

#[derive(Debug, Clone)]
struct Taxi {
    position: CellId,
    destination: CellId,
    dwell: u32,
}

/// A simulated fleet advancing in lock-step ticks.
#[derive(Debug, Clone)]
pub(crate) struct Fleet {
    grid: Grid,
    config: MobilityConfig,
    hotspots: Vec<CellId>,
    taxis: Vec<Taxi>,
}

impl Fleet {
    /// Spawn `n_taxis` at random cells with random initial destinations.
    pub(crate) fn spawn(
        grid: Grid,
        n_taxis: usize,
        config: MobilityConfig,
        rng: &mut DpRng,
    ) -> Fleet {
        let hotspots: Vec<CellId> = rng
            .sample_indices(grid.n_cells(), config.n_hotspots.min(grid.n_cells()))
            .into_iter()
            .map(|i| CellId(i as u32))
            .collect();
        let mut fleet = Fleet {
            grid,
            config,
            hotspots,
            taxis: Vec::with_capacity(n_taxis),
        };
        for _ in 0..n_taxis {
            let position = CellId(rng.below(grid.n_cells()) as u32);
            let destination = fleet.pick_destination(rng);
            fleet.taxis.push(Taxi {
                position,
                destination,
                dwell: 0,
            });
        }
        fleet
    }

    fn pick_destination(&self, rng: &mut DpRng) -> CellId {
        if !self.hotspots.is_empty() && rng.bernoulli(self.config.hotspot_bias) {
            self.hotspots[rng.below(self.hotspots.len())]
        } else {
            CellId(rng.below(self.grid.n_cells()) as u32)
        }
    }

    /// Advance one sampling tick; returns each taxi's cell after the move.
    pub(crate) fn tick(&mut self, rng: &mut DpRng) -> Vec<CellId> {
        let grid = self.grid;
        let detour_prob = self.config.detour_prob;
        let dwell_ticks = self.config.dwell_ticks;
        let mut new_destinations: Vec<(usize, CellId)> = Vec::new();
        for (i, taxi) in self.taxis.iter_mut().enumerate() {
            if taxi.dwell > 0 {
                taxi.dwell -= 1;
                continue;
            }
            if taxi.position == taxi.destination {
                taxi.dwell = dwell_ticks;
                new_destinations.push((i, CellId(0))); // placeholder, fixed below
                continue;
            }
            taxi.position = if rng.bernoulli(detour_prob) {
                let ns = grid.neighbors(taxi.position);
                ns[rng.below(ns.len())]
            } else {
                grid.step_toward(taxi.position, taxi.destination)
            };
        }
        // assign new destinations outside the borrow of `taxis`
        for (i, _) in new_destinations {
            let dest = self.pick_destination(rng);
            self.taxis[i].destination = dest;
        }
        self.positions()
    }

    /// Current positions of all taxis.
    pub(crate) fn positions(&self) -> Vec<CellId> {
        self.taxis.iter().map(|t| t.position).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxi::grid::distance;

    fn fleet(n: usize, seed: u64) -> (Fleet, DpRng) {
        let mut rng = DpRng::seed_from(seed);
        let f = Fleet::spawn(Grid::new(8), n, MobilityConfig::default(), &mut rng);
        (f, rng)
    }

    #[test]
    fn spawn_places_all_taxis_on_grid() {
        let (f, _) = fleet(50, 1);
        assert_eq!(f.positions().len(), 50);
        for p in f.positions() {
            assert!(p.index() < 64);
        }
        assert_eq!(f.hotspots.len(), 6);
    }

    #[test]
    fn ticks_move_at_most_one_step() {
        let (mut f, mut rng) = fleet(30, 2);
        let grid = Grid::new(8);
        let before = f.positions();
        let after = f.tick(&mut rng);
        for (b, a) in before.iter().zip(&after) {
            assert!(distance(&grid, *b, *a) <= 1, "taxi jumped {b:?}→{a:?}");
        }
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let (mut f1, mut r1) = fleet(20, 7);
        let (mut f2, mut r2) = fleet(20, 7);
        for _ in 0..25 {
            assert_eq!(f1.tick(&mut r1), f2.tick(&mut r2));
        }
    }

    #[test]
    fn hotspots_attract_traffic() {
        let (mut f, mut rng) = fleet(100, 3);
        let mut hotspot_visits = 0usize;
        let mut total = 0usize;
        let hotspots: std::collections::BTreeSet<CellId> = f.hotspots.iter().copied().collect();
        for _ in 0..200 {
            for p in f.tick(&mut rng) {
                total += 1;
                if hotspots.contains(&p) {
                    hotspot_visits += 1;
                }
            }
        }
        let rate = hotspot_visits as f64 / total as f64;
        let uniform_rate = hotspots.len() as f64 / 64.0;
        assert!(
            rate > uniform_rate * 1.5,
            "hotspot visit rate {rate} not above uniform {uniform_rate}"
        );
    }

    #[test]
    fn dwelling_taxis_stay_put() {
        let mut rng = DpRng::seed_from(9);
        let grid = Grid::new(4);
        let mut f = Fleet::spawn(
            grid,
            5,
            MobilityConfig {
                dwell_ticks: 3,
                detour_prob: 0.0,
                ..MobilityConfig::default()
            },
            &mut rng,
        );
        // run long enough that some taxi arrives and dwells
        let mut stationary_seen = false;
        let mut prev = f.positions();
        for _ in 0..50 {
            let cur = f.tick(&mut rng);
            if prev == cur {
                stationary_seen = true;
            }
            prev = cur;
        }
        assert!(stationary_seen, "no dwell observed in 50 ticks");
    }
}
