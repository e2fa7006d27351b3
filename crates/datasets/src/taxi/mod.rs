//! The Taxi dataset: a T-Drive substitute.
//!
//! The paper evaluates on T-Drive [15, 16]: GPS records of 10,357 Beijing
//! taxis sampled every ~177 s (~623 m). The raw traces are not shipped with
//! this repository, so we simulate the part of the data the evaluation
//! actually consumes: per-window *cell-occupancy indicators* over a city
//! grid, produced by a trip-based fleet simulator with hotspot attraction.
//!
//! Region construction follows §VI-A.1 exactly: 20 % of cells are drawn as
//! the **private area**; 50 % of those private cells are folded into the
//! **target area**, which is topped up with public cells until it covers
//! 50 % of the grid.
//!
//! Patterns ("the test on Taxi is based on simple pattern types, i.e., GPS
//! locations only"):
//!
//! * each private cell `c` yields the private pattern *enter-c* =
//!   `seq(neighbor(c), c)` — a taxi moving into the cell (length 2, giving
//!   the adaptive PPM its — small — room to maneuver, matching the paper's
//!   observation that uniform and adaptive nearly coincide on Taxi);
//! * each target cell yields the target pattern *in-c* (presence, length 1).

mod generator;
mod grid;
mod mobility;
mod regions;

pub use generator::{TaxiConfig, TaxiDataset};
pub use grid::CellId;
pub use mobility::MobilityConfig;
pub use regions::RegionAssignment;
