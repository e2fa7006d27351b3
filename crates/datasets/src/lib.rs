//! # `pdp-datasets` — evaluation datasets (§VI-A.1)
//!
//! * [`SyntheticDataset`] — the paper's **Algorithm 2** verbatim: 20 basic
//!   event types with uniform-random natural occurrence probabilities, 1000
//!   windows of independent Bernoulli draws, 20 patterns of 3 events each,
//!   3 private and 5 target;
//! * [`TaxiDataset`] — a **T-Drive substitute**: a trip-based taxi-fleet
//!   simulator on a hotspot grid, one tick per T-Drive sampling interval
//!   (177 s), and the paper's region construction — 20 % of cells
//!   private, half of the private area folded into a 50 % target area;
//! * [`Workload`] — the dataset-independent bundle (windows × indicators,
//!   private patterns, target patterns) every mechanism and experiment
//!   consumes.

mod synthetic;
mod taxi;
mod workload;

pub use synthetic::{SyntheticConfig, SyntheticDataset};
pub use taxi::{CellId, MobilityConfig, RegionAssignment, TaxiConfig, TaxiDataset};
pub use workload::Workload;
