//! # `pdp-datasets` — evaluation datasets (§VI-A.1)
//!
//! * [`synthetic`] — the paper's **Algorithm 2** verbatim: 20 basic event
//!   types with uniform-random natural occurrence probabilities, 1000
//!   windows of independent Bernoulli draws, 20 patterns of 3 events each,
//!   3 private and 5 target;
//! * [`taxi`] — a **T-Drive substitute** (see DESIGN.md §3): a trip-based
//!   taxi-fleet simulator on a hotspot grid with the T-Drive sampling
//!   interval (177 s), and the paper's region construction — 20 % of cells
//!   private, half of the private area folded into a 50 % target area;
//! * [`workload`] — the dataset-independent bundle (windows × indicators,
//!   private patterns, target patterns) every mechanism and experiment
//!   consumes.

pub mod synthetic;
pub mod taxi;
pub mod workload;

pub use synthetic::{SyntheticConfig, SyntheticDataset};
pub use taxi::{TaxiConfig, TaxiDataset};
pub use workload::Workload;
