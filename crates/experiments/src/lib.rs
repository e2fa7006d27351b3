//! # `pdp-experiments` — the evaluation harness (§VI)
//!
//! Regenerates the paper's results:
//!
//! * [`fig4`] — **Fig. 4**: MRE of the quality metric vs. privacy budget ε
//!   for five mechanisms (uniform, adaptive, BD, BA, landmark) on the Taxi
//!   and synthetic datasets;
//! * [`ablations`] — sensitivity sweeps over α, pattern length, the
//!   private/target overlap fraction, Algorithm 1's step size, and the
//!   w-event window;
//! * [`runner`] — the shared machinery: build a mechanism, protect a
//!   workload, score MRE over seeded trials;
//! * [`streaming`] — the same Fig. 4 cells served by the push-based
//!   [`StreamingEngine`](pdp_core::StreamingEngine): windows replayed as
//!   events, protection applied at window close, identical scores to the
//!   batch runner by construction;
//! * [`sharded`] — the same cells served by the sharded multi-tenant
//!   [`ShardedService`](pdp_core::ShardedService): subject-keyed batched
//!   ingestion, hash partitioning, population-level merge. One shard
//!   reproduces the streaming cells bit for bit; more shards measure the
//!   quality cost of partitioned serving;
//! * [`Summary`] — mean, standard deviation and 95 % CI over
//!   a cell's trials, the figures the `fig4_*.json` files carry.
//!
//! * [`alloc_meter`] — the counting global allocator behind the
//!   `zero_alloc` regression test: turns "steady-state ingest does not
//!   allocate" from a claim into a measured, CI-gated number.
//!
//! The `experiments` binary drives everything and prints the tables
//! recorded in EXPERIMENTS.md.

pub mod ablations;
pub mod alloc_meter;
pub mod fig4;
pub mod runner;
pub mod sharded;
mod stats;
pub mod streaming;

pub use fig4::Fig4Config;
pub use runner::{MechanismSpec, RunConfig};
pub use stats::Summary;
