//! # `pdp-dp` — differential-privacy primitives
//!
//! The noise machinery shared by the pattern-level PPMs (`pdp-core`) and the
//! non-pattern-level baselines (`pdp-baselines`):
//!
//! * [`budget`] — the validated [`Epsilon`] newtype and a
//!   per-entity spend ledger;
//! * [`rr`] — randomized response on binary indicators, the `ε ↔ p`
//!   conversions of Theorem 1 (`ε = ln((1−p)/p)`, `p = 1/(1+e^ε)`), and the
//!   serial flip composition `p ⊕ q = p + q − 2pq` used for events shared by
//!   overlapping private patterns;
//! * [`laplace`] / [`geometric`] — numeric mechanisms required by the
//!   w-event baselines;
//! * [`composition`] — sequential / parallel / sliding-window (w-event)
//!   budget accounting;
//! * [`rng`] — explicit deterministic seeding so every experiment is
//!   reproducible.

pub mod budget;
pub mod composition;
pub mod error;
pub mod exponential;
pub mod geometric;
pub mod laplace;
pub mod rng;
pub mod rr;

pub use budget::{BudgetLedger, BudgetLedgerSnapshot, EpochLedger, EpochLedgerSnapshot, Epsilon};
pub use composition::{Accountant, CompositionKind, SlidingWindowAccountant};
pub use error::DpError;
pub use exponential::Exponential;
pub use geometric::TwoSidedGeometric;
pub use laplace::Laplace;
pub use rng::DpRng;
pub use rr::{FlipProb, RandomizedResponse};
