//! # `pdp-dp` — differential-privacy primitives
//!
//! The noise machinery shared by the pattern-level PPMs (`pdp-core`) and the
//! non-pattern-level baselines (`pdp-baselines`):
//!
//! * [`Epsilon`] — the validated budget newtype, with the per-entity spend
//!   ledgers [`BudgetLedger`] and [`EpochLedger`];
//! * [`RandomizedResponse`] / [`FlipProb`] — randomized response on binary
//!   indicators, the `ε ↔ p` conversions of Theorem 1
//!   (`ε = ln((1−p)/p)`, `p = 1/(1+e^ε)`), and the serial flip composition
//!   `p ⊕ q = p + q − 2pq` used for events shared by overlapping private
//!   patterns;
//! * [`Laplace`] — the numeric mechanism the w-event baselines need, and
//!   [`Exponential`] for noisy selection;
//! * [`SlidingWindowAccountant`] — sliding-window (w-event) budget
//!   accounting;
//! * [`DpRng`] — explicit deterministic seeding so every experiment is
//!   reproducible.

mod budget;
mod composition;
mod error;
mod exponential;
mod laplace;
mod rng;
mod rr;

pub use budget::{BudgetLedger, BudgetLedgerSnapshot, EpochLedger, EpochLedgerSnapshot, Epsilon};
pub use composition::SlidingWindowAccountant;
pub use error::DpError;
pub use exponential::Exponential;
pub use laplace::Laplace;
pub use rng::DpRng;
pub use rr::{FlipProb, RandomizedResponse};
