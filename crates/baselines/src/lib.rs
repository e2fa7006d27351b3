//! # `pdp-baselines` — non-pattern-level PPM baselines (§VI-A.2)
//!
//! The comparison mechanisms of the paper's evaluation, re-implemented from
//! their original papers:
//!
//! * [`BudgetDistributionMechanism`] — **Budget Distribution** (w-event
//!   DP, Kellaris et al. VLDB'14): half the budget funds per-timestamp
//!   dissimilarity tests, half funds publications with exponentially
//!   decaying shares;
//! * [`BudgetAbsorption`] — **Budget Absorption** (same paper): uniform
//!   pre-allocation, skipped timestamps' budgets absorbed by the next
//!   publication;
//! * [`LandmarkPrivacy`] — **Landmark Privacy** (Katsomallos et al.
//!   CODASPY'22): timestamps carrying private-pattern events are
//!   landmarks; *all* events at landmark timestamps are perturbed;
//! * [`FullStreamRr`] — whole-stream randomized response (ablation reference);
//! * [`conversion`] — budget conversion to pattern-level ε, "achieved by
//!   aggregating the original privacy budgets related to the predefined
//!   private pattern types".
//!
//! All baselines implement [`pdp_core::Mechanism`], so the experiment
//! harness sweeps them interchangeably with the pattern-level PPMs.

mod ba;
mod bd;
pub mod conversion;
mod event_level;
mod full_rr;
mod landmark;
mod user_level;

pub use ba::BudgetAbsorption;
pub use bd::BudgetDistributionMechanism;
pub use conversion::{convert_budget, ConversionPolicy};
pub use event_level::EventLevelRr;
pub use full_rr::FullStreamRr;
pub use landmark::LandmarkPrivacy;
pub use user_level::UserLevelRr;
