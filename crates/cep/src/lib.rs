//! # `pdp-cep` — complex event processing substrate
//!
//! The CEP layer of the paper's system model (§III): patterns over event
//! streams, the pattern-type/pattern-instance distinction (Def. 2), and
//! detectors that turn an event stream `S_E` into a pattern stream `S_P`
//! (Fig. 1). Consumer queries and their binary per-window answers are
//! served on the *protected* view by `pdp_core::answer`; this crate only
//! supplies the stable [`QueryId`] they are keyed by.
//!
//! Two detection semantics are supported, because the paper uses both:
//!
//! * **ordered sequence** (`seq(e₁, …, eₘ)`): the NFA matcher requires the
//!   elements in temporal order within a window — the general CEP case;
//! * **conjunction** (`all(e₁, …, eₘ)`): a pattern is detected in a window
//!   iff every element occurs in it, regardless of order — exactly the
//!   semantics of the paper's synthetic benchmark (Algorithm 2: "If all
//!   three events are contained in one Lm, then their corresponding pattern
//!   is regarded as being detected").
//!
//! [`IncrementalDetector`] is the online form the release path runs;
//! [`Detector`] is the batch reference it is checked against.

mod compile;
mod detector;
mod error;
mod incremental;
mod matcher;
mod nfa;
mod pattern;
mod query;

pub use detector::{DetectionTable, Detector};
pub use error::CepError;
pub use incremental::{ClosedWindow, DetectorSnapshot, IncrementalDetector, PreparedPatternSwap};
pub use matcher::match_indicator;

pub use pattern::{Pattern, PatternId, PatternSet};
pub use query::{QueryId, Semantics};
