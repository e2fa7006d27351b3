//! Query identity and detection semantics.
//!
//! §V assumes "all answers to the queries are binary", i.e. per window a
//! query answers *detected / not detected*. The queries themselves live in
//! `pdp_core::answer`, answered on the protected view; this module holds
//! the two pieces the CEP layer shares with them: the stable [`QueryId`]
//! answers are keyed by, and the detection [`Semantics`] a detector applies
//! to every pattern.

use std::fmt;

/// Identifier of a registered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueryId(pub u32);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// How a pattern is considered detected within a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Semantics {
    /// Elements must appear in temporal order (general CEP `seq`).
    Ordered,
    /// Elements must all appear, in any order (Algorithm 2's semantics).
    #[default]
    Conjunction,
    /// Elements must appear in temporal order **and** the whole match must
    /// fit inside the given span (CEP's `seq(...) within d`).
    OrderedWithin(pdp_stream::TimeDelta),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_id_displays_with_prefix_and_semantics_default_to_conjunction() {
        assert_eq!(QueryId(2).to_string(), "Q2");
        assert_eq!(Semantics::default(), Semantics::Conjunction);
    }
}
