//! Binary continuous queries.
//!
//! §V assumes "all answers to the queries are binary", i.e. per window a
//! query answers *detected / not detected*. A [`Query`] wraps a boolean
//! expression over registered pattern types, plus the detection
//! [`Semantics`] to apply to each pattern.

use std::fmt;

use crate::error::CepError;
use crate::pattern::{PatternId, PatternSet};

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

/// A boolean expression over pattern detections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryExpr {
    /// The given pattern is detected in the window.
    Pattern(PatternId),
    /// All sub-expressions hold.
    And(Vec<QueryExpr>),
    /// At least one sub-expression holds.
    Or(Vec<QueryExpr>),
    /// The sub-expression does not hold.
    Not(Box<QueryExpr>),
}

impl QueryExpr {
    /// All pattern ids referenced by the expression.
    pub fn referenced_patterns(&self) -> Vec<PatternId> {
        let mut out = Vec::new();
        self.collect_patterns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_patterns(&self, out: &mut Vec<PatternId>) {
        match self {
            QueryExpr::Pattern(id) => out.push(*id),
            QueryExpr::And(xs) | QueryExpr::Or(xs) => {
                for x in xs {
                    x.collect_patterns(out);
                }
            }
            QueryExpr::Not(x) => x.collect_patterns(out),
        }
    }

    /// Evaluate against a detection oracle (`true` = pattern detected).
    pub fn eval<F: Fn(PatternId) -> bool + Copy>(&self, detected: F) -> bool {
        match self {
            QueryExpr::Pattern(id) => detected(*id),
            QueryExpr::And(xs) => xs.iter().all(|x| x.eval(detected)),
            QueryExpr::Or(xs) => xs.iter().any(|x| x.eval(detected)),
            QueryExpr::Not(x) => !x.eval(detected),
        }
    }

    /// Structural validation against a pattern registry.
    pub fn validate(&self, patterns: &PatternSet) -> Result<(), CepError> {
        match self {
            QueryExpr::Pattern(id) => {
                if patterns.get(*id).is_none() {
                    Err(CepError::UnknownPattern(id.0))
                } else {
                    Ok(())
                }
            }
            QueryExpr::And(xs) | QueryExpr::Or(xs) => {
                if xs.is_empty() {
                    return Err(CepError::InvalidQuery(
                        "And/Or must have at least one operand".into(),
                    ));
                }
                xs.iter().try_for_each(|x| x.validate(patterns))
            }
            QueryExpr::Not(x) => x.validate(patterns),
        }
    }
}

/// A registered binary continuous query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Human-readable name.
    pub name: String,
    /// The boolean expression over pattern detections.
    pub expr: QueryExpr,
    /// Detection semantics applied to every referenced pattern.
    pub semantics: Semantics,
}

impl Query {
    /// The common case: "is pattern `id` detected?".
    pub fn pattern(name: &str, id: PatternId, semantics: Semantics) -> Self {
        Query {
            name: name.to_owned(),
            expr: QueryExpr::Pattern(id),
            semantics,
        }
    }

    /// A query with an arbitrary expression.
    pub fn new(name: &str, expr: QueryExpr, semantics: Semantics) -> Self {
        Query {
            name: name.to_owned(),
            expr,
            semantics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use pdp_stream::EventType;

    fn set() -> PatternSet {
        let mut s = PatternSet::new();
        s.insert(Pattern::single("a", EventType(0)));
        s.insert(Pattern::single("b", EventType(1)));
        s
    }

    #[test]
    fn eval_boolean_operators() {
        let expr = QueryExpr::And(vec![
            QueryExpr::Pattern(PatternId(0)),
            QueryExpr::Not(Box::new(QueryExpr::Pattern(PatternId(1)))),
        ]);
        assert!(expr.eval(|id| id == PatternId(0)));
        assert!(!expr.eval(|_| true));
        assert!(!expr.eval(|_| false));

        let or = QueryExpr::Or(vec![
            QueryExpr::Pattern(PatternId(0)),
            QueryExpr::Pattern(PatternId(1)),
        ]);
        assert!(or.eval(|id| id == PatternId(1)));
        assert!(!or.eval(|_| false));
    }

    #[test]
    fn referenced_patterns_deduped_sorted() {
        let expr = QueryExpr::Or(vec![
            QueryExpr::Pattern(PatternId(1)),
            QueryExpr::And(vec![
                QueryExpr::Pattern(PatternId(0)),
                QueryExpr::Pattern(PatternId(1)),
            ]),
        ]);
        assert_eq!(expr.referenced_patterns(), [PatternId(0), PatternId(1)]);
    }

    #[test]
    fn validate_detects_unknown_patterns_and_empty_operands() {
        let patterns = set();
        assert!(QueryExpr::Pattern(PatternId(0)).validate(&patterns).is_ok());
        assert_eq!(
            QueryExpr::Pattern(PatternId(7)).validate(&patterns),
            Err(CepError::UnknownPattern(7))
        );
        assert!(QueryExpr::And(vec![]).validate(&patterns).is_err());
        assert!(QueryExpr::Not(Box::new(QueryExpr::Pattern(PatternId(1))))
            .validate(&patterns)
            .is_ok());
    }

    #[test]
    fn query_constructors() {
        let q = Query::pattern("traffic", PatternId(0), Semantics::Conjunction);
        assert_eq!(q.name, "traffic");
        assert_eq!(q.expr.referenced_patterns(), [PatternId(0)]);
        assert_eq!(q.semantics, Semantics::Conjunction);
        assert_eq!(QueryId(2).to_string(), "Q2");
    }
}
