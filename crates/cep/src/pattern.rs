//! Patterns: temporally ordered combinations of events (§III-A).
//!
//! A [`Pattern`] here is a pattern *type* in the sense of Def. 2 — the
//! specification "seq(e₁, …, eₘ)" that a query identifies — not a concrete
//! instance. Instances are what the detectors report per window (see
//! [`crate::detector`] and [`crate::incremental`]). Higher-level patterns built from lower-level
//! ones are flattened to a single event sequence, as the paper prescribes:
//! "any pattern can always be written in the form of a sequence of events".

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use pdp_stream::EventType;

use crate::error::CepError;

/// Identifier of a registered pattern type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PatternId(pub u32);

impl fmt::Display for PatternId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A pattern type: a sequence of event types `seq(e₁, …, eₘ)`.
///
/// The same event type may appear more than once (e.g. "two GPS fixes in
/// the same cell"), so elements form a sequence, not a set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    elements: Vec<EventType>,
    name: String,
}

impl Pattern {
    /// Build `seq(elements…)`; at least one element is required.
    pub fn seq(name: &str, elements: Vec<EventType>) -> Result<Self, CepError> {
        if elements.is_empty() {
            return Err(CepError::EmptyPattern);
        }
        Ok(Pattern {
            elements,
            name: name.to_owned(),
        })
    }

    /// The simplest pattern: a single event (the paper: "the simplest
    /// pattern P is an event").
    pub fn single(name: &str, element: EventType) -> Self {
        Pattern {
            elements: vec![element],
            name: name.to_owned(),
        }
    }

    /// Flatten several lower-level patterns into one higher-level pattern by
    /// concatenating their event sequences in order.
    pub fn compose(name: &str, parts: &[&Pattern]) -> Result<Self, CepError> {
        let elements: Vec<EventType> = parts
            .iter()
            .flat_map(|p| p.elements.iter().copied())
            .collect();
        Pattern::seq(name, elements)
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered event-type elements.
    pub fn elements(&self) -> &[EventType] {
        &self.elements
    }

    /// Pattern length `m`.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Patterns are never empty, but the conventional pair is provided.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The *distinct* event types appearing in this pattern.
    pub fn distinct_types(&self) -> BTreeSet<EventType> {
        self.elements.iter().copied().collect()
    }

    /// Precompile the distinct types into a bit-packed mask over a
    /// universe of `n_types` — the setup-phase form consumed by
    /// [`TypeMask::matches`](pdp_stream::TypeMask::matches) so releases
    /// match without walking the pattern.
    pub fn type_mask(&self, n_types: usize) -> pdp_stream::TypeMask {
        pdp_stream::TypeMask::from_types(self.elements.iter().copied(), n_types)
    }

    /// True if `ty` is an element of this pattern (`eᵢ ∈ P`).
    pub fn contains(&self, ty: EventType) -> bool {
        self.elements.contains(&ty)
    }

    /// True if the two patterns share at least one event type — the paper's
    /// *overlapping patterns* ("If Pi ≠ Pj, they could also contain the same
    /// events … we define these patterns as overlapping patterns").
    pub fn overlaps(&self, other: &Pattern) -> bool {
        let mine = self.distinct_types();
        other.elements.iter().any(|t| mine.contains(t))
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = seq(", self.name)?;
        for (i, e) in self.elements.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// A registry of pattern types with stable ids.
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    patterns: Vec<Pattern>,
    by_type: HashMap<EventType, Vec<PatternId>>,
}

/// Equality is over the registered patterns in id order; the `by_type`
/// index is derived state and never diverges.
impl PartialEq for PatternSet {
    fn eq(&self, other: &Self) -> bool {
        self.patterns == other.patterns
    }
}

impl PatternSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a pattern, returning its id.
    pub fn insert(&mut self, pattern: Pattern) -> PatternId {
        let id = PatternId(self.patterns.len() as u32);
        for ty in pattern.distinct_types() {
            self.by_type.entry(ty).or_default().push(id);
        }
        self.patterns.push(pattern);
        id
    }

    /// Look up a pattern by id.
    pub fn get(&self, id: PatternId) -> Option<&Pattern> {
        self.patterns.get(id.0 as usize)
    }

    /// Number of registered patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if no patterns are registered.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Iterate `(id, pattern)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (PatternId, &Pattern)> {
        self.patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (PatternId(i as u32), p))
    }

    /// Ids of patterns containing event type `ty`.
    pub fn containing(&self, ty: EventType) -> &[PatternId] {
        self.by_type.get(&ty).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    #[test]
    fn seq_requires_elements() {
        assert_eq!(
            Pattern::seq("p", vec![]).unwrap_err(),
            CepError::EmptyPattern
        );
        assert_eq!(Pattern::seq("p", vec![t(0)]).unwrap().len(), 1);
    }

    #[test]
    fn single_is_length_one() {
        let p = Pattern::single("loc", t(4));
        assert_eq!(p.len(), 1);
        assert!(p.contains(t(4)));
        assert!(!p.contains(t(5)));
    }

    #[test]
    fn compose_flattens_in_order() {
        let a = Pattern::seq("a", vec![t(0), t(1)]).unwrap();
        let b = Pattern::seq("b", vec![t(2)]).unwrap();
        let c = Pattern::compose("c", &[&a, &b]).unwrap();
        assert_eq!(c.elements(), &[t(0), t(1), t(2)]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn repeated_elements_allowed_and_distinct_dedups() {
        let p = Pattern::seq("p", vec![t(1), t(1), t(2)]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.distinct_types().len(), 2);
    }

    #[test]
    fn overlap_detection() {
        let a = Pattern::seq("a", vec![t(0), t(1)]).unwrap();
        let b = Pattern::seq("b", vec![t(1), t(2)]).unwrap();
        let c = Pattern::seq("c", vec![t(3)]).unwrap();
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn display_shows_sequence() {
        let p = Pattern::seq("trip", vec![t(0), t(2)]).unwrap();
        assert_eq!(p.to_string(), "trip = seq(E0, E2)");
        assert_eq!(PatternId(3).to_string(), "P3");
    }

    #[test]
    fn set_indexes_by_type() {
        let mut set = PatternSet::new();
        let a = set.insert(Pattern::seq("a", vec![t(0), t(1)]).unwrap());
        let b = set.insert(Pattern::seq("b", vec![t(1), t(2)]).unwrap());
        assert_eq!(set.len(), 2);
        assert_eq!(set.containing(t(1)), &[a, b]);
        assert_eq!(set.containing(t(0)), &[a]);
        assert!(set.containing(t(9)).is_empty());
        assert_eq!(set.get(a).unwrap().name(), "a");
        assert!(set.get(PatternId(9)).is_none());
    }

    #[test]
    fn iter_yields_registration_order() {
        let mut set = PatternSet::new();
        set.insert(Pattern::single("x", t(0)));
        set.insert(Pattern::single("y", t(1)));
        let names: Vec<&str> = set.iter().map(|(_, p)| p.name()).collect();
        assert_eq!(names, ["x", "y"]);
    }
}
