//! Events: the atoms of event streams.
//!
//! §III-A: "Within a data stream S_D, any data tuple of our interest is
//! considered an event." Events carry an interned [`EventType`], a
//! [`Timestamp`] and optional typed attributes
//! (GPS cell, taxi id, sensor reading, …).

use std::fmt;

use crate::time::Timestamp;

/// Interned identifier of an event type (dense, starts at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventType(pub u32);

impl EventType {
    /// The dense index of this type (usable to index indicator vectors).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// A typed attribute value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer payload (ids, counters).
    Int(i64),
    /// Floating-point payload (sensor readings).
    Float(f64),
    /// Text payload.
    Str(String),
    /// Boolean payload.
    Bool(bool),
    /// A 2-D location: `(x, y)` in dataset-specific units (grid cells for
    /// the Taxi simulator).
    Location(f64, f64),
}

impl AttrValue {
    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            AttrValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The location payload, if this is a `Location`.
    pub fn as_location(&self) -> Option<(f64, f64)> {
        match self {
            AttrValue::Location(x, y) => Some((*x, *y)),
            _ => None,
        }
    }
}

/// A single event: `e_i` in the event stream `S_E = (e_1, e_2, …)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Interned type of the event.
    pub ty: EventType,
    /// When the event occurred.
    pub ts: Timestamp,
    /// Named attributes (kept sorted by name for deterministic encoding).
    attrs: Vec<(String, AttrValue)>,
}

impl Event {
    /// A bare event with no attributes.
    pub fn new(ty: EventType, ts: Timestamp) -> Self {
        Event {
            ty,
            ts,
            attrs: Vec::new(),
        }
    }

    /// Builder-style attribute attachment; keeps attributes name-sorted.
    pub fn with_attr(mut self, name: &str, value: AttrValue) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Insert or replace an attribute.
    pub fn set_attr(&mut self, name: &str, value: AttrValue) {
        match self.attrs.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.attrs[i].1 = value,
            Err(i) => self.attrs.insert(i, (name.to_owned(), value)),
        }
    }

    /// Look up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attrs
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.attrs[i].1)
    }

    /// Iterate attributes in name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.attrs.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of attributes.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.ty, self.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev() -> Event {
        Event::new(EventType(3), Timestamp::from_millis(10))
    }

    #[test]
    fn attrs_are_name_sorted_and_replaceable() {
        let e = ev()
            .with_attr("zeta", AttrValue::Int(1))
            .with_attr("alpha", AttrValue::Int(2))
            .with_attr("zeta", AttrValue::Int(9));
        let names: Vec<_> = e.attrs().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(e.attr("zeta").and_then(AttrValue::as_int), Some(9));
        assert_eq!(e.attr_count(), 2);
    }

    #[test]
    fn attr_lookup_misses_return_none() {
        assert!(ev().attr("nope").is_none());
    }

    #[test]
    fn attr_value_accessors_match_variants() {
        assert_eq!(AttrValue::Int(5).as_int(), Some(5));
        assert_eq!(AttrValue::Int(5).as_float(), None);
        assert_eq!(AttrValue::Float(2.5).as_float(), Some(2.5));
        assert_eq!(AttrValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(AttrValue::Bool(true).as_bool(), Some(true));
        assert_eq!(
            AttrValue::Location(1.0, 2.0).as_location(),
            Some((1.0, 2.0))
        );
        assert_eq!(AttrValue::Bool(true).as_location(), None);
    }

    #[test]
    fn event_type_index_matches_id() {
        assert_eq!(EventType(7).index(), 7);
        assert_eq!(EventType(7).to_string(), "E7");
    }

    #[test]
    fn display_shows_type_and_time() {
        assert_eq!(ev().to_string(), "E3@t=10ms");
    }
}
