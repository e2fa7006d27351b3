//! Event schemas: declared attribute layouts per event type.
//!
//! The trusted CEP engine of the paper's system model validates that data
//! subjects' raw streams match the declared shape before protection is
//! applied (setup phase, Fig. 2). Schemas are optional — events with no
//! registered schema pass through unchecked.

use std::collections::HashMap;

use crate::error::StreamError;
use crate::event::{AttrValue, Event, EventType};

/// The kind of an attribute, for validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrKind {
    /// Signed integer.
    Int,
    /// Floating point.
    Float,
    /// Text.
    Str,
    /// Boolean.
    Bool,
    /// 2-D location.
    Location,
}

impl AttrKind {
    /// Whether `value` conforms to this kind.
    pub fn matches(self, value: &AttrValue) -> bool {
        matches!(
            (self, value),
            (AttrKind::Int, AttrValue::Int(_))
                | (AttrKind::Float, AttrValue::Float(_))
                | (AttrKind::Str, AttrValue::Str(_))
                | (AttrKind::Bool, AttrValue::Bool(_))
                | (AttrKind::Location, AttrValue::Location(_, _))
        )
    }
}

/// Declared attribute layout for one event type.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSchema {
    /// The event type this schema constrains.
    pub ty: EventType,
    /// Required attributes: `(name, kind)`.
    pub required: Vec<(String, AttrKind)>,
    /// Optional attributes: `(name, kind)` — validated when present.
    pub optional: Vec<(String, AttrKind)>,
}

impl EventSchema {
    /// A schema with no attribute requirements.
    pub fn bare(ty: EventType) -> Self {
        EventSchema {
            ty,
            required: Vec::new(),
            optional: Vec::new(),
        }
    }

    /// Add a required attribute.
    pub fn require(mut self, name: &str, kind: AttrKind) -> Self {
        self.required.push((name.to_owned(), kind));
        self
    }

    /// Add an optional attribute.
    pub fn allow(mut self, name: &str, kind: AttrKind) -> Self {
        self.optional.push((name.to_owned(), kind));
        self
    }

    /// Validate one event against this schema.
    pub fn validate(&self, event: &Event) -> Result<(), StreamError> {
        if event.ty != self.ty {
            return Err(StreamError::SchemaViolation(format!(
                "schema for {} applied to event of type {}",
                self.ty, event.ty
            )));
        }
        for (name, kind) in &self.required {
            match event.attr(name) {
                None => {
                    return Err(StreamError::SchemaViolation(format!(
                        "event {} missing required attribute '{name}'",
                        event.ty
                    )))
                }
                Some(v) if !kind.matches(v) => {
                    return Err(StreamError::SchemaViolation(format!(
                        "attribute '{name}' of {} has wrong kind",
                        event.ty
                    )))
                }
                Some(_) => {}
            }
        }
        for (name, kind) in &self.optional {
            if let Some(v) = event.attr(name) {
                if !kind.matches(v) {
                    return Err(StreamError::SchemaViolation(format!(
                        "optional attribute '{name}' of {} has wrong kind",
                        event.ty
                    )));
                }
            }
        }
        Ok(())
    }
}

/// A set of schemas keyed by event type.
#[derive(Debug, Clone, Default)]
pub struct SchemaRegistry {
    schemas: HashMap<EventType, EventSchema>,
}

impl SchemaRegistry {
    /// An empty registry (everything validates).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a schema.
    pub fn register(&mut self, schema: EventSchema) {
        self.schemas.insert(schema.ty, schema);
    }

    /// The schema for `ty`, if declared.
    pub fn get(&self, ty: EventType) -> Option<&EventSchema> {
        self.schemas.get(&ty)
    }

    /// Validate an event; events without a registered schema pass.
    pub fn validate(&self, event: &Event) -> Result<(), StreamError> {
        match self.schemas.get(&event.ty) {
            Some(s) => s.validate(event),
            None => Ok(()),
        }
    }

    /// Number of registered schemas.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// True if no schemas are registered.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn gps_schema() -> EventSchema {
        EventSchema::bare(EventType(0))
            .require("cell", AttrKind::Location)
            .require("taxi", AttrKind::Int)
            .allow("speed", AttrKind::Float)
    }

    fn gps_event() -> Event {
        Event::new(EventType(0), Timestamp::ZERO)
            .with_attr("cell", AttrValue::Location(1.0, 2.0))
            .with_attr("taxi", AttrValue::Int(42))
    }

    #[test]
    fn valid_event_passes() {
        assert!(gps_schema().validate(&gps_event()).is_ok());
    }

    #[test]
    fn missing_required_attr_fails() {
        let e = Event::new(EventType(0), Timestamp::ZERO)
            .with_attr("cell", AttrValue::Location(1.0, 2.0));
        let err = gps_schema().validate(&e).unwrap_err();
        assert!(err.to_string().contains("taxi"));
    }

    #[test]
    fn wrong_kind_fails() {
        let e = gps_event().with_attr("taxi", AttrValue::Str("not an int".into()));
        assert!(gps_schema().validate(&e).is_err());
    }

    #[test]
    fn optional_attr_validated_when_present() {
        let ok = gps_event().with_attr("speed", AttrValue::Float(13.5));
        assert!(gps_schema().validate(&ok).is_ok());
        let bad = gps_event().with_attr("speed", AttrValue::Bool(true));
        assert!(gps_schema().validate(&bad).is_err());
    }

    #[test]
    fn type_mismatch_fails() {
        let e = Event::new(EventType(9), Timestamp::ZERO);
        assert!(gps_schema().validate(&e).is_err());
    }

    #[test]
    fn registry_passes_unschematised_types() {
        let mut reg = SchemaRegistry::new();
        reg.register(gps_schema());
        assert_eq!(reg.len(), 1);
        let unknown = Event::new(EventType(5), Timestamp::ZERO);
        assert!(reg.validate(&unknown).is_ok());
        assert!(reg.validate(&gps_event()).is_ok());
        let bad = Event::new(EventType(0), Timestamp::ZERO);
        assert!(reg.validate(&bad).is_err());
    }

    #[test]
    fn attr_kind_matrix() {
        assert!(AttrKind::Int.matches(&AttrValue::Int(1)));
        assert!(!AttrKind::Int.matches(&AttrValue::Float(1.0)));
        assert!(AttrKind::Location.matches(&AttrValue::Location(0.0, 0.0)));
        assert!(!AttrKind::Str.matches(&AttrValue::Bool(false)));
    }
}
