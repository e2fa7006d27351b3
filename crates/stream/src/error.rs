//! Error type for the stream substrate.

use std::fmt;

/// Errors raised by stream construction, validation and windowing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// An event carried a type id that is not registered.
    UnknownEventType(u32),
    /// Events were appended out of temporal order.
    OutOfOrder {
        /// Timestamp of the previously appended event.
        last: i64,
        /// Timestamp of the offending event.
        got: i64,
    },
    /// A window specification was invalid (zero length, slide > length, …).
    InvalidWindow(String),
    /// An event failed schema validation.
    SchemaViolation(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnknownEventType(id) => {
                write!(f, "unknown event type id {id}")
            }
            StreamError::OutOfOrder { last, got } => write!(
                f,
                "event appended out of order: last timestamp {last}, got {got}"
            ),
            StreamError::InvalidWindow(msg) => write!(f, "invalid window: {msg}"),
            StreamError::SchemaViolation(msg) => write!(f, "schema violation: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            StreamError::UnknownEventType(7).to_string(),
            "unknown event type id 7"
        );
        assert_eq!(
            StreamError::OutOfOrder { last: 5, got: 3 }.to_string(),
            "event appended out of order: last timestamp 5, got 3"
        );
        assert!(StreamError::InvalidWindow("len=0".into())
            .to_string()
            .contains("len=0"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(StreamError::SchemaViolation("x".into()));
    }
}
