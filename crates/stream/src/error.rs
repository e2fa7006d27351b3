//! Error type for the stream substrate.

use std::fmt;

/// Errors raised by stream construction, validation and windowing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// Events were appended out of temporal order.
    OutOfOrder {
        /// Timestamp of the previously appended event.
        last: i64,
        /// Timestamp of the offending event.
        got: i64,
    },
    /// A window specification was invalid (zero length, slide > length, …).
    InvalidWindow(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::OutOfOrder { last, got } => write!(
                f,
                "event appended out of order: last timestamp {last}, got {got}"
            ),
            StreamError::InvalidWindow(msg) => write!(f, "invalid window: {msg}"),
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
        takes_err(StreamError::InvalidWindow("x".into()));
    }
}
