//! Error type for the CEP substrate.

use std::fmt;

/// Errors raised by pattern construction and the detectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CepError {
    /// A pattern was declared with no elements.
    EmptyPattern,
    /// A detector was built or driven with structurally invalid input.
    InvalidQuery(String),
}

impl fmt::Display for CepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CepError::EmptyPattern => write!(f, "pattern must have at least one element"),
            CepError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
        }
    }
}

impl std::error::Error for CepError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(
            CepError::EmptyPattern.to_string(),
            "pattern must have at least one element"
        );
        assert!(CepError::InvalidQuery("bad".into())
            .to_string()
            .contains("bad"));
    }
}
