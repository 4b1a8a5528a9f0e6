//! Error types for the DOM crate.

use std::fmt;

/// Errors raised while building or parsing documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomError {
    /// The HTML/XML input could not be parsed.
    Parse {
        /// Byte offset in the input where the error was detected.
        offset: usize,
        /// Human readable description of the problem.
        message: String,
    },
    /// The builder was asked to close an element but no element is open.
    BuilderUnderflow,
    /// The builder finished while elements were still open.
    BuilderUnclosed(usize),
}

impl fmt::Display for DomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            DomError::BuilderUnderflow => {
                write!(f, "close_element called with no element open")
            }
            DomError::BuilderUnclosed(n) => {
                write!(f, "builder finished with {n} unclosed element(s)")
            }
        }
    }
}

impl std::error::Error for DomError {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DomError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DomError::Parse {
            offset: 12,
            message: "unexpected '<'".into(),
        };
        assert!(e.to_string().contains("byte 12"));
        assert!(e.to_string().contains("unexpected"));
        assert!(DomError::BuilderUnclosed(2).to_string().contains('2'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DomError>();
    }
}
