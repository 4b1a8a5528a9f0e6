//! Typed errors of the extraction-service layer.
//!
//! The original seed exposed `Option`-returning induction entry points and
//! infallible extraction; a production pipeline that stores wrappers and
//! replays them across millions of page versions needs to distinguish *why*
//! something failed (bad input sample, broken artifact, stale node id, …).
//! [`InduceError`] covers the induction side, [`ExtractError`] the
//! application side and [`BundleError`] the persistence side; all three
//! implement [`std::error::Error`] and wrap the lower-level
//! [`wi_dom::DomError`] / [`wi_xpath::ParseError`] where appropriate.

use std::fmt;
use wi_dom::{DomError, NodeId};
use wi_xpath::ParseError;

/// Errors raised while inducing a wrapper from annotated samples.
#[derive(Debug, Clone, PartialEq)]
pub enum InduceError {
    /// No sample was supplied.
    NoSamples,
    /// A sample carried an empty target set.
    NoTargets,
    /// An annotated target node is not a live node of its sample document.
    MissingTarget(NodeId),
    /// The induction ran but produced no candidate expression.
    NoWrapperFound,
    /// Value-based target harvesting found none of the given texts on the
    /// page (re-induction from last-known-good extractions has nothing to
    /// annotate).
    EmptyHarvest,
    /// A DOM-level failure while preparing the samples.
    Dom(DomError),
}

impl fmt::Display for InduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InduceError::NoSamples => write!(f, "no samples supplied to the inducer"),
            InduceError::NoTargets => write!(f, "a sample has an empty target set"),
            InduceError::MissingTarget(node) => {
                write!(
                    f,
                    "annotated target {node:?} is not a node of the sample document"
                )
            }
            InduceError::NoWrapperFound => {
                write!(f, "induction produced no candidate expression")
            }
            InduceError::EmptyHarvest => {
                write!(f, "none of the given texts occur on the page")
            }
            InduceError::Dom(e) => write!(f, "DOM error during induction: {e}"),
        }
    }
}

impl std::error::Error for InduceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InduceError::Dom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DomError> for InduceError {
    fn from(e: DomError) -> Self {
        InduceError::Dom(e)
    }
}

/// Errors raised while applying a wrapper to a document.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractError {
    /// The wrapper holds no expression (empty ensemble, empty bundle, …).
    EmptyWrapper,
    /// The evaluation context node is not a live node of the document.
    InvalidContext(NodeId),
    /// A DOM-level failure during evaluation.
    Dom(DomError),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::EmptyWrapper => write!(f, "the wrapper holds no expression"),
            ExtractError::InvalidContext(node) => {
                write!(f, "context {node:?} is not a node of the document")
            }
            ExtractError::Dom(e) => write!(f, "DOM error during extraction: {e}"),
        }
    }
}

impl std::error::Error for ExtractError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExtractError::Dom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DomError> for ExtractError {
    fn from(e: DomError) -> Self {
        ExtractError::Dom(e)
    }
}

/// Errors raised while saving or loading a [`crate::WrapperBundle`].
#[derive(Debug)]
pub enum BundleError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The JSON text is malformed.
    Json {
        /// Byte offset of the problem.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// The JSON is well-formed but not a valid bundle (missing field, wrong
    /// type, …).
    Schema(String),
    /// The bundle was written by an incompatible format version.
    Version {
        /// The version found in the artifact.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// A stored expression failed to parse on decode.
    Query(ParseError),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle I/O error: {e}"),
            BundleError::Json { offset, message } => {
                write!(f, "bundle JSON error at byte {offset}: {message}")
            }
            BundleError::Schema(message) => write!(f, "invalid bundle: {message}"),
            BundleError::Version { found, supported } => {
                write!(
                    f,
                    "bundle format version {found} unsupported (this build reads {supported})"
                )
            }
            BundleError::Query(e) => write!(f, "bundle expression failed to parse: {e}"),
        }
    }
}

impl std::error::Error for BundleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BundleError::Io(e) => Some(e),
            BundleError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> Self {
        BundleError::Io(e)
    }
}

impl From<ParseError> for BundleError {
    fn from(e: ParseError) -> Self {
        BundleError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(InduceError::NoSamples.to_string().contains("no samples"));
        assert!(InduceError::NoWrapperFound
            .to_string()
            .contains("no candidate"));
        assert!(ExtractError::EmptyWrapper
            .to_string()
            .contains("no expression"));
        let v = BundleError::Version {
            found: 9,
            supported: 1,
        };
        assert!(v.to_string().contains('9'));
    }

    #[test]
    fn errors_are_send_sync_error() {
        fn check<T: std::error::Error + Send + Sync>() {}
        check::<InduceError>();
        check::<ExtractError>();
        check::<BundleError>();
    }

    #[test]
    fn sources_are_wired() {
        use std::error::Error;
        let parse = wi_xpath::parse_query("][").unwrap_err();
        assert!(BundleError::Query(parse).source().is_some());
        assert!(ExtractError::EmptyWrapper.source().is_none());
    }
}
