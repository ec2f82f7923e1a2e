//! Error types shared across the workspace.

use std::fmt;

/// Workspace-wide error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QError {
    /// A referenced table / index / file does not exist.
    NotFound(String),
    /// Storage-layer failure (page bounds, codec, etc.).
    Storage(String),
    /// Plan validation failure (bad column index, type mismatch...).
    Plan(String),
    /// Execution-time failure.
    Exec(String),
    /// Query was cancelled (e.g. its subtree was replaced by a satellite
    /// attach and the cancellation raced with result consumption).
    Cancelled,
    /// Refused by the admission controller (waiting room full) — the query
    /// never executed; resubmit when load drops.
    Admission(String),
}

impl fmt::Display for QError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QError::NotFound(s) => write!(f, "not found: {s}"),
            QError::Storage(s) => write!(f, "storage error: {s}"),
            QError::Plan(s) => write!(f, "plan error: {s}"),
            QError::Exec(s) => write!(f, "execution error: {s}"),
            QError::Cancelled => write!(f, "query cancelled"),
            QError::Admission(s) => write!(f, "admission refused: {s}"),
        }
    }
}

impl std::error::Error for QError {}

/// Workspace-wide result alias.
pub type QResult<T> = Result<T, QError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(QError::NotFound("t".into()).to_string(), "not found: t");
        assert_eq!(QError::Cancelled.to_string(), "query cancelled");
    }
}
