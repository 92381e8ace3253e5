//! Error type shared by the graph substrate.

use std::fmt;

/// Errors produced while constructing or manipulating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex id referenced an out-of-range vertex.
    InvalidVertex(usize),
    /// Attempted to add a self-loop, which the model forbids.
    SelfLoop(usize),
    /// Attempted to add a duplicate (parallel) edge between the same endpoints.
    DuplicateEdge(usize, usize),
    /// A parse error while reading the text serialization format.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human readable description of what went wrong.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidVertex(v) => write!(f, "invalid vertex id {v}"),
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v} is not allowed"),
            GraphError::DuplicateEdge(u, v) => {
                write!(f, "duplicate edge between vertices {u} and {v}")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(
            GraphError::InvalidVertex(3).to_string(),
            "invalid vertex id 3"
        );
        assert_eq!(
            GraphError::SelfLoop(1).to_string(),
            "self-loop on vertex 1 is not allowed"
        );
        assert_eq!(
            GraphError::DuplicateEdge(0, 2).to_string(),
            "duplicate edge between vertices 0 and 2"
        );
        let e = GraphError::Parse {
            line: 4,
            message: "bad token".into(),
        };
        assert_eq!(e.to_string(), "parse error at line 4: bad token");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&GraphError::InvalidVertex(0));
    }
}
