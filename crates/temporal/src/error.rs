//! Error type shared by the temporal data model.

use std::fmt;

/// Errors produced while constructing or parsing temporal-model values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemporalError {
    /// An interval with `end < start` (intervals are closed and ordered).
    InvalidInterval { id: u64, start: i64, end: i64 },
    /// An interval with an endpoint outside the timestamp domain
    /// `[-MAX_ABS_TIMESTAMP, MAX_ABS_TIMESTAMP]`
    /// ([`crate::interval::MAX_ABS_TIMESTAMP`]).
    TimestampOutOfRange { id: u64, start: i64, end: i64 },
    /// An operation that requires a non-empty collection received an empty one.
    EmptyCollection,
    /// A structurally invalid RTJ query (disconnected, anti-parallel edge, …).
    InvalidQuery(String),
    /// A malformed line in the plain-text collection format.
    Parse { line: usize, message: String },
    /// Invalid partitioning parameters (zero granules or non-positive width).
    InvalidPartitioning(String),
}

impl fmt::Display for TemporalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalError::InvalidInterval { id, start, end } => {
                write!(f, "interval {id} has end {end} < start {start}")
            }
            TemporalError::TimestampOutOfRange { id, start, end } => write!(
                f,
                "interval {id} [{start}, {end}] leaves the timestamp domain ±{}",
                crate::interval::MAX_ABS_TIMESTAMP
            ),
            TemporalError::EmptyCollection => write!(f, "collection is empty"),
            TemporalError::InvalidQuery(msg) => write!(f, "invalid RTJ query: {msg}"),
            TemporalError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            TemporalError::InvalidPartitioning(msg) => {
                write!(f, "invalid time partitioning: {msg}")
            }
        }
    }
}

impl std::error::Error for TemporalError {}

/// Error returned when parsing a configuration variant name fails.
/// Carries the offending input and the accepted names.
///
/// Lives in the base crate so every layer that exposes a `FromStr`
/// registry knob — the engine's strategy/backend/policy knobs in
/// `tkij_core::config` as well as the index crate's sweep-scan kind —
/// reports parse failures through one shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVariantError {
    /// What was being parsed ("strategy", "backend", "policy", …).
    pub what: &'static str,
    /// The rejected input.
    pub input: String,
    /// The accepted names.
    pub expected: &'static [&'static str],
}

impl fmt::Display for ParseVariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} {:?} (expected one of: {})",
            self.what,
            self.input,
            self.expected.join(", ")
        )
    }
}

impl std::error::Error for ParseVariantError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TemporalError::InvalidInterval { id: 7, start: 10, end: 3 };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains("10") && s.contains('3'));
        assert!(TemporalError::EmptyCollection.to_string().contains("empty"));
        let q = TemporalError::InvalidQuery("loop".into());
        assert!(q.to_string().contains("loop"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(TemporalError::EmptyCollection);
    }
}
