//! Time intervals: the base tuples of every RTJ collection.

use crate::error::TemporalError;
use std::fmt;

/// Integer timestamp. The paper uses integer endpoints (seconds for the
/// network-traffic dataset); `i64` covers both epoch seconds and
/// micro-benchmark toy ranges.
pub type Timestamp = i64;

/// Largest endpoint magnitude [`Interval::new`] accepts: `2^52`, so the
/// timestamp domain is `[-2^52, 2^52]` (epoch microseconds reach past
/// the year 2100 inside it). Within it every value the engine derives
/// from endpoints is exact: a length is at most `2^53`, so endpoints and
/// lengths convert to the index windows' `f64` coordinates without
/// rounding, and every built-in difference expression — `sparks`'
/// `ȳ − y̲ − 10·(x̄ − x̲)` is the widest, below `11·2^53` — stays far
/// inside `i64`.
pub const MAX_ABS_TIMESTAMP: Timestamp = 1 << 52;

/// A closed interval `[start, end]` with a collection-unique identifier.
///
/// The paper writes the endpoints of `x` as underlined/overlined `x`; here
/// they are [`Interval::start`] and [`Interval::end`]. `end >= start` always
/// holds for values built through [`Interval::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Identifier, unique within its collection.
    pub id: u64,
    /// Start timestamp (inclusive).
    pub start: Timestamp,
    /// End timestamp (inclusive).
    pub end: Timestamp,
}

impl Interval {
    /// Creates an interval, enforcing `end >= start` and that both
    /// endpoints lie in the timestamp domain (see [`MAX_ABS_TIMESTAMP`]).
    pub fn new(id: u64, start: Timestamp, end: Timestamp) -> Result<Self, TemporalError> {
        if end < start {
            return Err(TemporalError::InvalidInterval { id, start, end });
        }
        if start < -MAX_ABS_TIMESTAMP || end > MAX_ABS_TIMESTAMP {
            return Err(TemporalError::TimestampOutOfRange { id, start, end });
        }
        Ok(Interval { id, start, end })
    }

    /// Creates an interval without the ordering and domain checks.
    ///
    /// Reserved for generators that construct endpoints already ordered
    /// and in range; debug builds still assert both invariants.
    #[inline]
    pub fn new_unchecked(id: u64, start: Timestamp, end: Timestamp) -> Self {
        debug_assert!(end >= start, "interval {id}: end {end} < start {start}");
        debug_assert!(
            -MAX_ABS_TIMESTAMP <= start && end <= MAX_ABS_TIMESTAMP,
            "interval {id}: [{start}, {end}] outside the timestamp domain"
        );
        Interval { id, start, end }
    }

    /// Interval length `end - start` (a point interval has length 0).
    #[inline]
    pub fn length(&self) -> i64 {
        self.end - self.start
    }

    /// Whether `t` falls inside the closed interval.
    #[inline]
    pub fn contains_point(&self, t: Timestamp) -> bool {
        self.start <= t && t <= self.end
    }

    /// Whether the two closed intervals share at least one timestamp.
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Parses the plain-text format `id,start,end` used by the collection
    /// reader (one interval per line, as in the paper's ≈113 MB text files).
    pub fn parse_line(line: &str, line_no: usize) -> Result<Self, TemporalError> {
        let mut parts = line.trim().split(',');
        let mut next = |what: &str| {
            parts
                .next()
                .ok_or_else(|| TemporalError::Parse {
                    line: line_no,
                    message: format!("missing field `{what}`"),
                })
                .and_then(|s| {
                    s.trim().parse::<i64>().map_err(|e| TemporalError::Parse {
                        line: line_no,
                        message: format!("field `{what}`: {e}"),
                    })
                })
        };
        let id = next("id")? as u64;
        let start = next("start")?;
        let end = next("end")?;
        if parts.next().is_some() {
            return Err(TemporalError::Parse { line: line_no, message: "trailing fields".into() });
        }
        Interval::new(id, start, end)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{},{}", self.id, self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_enforces_order() {
        assert!(Interval::new(1, 5, 5).is_ok());
        assert!(Interval::new(1, 5, 4).is_err());
        let i = Interval::new(2, 10, 20).unwrap();
        assert_eq!(i.length(), 10);
    }

    #[test]
    fn new_enforces_the_timestamp_domain() {
        let m = MAX_ABS_TIMESTAMP;
        assert!(Interval::new(0, -m, m).is_ok(), "the domain is closed");
        for (start, end) in [(i64::MIN, i64::MAX), (0, m + 1), (-m - 1, 0), (0, i64::MAX)] {
            assert_eq!(
                Interval::new(3, start, end),
                Err(TemporalError::TimestampOutOfRange { id: 3, start, end })
            );
        }
        assert!(Interval::parse_line("1,0,9223372036854775807", 1).is_err());
        let widest = Interval::new(0, -m, m).unwrap();
        assert_eq!(widest.length(), 2 * m);
        assert_eq!(widest.length() as f64 as i64, widest.length(), "lengths are exact f64s");
    }

    #[test]
    fn point_membership() {
        let i = Interval::new(0, 3, 7).unwrap();
        assert!(i.contains_point(3));
        assert!(i.contains_point(7));
        assert!(!i.contains_point(2));
        assert!(!i.contains_point(8));
    }

    #[test]
    fn intersection_is_symmetric_and_closed() {
        let a = Interval::new(0, 0, 10).unwrap();
        let b = Interval::new(1, 10, 20).unwrap();
        let c = Interval::new(2, 11, 12).unwrap();
        assert!(a.intersects(&b) && b.intersects(&a), "touching endpoints intersect");
        assert!(!a.intersects(&c) && !c.intersects(&a));
    }

    #[test]
    fn display_parse_roundtrip() {
        let i = Interval::new(42, -5, 1000).unwrap();
        let parsed = Interval::parse_line(&i.to_string(), 1).unwrap();
        assert_eq!(parsed, i);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Interval::parse_line("1,2", 3).is_err());
        assert!(Interval::parse_line("1,2,3,4", 3).is_err());
        assert!(Interval::parse_line("a,2,3", 3).is_err());
        assert!(Interval::parse_line("1,9,3", 3).is_err(), "end < start");
    }

    #[test]
    fn parse_reports_line_numbers() {
        match Interval::parse_line("nope", 17) {
            Err(TemporalError::Parse { line, .. }) => assert_eq!(line, 17),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
