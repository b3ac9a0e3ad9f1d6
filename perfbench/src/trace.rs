//! In-memory spans recorded around calls into the engine's layers, their
//! self times, and a JSON-lines dump written once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One timed interval of work: which layer, when, under which span, for
/// which query.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`topbuckets`, `join.reduce`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one query.
    pub query: u64,
}

impl Span {
    /// The span's length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one clock origin.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer timing from `origin`. Tracers that will be merged
    /// share one origin.
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        nanos(self.origin.elapsed())
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: u64) -> usize {
        let start_ns = self.now();
        self.record(name, start_ns, start_ns, parent, query)
    }

    /// Ends an open span now.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Records a span with known bounds — how the map, shuffle and reduce
    /// parts of a Map-Reduce job are laid out from its returned metrics.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        query: u64,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent, query });
        self.spans.len() - 1
    }

    /// The spans recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same origin), re-basing their
    /// parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}",
                s.name, s.start_ns, s.end_ns, s.query
            )?;
        }
        out.flush()
    }
}

/// Saturating nanoseconds of a duration.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once; the parts
/// of a child outside its parent do not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut covered)| {
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in covered {
                let lo = lo.max(reach);
                if hi > lo {
                    union += hi - lo;
                }
                reach = reach.max(hi);
            }
            s.duration_ns().saturating_sub(union)
        })
        .collect()
}

/// Self time per layer name over `range` of the tracer's spans, in
/// milliseconds.
pub fn self_ms_by_name(
    spans: &[Span],
    selfs: &[u64],
    range: std::ops::Range<usize>,
) -> BTreeMap<&'static str, f64> {
    let mut by_name = BTreeMap::new();
    for i in range {
        *by_name.entry(spans[i].name).or_insert(0.0) += selfs[i] as f64 / 1e6;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, query: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("query", 0, 100, None),
            span("topbuckets", 10, 30, Some(0)),
            span("join", 40, 90, Some(0)),
            span("join.reduce", 50, 90, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span("serve", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Covered: [10, 70) and [90, 100) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn self_times_sum_to_the_root_when_children_nest() {
        let spans = [
            span("pass", 0, 1000, None),
            span("query", 0, 600, Some(0)),
            span("merge", 500, 600, Some(1)),
            span("query", 600, 990, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
        let by_name = self_ms_by_name(&spans, &selfs, 0..spans.len());
        assert_eq!(by_name["query"], 890.0 / 1e6);
        assert_eq!(by_name["pass"], 10.0 / 1e6);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.record("x", 0, 1, None, 1);
        let mut b = Tracer::new(origin);
        let root = b.record("y", 0, 5, None, 2);
        b.record("z", 1, 2, Some(root), 2);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
