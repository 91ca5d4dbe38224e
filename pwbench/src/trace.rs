//! In-memory spans recorded by the benchmark around its own calls into each layer,
//! the overlap-aware self-time report, and the trace file written at exit.
//!
//! The program under test is not instrumented: every span here wraps a call the
//! benchmark makes — an HTTP exchange with the server, or the in-process mirror's call
//! into `pw_serve::{json,wire}`, `Session`, `CDatabase` or `Engine` on the same input.

use pw_serve::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer-qualified name, e.g. `http.wait` or `session.push_delta`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch (`end >= start`).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to; all spans of one request share it.
    pub request: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// The span recorder.  Spans stay in memory until [`Tracer::to_json`] writes them.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `at` (0 for instants before the epoch).
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span between two instants; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span; returns its result and the span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let index = self.record(name, start, Instant::now(), parent, request);
        (out, index)
    }

    /// Stretch an open span to end now (used for a parent recorded before its
    /// children finish).
    pub fn close(&mut self, index: usize) {
        let now = self.ns(Instant::now());
        let span = &mut self.spans[index];
        span.end = now.max(span.start);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every span plus the per-name self-time report.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Object(vec![
                    ("name".into(), Json::str(s.name)),
                    ("start_ns".into(), Json::Int(s.start as i64)),
                    ("end_ns".into(), Json::Int(s.end as i64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("request".into(), Json::Int(s.request as i64)),
                ])
            })
            .collect();
        let report = self_time_report(&self.spans)
            .into_iter()
            .map(|(name, row)| {
                Json::Object(vec![
                    ("name".into(), Json::str(name)),
                    ("count".into(), Json::Int(row.count as i64)),
                    ("total_ns".into(), Json::Int(row.total_ns as i64)),
                    ("self_ns".into(), Json::Int(row.self_ns as i64)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("self_time".into(), Json::Array(report)),
            ("spans".into(), Json::Array(spans)),
        ])
    }
}

/// Total length covered by a set of half-open intervals, counting overlaps once.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    covered + current.map_or(0, |(s, e)| e - s)
}

/// Each span's self time: its duration minus the part of its interval that its
/// children cover.  Children are clipped to the parent's interval and their overlaps
/// counted once, so concurrent or overrunning children never drive a self time
/// negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (start, end) = (span.start.max(parent.start), span.end.min(parent.end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration() - union_len(kids))
        .collect()
}

/// One row of the self-time report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTimeRow {
    /// Spans with this name.
    pub count: u64,
    /// Their summed durations.
    pub total_ns: u64,
    /// Their summed self times.
    pub self_ns: u64,
}

/// Self time aggregated per span name, in name order.
pub fn self_time_report(spans: &[Span]) -> BTreeMap<&'static str, SelfTimeRow> {
    let mut rows: BTreeMap<&'static str, SelfTimeRow> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let row = rows.entry(span.name).or_default();
        row.count += 1;
        row.total_ns += span.duration();
        row.self_ns += own;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10)]), 10);
        assert_eq!(union_len(&mut [(0, 10), (20, 25)]), 15);
        assert_eq!(union_len(&mut [(5, 15), (0, 10)]), 15);
        assert_eq!(union_len(&mut [(0, 10), (2, 4), (10, 12)]), 12);
        assert_eq!(union_len(&mut [(3, 3), (0, 1)]), 1);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("http", 10, 60, Some(0)),
            span("http.wait", 20, 50, Some(1)),
            // Overlaps the first child of `op`: only the uncovered 60..70 counts again.
            span("mirror", 40, 70, Some(0)),
            // A child overrunning its parent is clipped to it.
            span("json.parse", 65, 90, Some(3)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 60, "op: children cover 10..70");
        assert_eq!(own[1], 50 - 30, "http: wait covers 20..50");
        assert_eq!(own[2], 30, "leaf");
        assert_eq!(own[3], 30 - 5, "mirror: parse clipped to 65..70");
        assert_eq!(own[4], 25, "leaf keeps its own duration");
    }

    #[test]
    fn report_sums_per_name() {
        let spans = vec![
            span("op", 0, 10, None),
            span("leaf", 0, 4, Some(0)),
            span("op", 10, 30, None),
            span("leaf", 12, 20, Some(2)),
        ];
        let report = self_time_report(&spans);
        assert_eq!(
            report["op"],
            SelfTimeRow {
                count: 2,
                total_ns: 30,
                self_ns: 18
            }
        );
        assert_eq!(report["leaf"].self_ns, 12);
        // Self times of a tree add back up to the roots' durations.
        let total_self: u64 = report.values().map(|r| r.self_ns).sum();
        assert_eq!(total_self, 30);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let mut t = Tracer::new();
        let start = Instant::now();
        let root = t.record("op", start, start, None, 7);
        let (v, child) = t.time("leaf", Some(root), 7, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans()[child].parent, Some(root));
        assert!(t.spans()[root].end >= t.spans()[child].end);
        let json = t.to_json();
        assert_eq!(
            json.get("spans").and_then(Json::as_array).map(|a| a.len()),
            Some(2)
        );
    }
}
