//! The benchmark-side span log of a traced run.
//!
//! Spans are recorded around the calls into each layer (choosing-metrics §4)
//! and kept in memory until the run ends. A span's *self time* is its
//! duration minus the part of that interval its children cover, so the self
//! time of a `query` span is what no layer accounts for.

use crate::json::Json;

/// One timed interval; times are nanoseconds since the run started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one query.
    pub query: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Append a span and return its index (usable as a later `parent`).
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        query: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            query,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in one pass over the log.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self.self_times_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Json::obj([
                        ("id", Json::Int(id as u64)),
                        ("name", Json::str(s.name.as_str())),
                        ("query", Json::Int(s.query)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as u64))),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        ("self_ns", Json::Int(self_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`. Children
/// may overlap (operators of one query run concurrently), so durations
/// cannot simply be summed.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::default();
        let q = log.push("query", 100, 200, None, 1);
        // Overlapping children cover [110,150]; a disjoint one covers [160,170].
        log.push("a", 110, 140, Some(q), 1);
        log.push("b", 130, 150, Some(q), 1);
        let c = log.push("c", 160, 170, Some(q), 1);
        // A grandchild does not count against the root.
        log.push("d", 162, 168, Some(c), 1);
        let st = log.self_times_ns();
        assert_eq!(st[q], 100 - 40 - 10);
        assert_eq!(st[c], 10 - 6);
        assert_eq!(st[1], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let mut log = SpanLog::default();
        let q = log.push("query", 100, 200, None, 7);
        log.push("early", 50, 120, Some(q), 7);
        log.push("late", 190, 400, Some(q), 7);
        log.push("outside", 300, 310, Some(q), 7);
        assert_eq!(log.self_times_ns()[q], 100 - 20 - 10);
    }

    #[test]
    fn nested_child_inside_a_wider_sibling_is_not_double_counted() {
        let mut log = SpanLog::default();
        let q = log.push("query", 0, 100, None, 1);
        log.push("wide", 10, 90, Some(q), 1);
        log.push("inner", 20, 30, Some(q), 1);
        assert_eq!(log.self_times_ns()[q], 20);
    }

    #[test]
    fn json_carries_every_field() {
        let mut log = SpanLog::default();
        let q = log.push("query", 5, 9, None, 42);
        log.push("core.engine.submit", 5, 6, Some(q), 42);
        let text = log.to_json().render();
        assert!(text.contains(r#""name": "core.engine.submit""#), "{text}");
        assert!(text.contains(r#""parent": 0"#) && text.contains(r#""parent": null"#));
        assert!(text.contains(r#""query": 42"#) && text.contains(r#""self_ns": 3"#));
    }
}
