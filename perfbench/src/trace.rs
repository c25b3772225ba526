//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is one public call: its name, start, end, the span that was open
//! when it began (its parent) and the query it served. Spans stay in memory
//! during the run and are written out when it ends. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover, so nested calls are not counted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: u64,
}

/// Records spans while enabled; when disabled, [`Tracer::span`] only runs
/// the call, so untraced queries pay nothing but a branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` as a span named `name` serving query `query`. Spans opened
    /// inside `f` through the tracer it receives become its children.
    pub fn span<T>(&mut self, name: &'static str, query: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// End every open span now: a call that panicked never closed its own.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for idx in self.open.drain(..) {
            self.spans[idx].end_ns = now;
        }
    }

    /// Total self time per span name, in ms, with the number of spans.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut by_name: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let e = by_name.entry(span.name).or_default();
            e.0 += 1;
            e.1 += ns as f64 / 1e6;
        }
        by_name
    }

    /// The spans as JSON lines, with each span's self time.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"query\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.query, s.start_ns, s.end_ns
            );
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span. Children may overlap each other (calls
/// made from several threads); the union counts shared time once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            for k in &mut kids {
                *k = (k.0.max(s.start_ns), k.1.min(s.end_ns));
            }
            kids.retain(|k| k.1 > k.0);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            total - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            query: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children cover [10, 50) ∪ [40, 70) ∪ [60, 65) = [10, 70): 60 ns.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(40, 70, Some(0)),
            span(60, 65, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = [
            span(100, 200, None),
            span(50, 120, Some(0)),  // only [100, 120) is inside
            span(150, 190, Some(0)), // a child...
            span(160, 170, Some(2)), // ...whose child is not the root's
        ];
        assert_eq!(self_times(&spans), vec![40, 70, 30, 10]);
    }

    #[test]
    fn tracer_nests_and_skips_when_disabled() {
        let mut t = Tracer::new();
        t.span("off", 0, |_| ());
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 42));
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent, s[1].query), ("inner", Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let by_name = t.self_ms_by_name();
        assert_eq!(by_name["outer"].0, 1);
        assert_eq!(t.to_json_lines().lines().count(), 2);
    }
}
