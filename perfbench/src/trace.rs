//! The bench's own host-time spans, kept in memory and written out at
//! exit. A span's self time is its duration minus the time its direct
//! children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use qram_telemetry::host_wall;

/// One host-time span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer entry point or phase the span covers.
    pub name: &'static str,
    /// Host ns since the tracer's origin.
    pub start_ns: u64,
    /// Host ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offer index the span served, when it served one.
    pub request: Option<u64>,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with the name.
    pub count: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: host_wall(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The tracer's clock origin, for callers that time calls themselves.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Host ns since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span nested under the innermost open one.
    pub fn open(&mut self, name: &'static str, request: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-timed span under `parent`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        (start_ns, end_ns): (u64, u64),
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Count and total self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.self_ns += (span.end_ns - span.start_ns).saturating_sub(children);
        }
        totals
    }

    /// The spans as JSON lines: one object per span, in start order.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new();
        let root = t.record("root", None, None, (0, 100));
        t.record("child", Some(root), Some(1), (10, 40));
        t.record("child", Some(root), Some(2), (50, 60));
        let totals = t.totals();
        assert_eq!(totals["root"].self_ns, 60);
        assert_eq!(totals["child"].count, 2);
        assert_eq!(totals["child"].self_ns, 40);
    }
}
