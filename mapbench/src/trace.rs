//! In-memory span recorder for the traced runner.
//!
//! Each span keeps its name, start and end (nanoseconds since the recorder
//! was created), its parent span and an optional read or batch id. Spans
//! nest through an explicit stack: `begin` opens a child of the innermost
//! open span, `end` closes it. At the end of a run the spans are written as
//! Chrome trace-event JSON (open it in `chrome://tracing` or Perfetto) and
//! summed per name into total and self time, where self time is a span's
//! duration minus the part of it covered by its children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over every span with that name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: Option<u64>) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx`, which must be the innermost open span.
    pub fn end(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, id: Option<u64>, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, id);
        let out = f();
        self.end(s);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span called `name`, in recording order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    pub fn chrome_json(&self) -> String {
        chrome_json(&self.spans)
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span. Children normally nest and do not
/// overlap; the union makes the arithmetic safe when they do.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Chrome trace-event JSON: one complete ("X") event per span, times in
/// microseconds, with the span's parent index and id in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(id) = s.id {
            let _ = write!(out, ",\"id\":{id}");
        }
        out.push_str("}}");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span("read", 0, 100, None),
            span("seed", 10, 30, Some(0)),
            span("chain", 30, 45, Some(0)),
            span("finalize", 50, 90, Some(0)),
            span("extend", 60, 70, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![25, 20, 15, 30, 10]);
        let t = totals(&spans);
        assert_eq!(t["read"].total_ns, 100);
        assert_eq!(t["read"].self_ns, 25);
        assert_eq!(t["finalize"].self_ns, 30);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        // Children [10,30) and [20,50) overlap; [90,120) runs past the parent.
        let spans = vec![
            span("p", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10,50) + [90,100) = 50.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn totals_sum_per_name() {
        let spans = vec![
            span("batch", 0, 100, None),
            span("read", 0, 40, Some(0)),
            span("read", 40, 100, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["read"].count, 2);
        assert_eq!(t["read"].total_ns, 100);
        assert_eq!(t["batch"].self_ns, 0);
    }

    #[test]
    fn recorder_nests_spans_and_exports_chrome_json() {
        let mut r = Recorder::new();
        let outer = r.begin("batch", Some(7));
        let x = r.time("read", Some(3), || 41 + 1);
        r.end(outer);
        assert_eq!(x, 42);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
        let json = r.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"read\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"id\":7"));
    }
}
