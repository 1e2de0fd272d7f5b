//! In-memory spans around the public layer calls of the traced run.
//!
//! A span records its name, start, end, parent span and the op it belongs
//! to; the spans of one op share an op id. Nothing is written until the
//! run ends ([`Spans::to_json`]). A layer's self time is its spans'
//! durations minus the parts covered by their child spans.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// `jir.parse` → `jir`: the crate (layer) a span is charged to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new op: later spans carry its id until the next call.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`, and how many distinct
    /// ops made such a call.
    pub fn total(&self, name: &str) -> (u64, usize) {
        let mut ops = std::collections::BTreeSet::new();
        let mut ns = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.dur_ns();
            ops.insert(s.op);
        }
        (ns, ops.len())
    }

    /// Wall time of the span `idx` (an op's root span, say).
    pub fn dur(&self, idx: usize) -> u64 {
        self.spans[idx].dur_ns()
    }

    /// Index of the most recently closed top-level span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans
            .iter()
            .rposition(|s| s.name == name && s.parent.is_none())
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"schema\":\"perfbench-spans/1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time per layer in nanoseconds: each span's duration minus the
/// durations of its direct children, summed by the span's layer over the
/// spans `keep` selects. Parent and children share an op, so selecting
/// by op keeps every span's children.
pub fn self_times(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<String, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns).filter(|(s, _)| keep(s)) {
        *out.entry(s.layer().to_owned()).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_owned(),
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0, 100) ⊃ engine [10, 70) ⊃ core [20, 30); jir [70, 90).
        let spans = vec![
            span("op.analyze", None, 0, 100),
            span("engine.analyze_library", Some(0), 10, 70),
            span("core.diff_libraries", Some(1), 20, 30),
            span("jir.parse", Some(0), 70, 90),
        ];
        let st = self_times(&spans, |_| true);
        assert!(self_times(&spans, |s| s.op != 1).is_empty());
        assert_eq!(st["op"], 100 - 60 - 20);
        assert_eq!(st["engine"], 60 - 10);
        assert_eq!(st["core"], 10);
        assert_eq!(st["jir"], 20);
        assert_eq!(st.values().sum::<u64>(), 100, "self times partition the op");
    }

    #[test]
    fn nested_spans_record_parent_and_op() {
        let mut t = Spans::new();
        let op = t.next_op();
        t.time("op.query", |t| t.time("index.parse", |_| ()));
        let all = t.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert!(all.iter().all(|s| s.op == op));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        assert_eq!(t.total("index.parse").1, 1);
    }
}
