//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end and the span that was open when it
//! began. Spans stay in memory while the benchmark measures and are written
//! out as JSON lines when it finishes, so recording one costs two clock
//! reads and a push.

use std::time::Instant;

use serde::Value;

/// One closed (or still open) span; times are seconds since the tracer
/// was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// A stack of open spans over a flat list of recorded ones.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one; returns its
    /// duration.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        end - span.start
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`'s duration minus the part of it its child spans cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end - span.start) - covered
    }

    /// Summed self time of every span named `name`.
    pub fn self_time_of(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time(i))
            .sum()
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// One JSON object per span: `id`, `name`, `start`, `end`, `parent`
    /// (`null` for a root) and `self` time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let row = Value::Map(vec![
                ("id".into(), Value::UInt(id as u64)),
                ("name".into(), Value::Str(s.name.into())),
                ("start".into(), Value::Float(s.start)),
                ("end".into(), Value::Float(s.end)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("self".into(), Value::Float(self.self_time(id))),
            ]);
            out.push_str(&serde_json::to_string(&row).expect("span rows serialize"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans, so self time is checked exactly.
    fn fixed(spans: &[(&'static str, f64, f64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        t.spans = spans
            .iter()
            .map(|&(name, start, end, parent)| Span {
                name,
                start,
                end,
                parent,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = fixed(&[
            ("root", 0.0, 10.0, None),
            ("a", 1.0, 3.0, Some(0)),
            ("b", 4.0, 8.0, Some(0)),
            ("c", 5.0, 6.0, Some(2)),
        ]);
        assert_eq!(t.self_time(0), 4.0);
        assert_eq!(t.self_time(1), 2.0);
        assert_eq!(t.self_time(2), 3.0);
        assert_eq!(t.self_time(3), 1.0);
        assert_eq!(t.self_time_of("b"), 3.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        let t = fixed(&[
            ("root", 0.0, 10.0, None),
            ("x", 2.0, 6.0, Some(0)),
            ("x", 4.0, 12.0, Some(0)),
        ]);
        // The children cover [2, 10] of the root once.
        assert_eq!(t.self_time(0), 2.0);
        assert_eq!(t.durations_of("x"), vec![4.0, 8.0]);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        t.time("leaf", || std::hint::black_box(0));
        let mid = t.enter("mid");
        t.time("leaf", || ());
        t.exit(mid);
        t.exit(root);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(t.self_time(root) >= 0.0);
        let rows = t.to_jsonl();
        assert_eq!(rows.lines().count(), 4);
        assert!(rows.lines().next().unwrap().contains("\"parent\":null"));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.enter("a");
        t.enter("b");
        t.exit(a);
    }
}
