//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the traced run ends.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One timed interval. Spans of one operation share `op_id`; `parent`
/// indexes the enclosing span in the same recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Operation the span belongs to.
    pub op_id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer boundary name.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// A span recorder for one thread. A disabled recorder only runs the
/// closures, so the same code measures the tracing overhead.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    ops: Cell<u64>,
}

impl Tracer {
    /// A recorder that records (`on`) or only runs the closures.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            ops: Cell::new(0),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, name: &str, start: Instant) -> usize {
        let parent = self.open.borrow().last().copied();
        let op_id = match parent {
            Some(p) => self.spans.borrow()[p].op_id,
            None => {
                self.ops.set(self.ops.get() + 1);
                self.ops.get()
            }
        };
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            op_id,
            parent,
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(start),
        });
        spans.len() - 1
    }

    /// Run `f` inside a span named `name`; a span opened with no span
    /// around it starts a new operation.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let index = self.push(name, Instant::now());
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Record a finished interval whose name is known only afterwards
    /// (a serve reply names its own source).
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        if self.on {
            let index = self.push(name, start);
            self.spans.borrow_mut()[index].end_ns = self.ns(end);
        }
    }

    /// Durations of every span named `name`, in nanoseconds.
    #[must_use]
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time of spans named `name`, summed per operation, in
    /// nanoseconds (one entry per operation holding such a span).
    #[must_use]
    pub fn self_ns_per_op(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        let own = self_times_ns(&spans);
        let mut per_op: Vec<(u64, f64)> = Vec::new();
        for (s, t) in spans.iter().zip(own) {
            if s.name != name {
                continue;
            }
            match per_op.last_mut() {
                Some((op, sum)) if *op == s.op_id => *sum += t as f64,
                _ => per_op.push((s.op_id, t as f64)),
            }
        }
        per_op.into_iter().map(|(_, t)| t).collect()
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// The write error, naming the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut text = String::new();
        for s in self.spans.borrow().iter() {
            let line = Json::Obj(vec![
                ("op_id".into(), Json::Num(s.op_id as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
            ]);
            text.push_str(&line.to_string());
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Self time of every span: its duration minus the part of it that the
/// union of its direct children covers.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
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
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op_id: 1,
            parent,
            name: "s".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children_once() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 30),  // child a
            span(Some(0), 30, 50),  // child b, adjacent to a
            span(Some(2), 35, 45),  // grandchild inside b
            span(Some(0), 40, 60),  // child c, overlapping b
            span(Some(0), 90, 120), // child d, running past the root's end
        ];
        // Root: 100 - (10..60 = 50) - (90..100 = 10) = 40.
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 10, 20, 30]);
    }

    #[test]
    fn spans_nest_group_by_operation_and_sum_per_operation() {
        let t = Tracer::new(true);
        for _ in 0..2 {
            t.span("op", || {
                t.span("leaf", || ());
                t.span("leaf", || ());
            });
        }
        let spans = t.spans.borrow().clone();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].op_id, 2);
        assert_eq!(t.self_ns_per_op("leaf").len(), 2, "one sum per operation");
        assert_eq!(t.durations_ns("leaf").len(), 4);

        let off = Tracer::new(false);
        assert_eq!(off.span("op", || 7), 7);
        assert!(off.durations_ns("op").is_empty());
    }
}
