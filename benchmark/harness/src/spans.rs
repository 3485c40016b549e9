//! In-memory span recorder for the traced replay.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), a parent and the job it belongs to. Calls made once per cycle
//! or per thermal frame are too many to keep one span each, so
//! [`Tracer::hot`] folds every call of one name under one parent into a
//! single aggregate span: it starts at the first call, ends at the last,
//! and carries the call count and the summed call time (`busy_ns`). A
//! plain span has `calls = 1` and `busy_ns = end - start`.
//!
//! A span's self time is its `busy_ns` minus the `busy_ns` of its children;
//! children never overlap, because the replay is single-threaded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
    pub calls: u64,
    pub busy_ns: u64,
}

struct Hot {
    name: &'static str,
    first_ns: u64,
    last_ns: u64,
    calls: u64,
    busy_ns: u64,
}

struct Frame {
    index: usize,
    hot: Vec<Hot>,
}

/// Records spans in memory; [`Tracer::to_jsonl`] writes them out at exit.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    job: Option<u64>,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the job index stamped on the spans opened from now on.
    pub fn set_job(&mut self, job: Option<u64>) {
        self.job = job;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.stack.last().map(|f| f.index),
            job: self.job,
            calls: 1,
            busy_ns: 0,
        });
        self.stack.push(Frame {
            index,
            hot: Vec::new(),
        });
    }

    /// Closes the innermost open span, turning its folded hot calls into
    /// child spans.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        let frame = self.stack.pop().expect("exit without a matching enter");
        let span = &mut self.spans[frame.index];
        span.end_ns = end;
        span.busy_ns = end - span.start_ns;
        let job = span.job;
        for h in frame.hot {
            self.spans.push(Span {
                name: h.name,
                start_ns: h.first_ns,
                end_ns: h.last_ns,
                parent: Some(frame.index),
                job,
                calls: h.calls,
                busy_ns: h.busy_ns,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Times one call of a hot function, folded into the aggregate span
    /// `name` under the innermost open span.
    pub fn hot<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        let frame = self.stack.last_mut().expect("hot call outside any span");
        match frame.hot.iter_mut().find(|h| h.name == name) {
            Some(h) => {
                h.last_ns = end;
                h.calls += 1;
                h.busy_ns += end - start;
            }
            None => frame.hot.push(Hot {
                name,
                first_ns: start,
                last_ns: end,
                calls: 1,
                busy_ns: end - start,
            }),
        }
        r
    }

    /// The closed spans, in the order they were opened (hot aggregates
    /// follow their parent's other children).
    pub fn spans(&self) -> &[Span] {
        assert!(self.stack.is_empty(), "spans read while a span is open");
        &self.spans
    }

    /// Calls, busy time and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans();
        let mut child_busy = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, child) in spans.iter().zip(&child_busy) {
            let t = out.entry(s.name).or_default();
            t.calls += s.calls;
            t.busy_ns += s.busy_ns;
            t.self_ns += s.busy_ns.saturating_sub(*child);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                r#"{{"name": "{}", "start_ns": {}, "end_ns": {}, "parent": {}, "job": {}, "calls": {}, "busy_ns": {}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.job),
                s.calls,
                s.busy_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |a, b| std::hint::black_box(a.wrapping_add(b)))
    }

    #[test]
    fn self_time_excludes_children_and_hot_calls_fold() {
        let mut t = Tracer::new();
        t.set_job(Some(7));
        t.enter("outer");
        for _ in 0..5 {
            t.hot("leaf", || spin(10_000));
        }
        t.span("inner", || spin(10_000));
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let leaf = spans.iter().find(|s| s.name == "leaf").unwrap();
        assert_eq!(leaf.calls, 5);
        assert_eq!(leaf.parent, Some(0));
        assert_eq!(leaf.job, Some(7));
        assert!(leaf.busy_ns <= leaf.end_ns - leaf.start_ns);
        let totals = t.totals();
        let outer = totals["outer"];
        let children = totals["leaf"].busy_ns + totals["inner"].busy_ns;
        assert_eq!(outer.self_ns, outer.busy_ns - children);
        assert_eq!(totals["leaf"].self_ns, totals["leaf"].busy_ns);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Tracer::new();
        t.span("a", || ());
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with(r#"{"name": "a", "start_ns": "#));
        assert!(text.contains(r#""parent": null, "job": null, "calls": 1"#));
    }
}
