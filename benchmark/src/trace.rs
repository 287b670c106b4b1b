//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public function in a
//! span: name, start, end, parent span, and the id of the operation (one
//! analysis, one edit, one request) the call serves. Spans stay in
//! memory until the run ends, when they are written out as JSON lines;
//! the traced run derives each layer's times from them.
//!
//! A disabled recorder runs the same closures without timing them; the
//! traced run replays its work once each way to measure the overhead.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, such as `sizerel.fixpoint`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span serves.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Start a new operation: later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span`] for a closure that opens no spans of its own.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn samples_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_their_operation() {
        let mut t = Tracer::new(true);
        t.next_op();
        t.span("core.outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(4));
            t.leaf("sizerel.inner", || std::thread::sleep(std::time::Duration::from_millis(6)));
        });
        assert!(t.total_ms("sizerel.inner") >= 6.0);
        assert!(t.total_ms("core.outer") >= t.total_ms("sizerel.inner") + 4.0);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 1);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_recorder_runs_the_work_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core.x", |t| t.leaf("core.y", || 7)), 7);
        assert!(t.spans().is_empty());
    }
}
