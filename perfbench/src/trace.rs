//! Benchmark-side spans, recorded around every call the benchmark makes
//! into a layer during a traced run.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! created), the span that caused it and a request id shared by all spans
//! of one request.  Spans stay in memory and are written as JSON lines when
//! the run ends; the per-layer table is derived from them.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.parse`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or iteration) id shared by one request's spans.
    pub req: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder; inert when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its id (`None` while disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span ending at the matching [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Closes an open span.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// All recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration (s) of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// The spans as JSON lines: `{"id", "name", "start_ns", "end_ns",
    /// "parent", "req"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.open("a", None, 1);
        tracer.close(id);
        assert!(id.is_none());
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn spans_keep_parent_and_request() {
        let mut tracer = Tracer::new(true);
        let t0 = Instant::now();
        let root = tracer.record("root", None, 7, t0, t0 + Duration::from_millis(10));
        tracer.record("child", root, 7, t0, t0 + Duration::from_millis(4));
        tracer.record(
            "child",
            root,
            7,
            t0 + Duration::from_millis(5),
            t0 + Duration::from_millis(8),
        );
        assert!((tracer.total("child") - 0.007).abs() < 1e-9);
        let jsonl = tracer.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\": 0, \"req\": 7"));
    }
}
