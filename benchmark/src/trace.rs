//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Spans live in memory and are written out once, when the run ends. A
//! disabled tracer still runs and times the wrapped call (the caller
//! needs the duration either way) but records nothing. The time spent
//! recording is itself measured and reported as the tracing overhead.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. Times are seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// The span that caused this one, or 0.
    pub parent: u64,
    /// Request id shared by every span of one request, or 0.
    pub request: u64,
    /// Layer call name (`extract`, `request`, `append`, …).
    pub name: &'static str,
    /// Start, seconds since the tracer started.
    pub start: f64,
    /// End, seconds since the tracer started.
    pub end: f64,
}

/// An in-memory span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    next_id: u64,
    spans: Vec<Span>,
    overhead: Duration,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), state: Mutex::new(State::default()) }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Allocate a span id up front, so children can name their parent
    /// before it ends (0 when disabled).
    pub fn open(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut state = self.state.lock().expect("tracer lock poisoned by a panicking thread");
        state.next_id += 1;
        state.next_id
    }

    /// Run `f` as span `name` with a fresh id, returning its result and
    /// wall time.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open();
        self.time_as(id, name, parent, request, f)
    }

    /// [`Self::time`] under an id taken earlier from [`Self::open`].
    pub fn time_as<T>(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            let record_start = Instant::now();
            let span = Span {
                id,
                parent,
                request,
                name,
                start: start.duration_since(self.origin).as_secs_f64(),
                end: end.duration_since(self.origin).as_secs_f64(),
            };
            let mut state = self.state.lock().expect("tracer lock poisoned by a panicking thread");
            state.spans.push(span);
            state.overhead += record_start.elapsed();
        }
        (out, end - start)
    }

    /// Spans recorded so far, and the time spent recording them.
    #[must_use]
    pub fn finish(&self) -> (Vec<Span>, Duration) {
        let state = self.state.lock().expect("tracer lock poisoned by a panicking thread");
        (state.spans.clone(), state.overhead)
    }
}

/// Render spans as a JSON array, one object per span.
#[must_use]
pub fn spans_to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start\":{:?},\"end\":{:?}}}{sep}",
            s.id, s.parent, s.request, s.name, s.start, s.end
        );
    }
    out.push(']');
    out
}

/// Durations, in seconds, of every span named `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_request_ids_only_when_enabled() {
        let tracer = Tracer::new(true);
        let parent = tracer.open();
        let ((), _) = tracer.time_as(parent, "request", 0, 7, || {
            let (v, _) = tracer.time("encode", parent, 7, || 3);
            assert_eq!(v, 3);
        });
        let (spans, _) = tracer.finish();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "encode").unwrap();
        let root = spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!((child.parent, child.request, root.request), (root.id, 7, 7));
        assert!(root.start <= child.start && child.end <= root.end);
        assert!(spans_to_json(&spans).starts_with("[\n{\"id\":"));

        let off = Tracer::new(false);
        let (v, _) = off.time("encode", 0, 0, || 5);
        assert_eq!(v, 5);
        assert!(off.finish().0.is_empty());
    }
}
