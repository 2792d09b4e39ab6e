//! In-memory spans for the traced pass, their self times, and a Chrome
//! `trace_event` export.
//!
//! Spans nest strictly (one thread, opened and closed in stack order). A
//! span's *self time* is its duration minus the time its direct children
//! cover, so the self times of all spans sum to the time covered by the
//! outermost spans — `trace.coverage` compares that sum with the traced
//! wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Layer work counters, by per-layer metric name.
pub type Counters = BTreeMap<String, f64>;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `restore` or `tail.Timeout`.
    pub name: String,
    /// Campaign job index of the injected run the span belongs to.
    pub job: Option<usize>,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// Duration (zero while open).
    pub dur: Duration,
    /// Time covered by direct children.
    pub children: Duration,
    /// Enclosing span, by index.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration minus the time covered by direct children.
    pub fn self_time(&self) -> Duration {
        self.dur.saturating_sub(self.children)
    }
}

/// Collects spans in memory; nothing is written until [`Tracer::chrome_json`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    end: Option<Duration>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Starts the traced wall clock now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            end: None,
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one; returns its handle.
    pub fn open(&mut self, name: impl Into<String>, job: Option<usize>) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            job,
            start: self.origin.elapsed(),
            dur: Duration::ZERO,
            children: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open span.
    pub fn close(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close in stack order");
        let span = &mut self.spans[idx];
        span.dur = self.origin.elapsed().saturating_sub(span.start);
        let (dur, parent) = (span.dur, span.parent);
        if let Some(p) = parent {
            self.spans[p].children += dur;
        }
    }

    /// Renames span `idx` (a run's tail is named after its outcome class,
    /// known only once the run is classified).
    pub fn rename(&mut self, idx: usize, name: impl Into<String>) {
        self.spans[idx].name = name.into();
    }

    /// Stops the traced wall clock.
    pub fn finish(&mut self) {
        assert!(self.open.is_empty(), "every span is closed before finish");
        self.end = Some(self.origin.elapsed());
    }

    /// Traced wall time in seconds (up to [`Tracer::finish`], or now).
    pub fn wall_s(&self) -> f64 {
        self.end
            .unwrap_or_else(|| self.origin.elapsed())
            .as_secs_f64()
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&str, f64> {
        let mut out: BTreeMap<&str, f64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.as_str()).or_default() += s.self_time().as_secs_f64();
        }
        out
    }

    /// Sum of all self times divided by the traced wall time.
    pub fn coverage(&self) -> f64 {
        let covered: f64 = self.self_times().values().sum();
        covered / self.wall_s()
    }

    /// The spans as a Chrome `trace_event` JSON object (complete `X`
    /// events, microsecond timestamps) that Perfetto and
    /// `chrome://tracing` load. A span of an injected run carries the
    /// run's job index as its `id` and in `args.job`.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut s = String::with_capacity(128 + self.spans.len() * 128);
        s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            s,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{}\"}}}}",
            process
        );
        for span in &self.spans {
            let _ = write!(
                s,
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}",
                span.name,
                span.name.split('.').next().unwrap_or(&span.name),
                span.start.as_secs_f64() * 1e6,
                span.dur.as_secs_f64() * 1e6,
            );
            match span.job {
                Some(job) => {
                    let _ = write!(s, ",\"id\":{job},\"args\":{{\"job\":{job}}}}}");
                }
                None => s.push('}'),
            }
        }
        s.push_str("\n]}\n");
        s
    }
}
