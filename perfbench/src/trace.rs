//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into each layer's public API; they
//! are kept in memory and written out once, at the end, as Chrome
//! trace-event JSON (`{"traceEvents": [...]}`), which chrome://tracing
//! and Perfetto open. A span's self time is its duration minus the
//! time its direct children cover. A disabled recorder records nothing,
//! so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span. Times are microseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call` name; the layer (text before the first `.`) becomes
    /// the Chrome event category.
    pub name: &'static str,
    /// Start offset in microseconds.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Per-name aggregate of closed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration in microseconds.
    pub total_us: f64,
    /// Summed self time in microseconds.
    pub self_us: f64,
}

/// The span recorder. Nesting follows the call stack of
/// [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (the traced run times the same pass
    /// both ways to measure the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_us: self.offset_us(start),
            dur_us: 0.0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.close_to(id);
        self.spans[id].dur_us = start.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Records an already-measured interval as a child of the open span
    /// (for intervals observed inside a callback, such as the time to
    /// the first streamed line).
    pub fn record(&mut self, name: &'static str, start: Instant, dur: Duration) {
        if self.on {
            let span = Span {
                name,
                start_us: self.offset_us(start),
                dur_us: dur.as_secs_f64() * 1e6,
                parent: self.stack.last().copied(),
            };
            self.spans.push(span);
        }
    }

    /// Pops the stack down to (and including) span `id`; spans a panic
    /// left open are closed at their last recorded extent.
    fn close_to(&mut self, id: usize) {
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// Summed duration (µs) of every span named `name`.
    #[must_use]
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Count, total and self time per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_us) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_us += s.dur_us;
            t.self_us += (s.dur_us - children).max(0.0);
        }
        out
    }

    /// The spans as Chrome trace-event JSON. `other` entries (already
    /// JSON-encoded values) go under `otherData`.
    #[must_use]
    pub fn chrome_json(&self, other: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \
                 \"parent\": {parent}}}}}{}",
                s.name,
                s.start_us,
                s.dur_us,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("], \"displayTimeUnit\": \"ms\", \"otherData\": {");
        for (i, (k, v)) in other.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.span("sweep.replay", |tr| {
            tr.span("sim.build", |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            tr.span("sim.run", |_| std::thread::sleep(Duration::from_millis(3)));
        });
        let totals = tr.totals();
        let root = totals["sweep.replay"];
        let kids = totals["sim.build"].total_us + totals["sim.run"].total_us;
        assert!((root.self_us - (root.total_us - kids)).abs() < 1e-6);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.total_us("sim.run") >= 3_000.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("sim.run", |_| 7), 7);
        tr.record("serve.ttfb", Instant::now(), Duration::from_millis(1));
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_json_parses() {
        let mut tr = Tracer::new(true);
        tr.span("cache.get", |tr| tr.span("cache.key", |_| ()));
        let text = tr.chrome_json(&[("workload", "\"fig12_cold\"".into())]);
        let v = snoc_core::json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(|c| c.as_str()), Some("cache"));
        assert_eq!(
            v.get("otherData")
                .and_then(|o| o.get("workload"))
                .and_then(|w| w.as_str()),
            Some("fig12_cold")
        );
    }
}
