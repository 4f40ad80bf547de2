//! Spans recorded by the benchmark around its calls into the program.
//!
//! A span is a name, a start, an end and the span that was open when it
//! started. Names read `layer.call`; the part before the first `.` is the
//! layer the call belongs to. Spans stay in memory and are written once,
//! at the end of a run, as Chrome trace-event JSON (Perfetto and
//! `chrome://tracing` open it).
//!
//! A disabled tracer records nothing and only calls the closure, so the
//! untraced runs that give the end-to-end metrics pay no tracing cost.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mtf_bench::json::Json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Offset from the tracer's origin.
    pub start: Duration,
    /// Offset from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled` and is a pass-through otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Number of spans recorded so far (a cursor for [`self_times`]).
    ///
    /// [`self_times`]: Tracer::self_times
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer over the spans recorded since `mark`: each
    /// span's duration minus the time its direct children cover. The
    /// spans nest on one thread, so the self times of a root span and
    /// all its descendants add up to the root's duration exactly.
    pub fn self_times(&self, mark: usize) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans[mark..] {
            if let Some(p) = s.parent {
                child_time[p] += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(mark) {
            *out.entry(s.layer()).or_default() += s.dur().saturating_sub(child_time[i]);
        }
        out
    }

    /// Summed duration of the spans called `name` since `mark`.
    pub fn total(&self, mark: usize, name: &str) -> Duration {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// The trace as Chrome trace-event JSON: one complete (`"X"`) event
    /// per span, all on one thread, with the span's index and its
    /// parent's index in `args`; `meta` lands in `otherData`.
    pub fn chrome_json(&self, meta: Json) -> Json {
        let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
        let mut events = vec![Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(1.0)),
            ("args", Json::obj([("name", Json::str("mtf-perfbench"))])),
        ])];
        for (i, s) in self.spans.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer())),
                ("ph", Json::str("X")),
                ("ts", us(s.start)),
                ("dur", us(s.dur())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ]));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("otherData", meta),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn self_times_partition_the_root_span() {
        let mut t = Tracer::new(true);
        t.span("bench.rep", |t| {
            t.span("elab.build", |_| spin(Duration::from_millis(2)));
            t.span("kernel.run", |t| {
                spin(Duration::from_millis(2));
                t.span("elab.inner", |_| spin(Duration::from_millis(1)));
            });
        });
        let root = t.spans[0].dur();
        let selfs = t.self_times(0);
        let sum: Duration = selfs.values().sum();
        assert_eq!(sum, root);
        assert!(selfs["elab"] >= Duration::from_millis(3));
        assert!(selfs["kernel"] >= Duration::from_millis(2));
        assert_eq!(t.spans[3].parent, Some(2));
        assert_eq!(t.total(0, "elab.build"), t.spans[1].dur());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("bench.rep", |t| t.span("elab.build", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn chrome_json_parses_back() {
        let mut t = Tracer::new(true);
        t.span("bench.rep", |t| t.span("kernel.run", |_| ()));
        let doc = t.chrome_json(Json::obj([("seed", Json::Num(1.0))]));
        let back = Json::parse(&doc.render()).expect("renders valid JSON");
        let events = back
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("cat").and_then(Json::as_str), Some("kernel"));
    }
}
