//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! pass it belongs to. Spans stay in memory and are written out when
//! the benchmark ends. A layer's self time is its span's duration minus
//! the part its child spans cover. Inside `core.run` the per-actor rows
//! of `ApuSystem::enable_profiler` stand in for child spans: they are
//! recorded with [`Trace::leaf`] as children of known duration.

use miopt_harness::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span; closing is explicit so a span can outlive
/// the borrow of the trace that opened it.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new pass: spans opened from here on share its id.
    pub fn begin_pass(&mut self) -> SpanId {
        self.pass += 1;
        self.begin("pass")
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span. Returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
        self.spans[id.0].nanos()
    }

    /// Records a child of `parent` whose duration was measured elsewhere
    /// (a profiler row). It is laid at the parent's start; only its
    /// length matters for self-time arithmetic.
    pub fn leaf(&mut self, parent: SpanId, name: &str, nanos: u64) {
        let start = self.spans[parent.0].start_ns;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start + nanos,
            parent: Some(parent.0),
            pass: self.spans[parent.0].pass,
        });
    }

    /// Duration of span `i` minus the durations of its direct children.
    /// Saturating: profiler rows can add up to marginally more than the
    /// `core.run` span they sit in when the clock is coarse.
    pub fn self_nanos(&self, i: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::nanos)
            .sum();
        self.spans[i].nanos().saturating_sub(children)
    }

    /// Σ duration over every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.sum_by_name(name, |t, i| t.spans[i].nanos())
    }

    /// Σ self time over every span called `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.sum_by_name(name, Trace::self_nanos)
    }

    fn sum_by_name(&self, name: &str, f: impl Fn(&Trace, usize) -> u64) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| f(self, i))
            .sum();
        ns as f64 / 1e6
    }

    /// Distinct span names in first-seen order.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        names
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::U64(i as u64)),
                        ("name", Json::str(&s.name)),
                        ("pass", Json::U64(u64::from(s.pass))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::new();
        let pass = t.begin_pass();
        let case = t.begin("case");
        let run = t.begin("core.run");
        t.end(run);
        t.end(case);
        t.end(pass);
        // Fix the clock readings so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 1_000;
        t.spans[1].start_ns = 100;
        t.spans[1].end_ns = 900;
        t.spans[2].start_ns = 200;
        t.spans[2].end_ns = 700;
        t.leaf(SpanId(2), "actor.phase", 300);
        t.leaf(SpanId(2), "actor.dram", 150);
        assert_eq!(t.self_nanos(0), 200); // pass: 1000 - case 800
        assert_eq!(t.self_nanos(1), 300); // case: 800 - run 500
        assert_eq!(t.self_nanos(2), 50); // run: 500 - 450 of actors
        assert_eq!(t.spans[3].parent, Some(2));
        assert_eq!(t.spans[3].pass, 1);
        assert!((t.total_ms("core.run") - 0.0005).abs() < 1e-12);
        assert!((t.self_ms("core.run") - 0.00005).abs() < 1e-12);
        assert_eq!(
            t.names(),
            ["pass", "case", "core.run", "actor.phase", "actor.dram"]
        );
    }

    #[test]
    fn self_time_saturates_when_rows_overshoot() {
        let mut t = Trace::new();
        let run = t.begin("core.run");
        t.end(run);
        t.spans[0].end_ns = t.spans[0].start_ns + 100;
        t.leaf(run, "actor.phase", 130);
        assert_eq!(t.self_nanos(0), 0);
    }

    #[test]
    fn passes_number_their_spans() {
        let mut t = Trace::new();
        let a = t.begin_pass();
        t.end(a);
        let b = t.begin_pass();
        let c = t.begin("job");
        t.end(c);
        t.end(b);
        let passes: Vec<u32> = t.spans.iter().map(|s| s.pass).collect();
        assert_eq!(passes, [1, 2, 2]);
        assert_eq!(t.spans[2].parent, Some(1));
    }
}
