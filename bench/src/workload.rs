//! What the four workloads have in common: a repeatable generation
//! phase, cases that are timed one at a time, and a traced variant of
//! the same cases.

use crate::metric::{Layers, ACTORS};
use crate::trace::Trace;
use miopt::{EventProfile, Metrics};
use std::path::Path;

/// One execution of one case.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds of the case's timed region, split into the parts
    /// that are minimised separately over reps (one part for a
    /// simulation; one per pool job plus the rest for a sweep).
    pub parts: Vec<f64>,
    /// Simulated cycles the case covered (exact).
    pub sim_cycles: u64,
    /// One entry per operation (a case-rep, a sweep job, the figure set,
    /// a serve job): its canonical output text, or why it failed.
    pub ops: Vec<Result<String, String>>,
}

/// Operation counts behind `attempted` / `failed`, with the reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Outcome {
    pub fn host_s(&self) -> f64 {
        self.parts.iter().sum()
    }
}

impl Tally {
    /// Counts one check; a failure keeps its description.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.messages.push(format!("{what}: {why}"));
        }
    }

    /// Counts the operations of `outcome`: an operation fails on its own
    /// error or when its output differs from `reference` (rep 1).
    pub fn count(&mut self, label: &str, outcome: &Outcome, reference: &Outcome) {
        if outcome.ops.len() != reference.ops.len() {
            self.check(
                label,
                Err(format!(
                    "{} operations, rep 1 had {}",
                    outcome.ops.len(),
                    reference.ops.len()
                )),
            );
            return;
        }
        for (i, (op, first)) in outcome.ops.iter().zip(&reference.ops).enumerate() {
            let result = match (op, first) {
                (Err(e), _) => Err(e.clone()),
                (Ok(out), Ok(expected)) if out != expected => {
                    Err("output differs from rep 1 (non-determinism)".to_string())
                }
                _ => Ok(()),
            };
            self.check(&format!("{label} op {i}"), result);
        }
    }
}

/// Everything the traced run collects.
#[derive(Debug)]
pub struct Traced {
    pub trace: Trace,
    pub layers: Layers,
}

impl Traced {
    pub fn new() -> Traced {
        Traced {
            trace: Trace::new(),
            layers: Layers::default(),
        }
    }

    /// Adds the simulated-machine counters of one finished simulation.
    pub fn add_metrics(&mut self, m: &Metrics) {
        let l = &mut self.layers;
        l.add("core.sim_cycles", m.cycles as f64);
        l.add("gpu.mem_requests", m.gpu.memory_requests() as f64);
        l.add("cache.l1_accesses", m.l1.accesses.get() as f64);
        l.add("cache.l2_accesses", m.l2.accesses.get() as f64);
        l.add("cache.l2_stalls", m.l2.stall_cycles() as f64);
        l.add(
            "cache.l2_bypasses",
            (m.l2.load_bypasses.get() + m.l2.store_bypasses.get()) as f64,
        );
        l.add(
            "cache.l2_rinse_writebacks",
            m.l2.rinse_writebacks.get() as f64,
        );
        l.add("dram.accesses", m.dram_accesses() as f64);
        l.add("raw.row_hits", m.dram.row_hits.hits() as f64);
        l.add("raw.row_total", m.dram.row_hits.total() as f64);
    }

    /// Adds one profiled `core.run`: its wall time and the per-actor rows.
    pub fn add_profile(&mut self, run_ns: u64, profile: &EventProfile) {
        let l = &mut self.layers;
        l.add("raw.run_ns", run_ns as f64);
        l.add("raw.actor_ns", profile.total_nanos() as f64);
        l.add("raw.profiled_events", profile.total_events() as f64);
        l.add("core.allocs", profile.total_allocs() as f64);
        for row in &profile.actors {
            l.add(&format!("raw.{}.events", row.name), row.events as f64);
            l.add(&format!("raw.{}.nanos", row.name), row.nanos as f64);
        }
    }

    /// Turns the raw sums into the reported per-actor and share metrics.
    ///
    /// The profiler reads the clock twice per dispatch. About one read
    /// falls inside the interval it attributes to the actor and one
    /// outside, so with `timer_ns` the cost of one read, every
    /// `ns_per_event` is reported net of one read and the run's
    /// unattributed time net of the other.
    pub fn derive(&mut self, timer_ns: f64) {
        let l = &mut self.layers;
        for (actor, prefix) in ACTORS {
            let events = l.get(&format!("raw.{actor}.events"));
            let nanos = l.get(&format!("raw.{actor}.nanos"));
            l.set(&format!("{prefix}.events"), events);
            if events > 0.0 {
                l.set(
                    &format!("{prefix}.ns_per_event"),
                    (nanos / events - timer_ns).max(0.0),
                );
            }
        }
        let events = l.get("raw.profiled_events");
        let run_net = l.get("raw.run_ns") - 2.0 * events * timer_ns;
        if events > 0.0 && run_net > 0.0 {
            let outside = l.get("raw.run_ns") - l.get("raw.actor_ns") - events * timer_ns;
            l.set("core.unattributed_share", (outside / run_net).max(0.0));
        }
        if l.get("raw.row_total") > 0.0 {
            l.set(
                "dram.row_hit_ratio",
                l.get("raw.row_hits") / l.get("raw.row_total"),
            );
        }
        let spans = [
            ("core.construct", "core.construct_ms"),
            ("workloads.generate", "workloads.generate_ms"),
            ("serve.run", "serve.run_ms"),
            ("harness.sweep", "harness.sweep_ms"),
            ("harness.report_write", "harness.report_write_ms"),
            ("harness.figures", "harness.figures_ms"),
        ];
        for (span, metric) in spans {
            l.add(metric, self.trace.total_ms(span));
        }
        l.add("core.run_ms", self.trace.total_ms("core.run"));
        if l.get("serve.requests") > 0.0 {
            l.set(
                "serve.ms_per_request",
                l.get("serve.run_ms") / l.get("serve.requests"),
            );
        }
    }
}

/// Runs `f` inside a span called `name` when tracing, bare otherwise.
pub fn spanned<T>(traced: &mut Option<&mut Traced>, name: &str, f: impl FnOnce() -> T) -> T {
    let id = traced.as_deref_mut().map(|t| t.trace.begin(name));
    let out = f();
    if let (Some(id), Some(t)) = (id, traced.as_deref_mut()) {
        t.trace.end(id);
    }
    out
}

/// A workload with the inputs of every case generated. Construction
/// ([`make`]) is the generation phase: it builds the inputs from the seed
/// and validates configurations, and is repeated many times per run (its
/// fastest repeat is in `setup_s`).
pub trait Workload {
    fn cases(&self) -> Vec<String>;

    /// Runs case `i` once. With `traced`, the same calls are wrapped in
    /// spans and their counts are added to the layer accumulators.
    fn run_case(&mut self, i: usize, traced: Option<&mut Traced>) -> Outcome;

    /// Traced-run-only output checks against `reference`, the untraced
    /// rep-1 outcome of every case.
    fn checks(&mut self, reference: &[Outcome], tally: &mut Tally, traced: &mut Traced);
}

pub fn make(name: &str, seed: u64, smoke: bool, scratch: &Path) -> Option<Box<dyn Workload>> {
    match name {
        "rnn_latency" => Some(Box::new(crate::sim::SimCases::rnn_latency(smoke))),
        "stream_large" => Some(Box::new(crate::sim::SimCases::stream_large(smoke))),
        "sweep_grid" => Some(Box::new(crate::sweep::SweepGrid::new(smoke, scratch))),
        "serve_tail" => Some(Box::new(crate::serve::ServeTail::new(seed, smoke))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(ops: &[Result<&str, &str>]) -> Outcome {
        Outcome {
            parts: vec![1.0],
            sim_cycles: 1,
            ops: ops
                .iter()
                .map(|r| r.map(str::to_string).map_err(str::to_string))
                .collect(),
        }
    }

    #[test]
    fn tally_counts_errors_and_mismatches_per_operation() {
        let first = outcome(&[Ok("a"), Ok("b"), Ok("c")]);
        let mut t = Tally::default();
        t.count("rep 1", &first, &first);
        assert_eq!((t.attempted, t.failed), (3, 0));
        t.count("rep 2", &outcome(&[Ok("a"), Ok("x"), Err("boom")]), &first);
        assert_eq!((t.attempted, t.failed), (6, 2));
        assert!(t.messages[0].contains("non-determinism"));
        assert!(t.messages[1].contains("boom"));
        t.count("rep 3", &outcome(&[Ok("a")]), &first);
        assert_eq!((t.attempted, t.failed), (7, 3));
    }
}
