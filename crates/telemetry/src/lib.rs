//! Deterministic, phase-resolved telemetry for the `miopt` simulator.
//!
//! End-of-run [`Metrics`] answer *what* a cache policy did to a workload;
//! this crate answers *when*. It provides three pieces:
//!
//! * [`StatSnapshot`] — a trait implemented by every per-component stats
//!   struct (cache, DRAM, GPU, NoC) exposing its counters as
//!   `(&'static str, u64)` pairs. Combined with a scope prefix this
//!   yields one flat, dotted stat-name registry (`l2.load_hits`,
//!   `dram.row_conflicts`, …) shared by telemetry, the results schema
//!   and the result cache.
//! * [`Recorder`] — an epoch sampler. It is built with the registry's
//!   names; the simulator then hands it the values of every counter, in
//!   registry order, every `interval` cycles, and the recorder turns
//!   consecutive samples into per-epoch *deltas*. It also records phase
//!   [`Span`]s (launch / run / flush …) and discrete [`EventInstant`]s
//!   (kernel launches, self-invalidations).
//! * [`TelemetryRun`] — the finished, immutable time series handed back
//!   to callers and serialized by `miopt-harness` as JSONL and Chrome
//!   `trace_event` JSON.
//!
//! Everything here is plain data and integer arithmetic: recording the
//! same simulation twice — on any number of harness workers — produces
//! byte-identical output.
//!
//! [`Metrics`]: https://docs.rs/miopt
//!
//! # Examples
//!
//! ```
//! use miopt_telemetry::Recorder;
//!
//! let mut rec = Recorder::new(100, vec!["gpu.valu_lane_ops".into()]);
//! rec.enter_phase("run", 0);
//! rec.record(100, &[640]);
//! rec.record(200, &[1000]);
//!
//! let run = rec.into_run(200);
//! assert_eq!(run.epochs.len(), 2);
//! assert_eq!(run.epochs[0].deltas, [640]);
//! assert_eq!(run.epochs[1].deltas, [360]);
//! assert_eq!(run.totals(), [1000]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The engine crate anchors the workspace's `Cycle` conventions; telemetry
// deliberately depends on nothing else so every component crate can
// implement `StatSnapshot` without forming a dependency cycle.
pub use miopt_engine::Cycle;

pub mod hist;

pub use hist::LatencyHistogram;

/// A component whose statistics can be sampled into telemetry.
///
/// Implementations return every cumulative counter of the component as
/// `(name, value)` pairs. Names are bare (the caller prefixes a scope,
/// as in `l2.load_hits`), `snake_case`, and **stable**: the pair list
/// must have the same names in the same order on every call, because
/// the registry is named once, when recording starts, and every later
/// sample is values only.
pub trait StatSnapshot {
    /// Returns all counters as `(bare_name, cumulative_value)` pairs.
    fn stat_pairs(&self) -> Vec<(&'static str, u64)>;
}

/// Per-interval counter deltas between two consecutive samples.
///
/// `deltas[i]` is the increase of the counter named
/// `TelemetryRun::names[i]` over `[start_cycle, end_cycle)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epoch {
    /// First cycle covered by this epoch (inclusive).
    pub start_cycle: u64,
    /// Last cycle covered by this epoch (exclusive).
    pub end_cycle: u64,
    /// Counter increases over the epoch, indexed like `TelemetryRun::names`.
    pub deltas: Vec<u64>,
}

impl Epoch {
    /// Number of cycles the epoch covers.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// A named half-open interval of cycles — one simulator phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Phase name (`launch`, `run`, `drain_kernel`, `flush`, …).
    pub name: String,
    /// Cycle the phase was entered.
    pub start_cycle: u64,
    /// Cycle the phase was left.
    pub end_cycle: u64,
}

/// A discrete event pinned to a single cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventInstant {
    /// Event name (`kernel:gemm#3`, `self_invalidate`, …).
    pub name: String,
    /// Cycle at which the event fired.
    pub cycle: u64,
}

/// The finished time series of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryRun {
    /// Sampling interval in cycles the run was recorded with.
    pub interval: u64,
    /// The stat-name registry: dotted names, in sample order.
    pub names: Vec<String>,
    /// Per-interval counter deltas, in cycle order.
    pub epochs: Vec<Epoch>,
    /// Simulator phases, in cycle order.
    pub spans: Vec<Span>,
    /// Discrete events, in cycle order.
    pub instants: Vec<EventInstant>,
}

impl TelemetryRun {
    /// Index of `name` in the registry, if registered.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Sum of every epoch's deltas — the cumulative counter values at the
    /// end of the run, indexed like [`TelemetryRun::names`].
    pub fn totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.names.len()];
        for epoch in &self.epochs {
            for (total, delta) in totals.iter_mut().zip(&epoch.deltas) {
                *total += delta;
            }
        }
        totals
    }
}

/// Collects samples, phases and instants during a run.
///
/// The recorder is deliberately passive: the *simulator* decides when a
/// sample is due (via [`Recorder::next_due`]) and reads the counters, so
/// recording never perturbs simulated behaviour.
#[derive(Debug, Clone)]
pub struct Recorder {
    interval: u64,
    names: Vec<String>,
    prev: Vec<u64>,
    epochs: Vec<Epoch>,
    epoch_start: u64,
    spans: Vec<Span>,
    open_span: Option<(String, u64)>,
    instants: Vec<EventInstant>,
}

impl Recorder {
    /// Creates a recorder sampling every `interval` cycles the counters
    /// named `names` (the registry, in the order every sample lays out
    /// its values). Every counter starts from zero.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero; validated front ends (`RunOptions`
    /// in `miopt`) reject that before constructing a recorder.
    pub fn new(interval: u64, names: Vec<String>) -> Recorder {
        assert!(interval > 0, "telemetry interval must be at least 1 cycle");
        Recorder {
            interval,
            prev: vec![0; names.len()],
            names,
            epochs: Vec::new(),
            epoch_start: 0,
            spans: Vec::new(),
            open_span: None,
            instants: Vec::new(),
        }
    }

    /// The first cycle strictly after `cycle` at which a sample is due —
    /// the event core schedules its sampling wakeups with this, and the
    /// idle-clock warp lands one cycle short of it.
    #[must_use]
    pub fn next_due(&self, cycle: u64) -> u64 {
        (cycle / self.interval + 1) * self.interval
    }

    /// Closes the epoch ending at `end_cycle` with the cumulative
    /// counter `values`, laid out like the registry.
    ///
    /// Samples that do not advance the clock past the previous one are
    /// ignored (this lets callers unconditionally flush a final sample).
    ///
    /// # Panics
    ///
    /// Panics if `values` is not as long as the registry, or if any
    /// counter decreased — both indicate simulator bugs, not user error.
    pub fn record(&mut self, end_cycle: u64, values: &[u64]) {
        if end_cycle <= self.epoch_start {
            return;
        }
        assert_eq!(
            values.len(),
            self.names.len(),
            "telemetry registry changed mid-run"
        );
        let deltas: Vec<u64> = values
            .iter()
            .zip(&self.prev)
            .zip(&self.names)
            .map(|((&now, &before), name)| {
                now.checked_sub(before)
                    .unwrap_or_else(|| panic!("counter {name} decreased ({before} -> {now})"))
            })
            .collect();
        self.epochs.push(Epoch {
            start_cycle: self.epoch_start,
            end_cycle,
            deltas,
        });
        self.prev.copy_from_slice(values);
        self.epoch_start = end_cycle;
    }

    /// Ends the open phase (if any) and starts phase `name` at `cycle`.
    pub fn enter_phase(&mut self, name: &str, cycle: u64) {
        self.end_phase(cycle);
        self.open_span = Some((name.to_string(), cycle));
    }

    /// Ends the open phase (if any) at `cycle` without starting another.
    ///
    /// Zero-length phases (entered and left in the same cycle) are
    /// dropped rather than recorded.
    pub fn end_phase(&mut self, cycle: u64) {
        if let Some((name, start_cycle)) = self.open_span.take() {
            if cycle > start_cycle {
                self.spans.push(Span {
                    name,
                    start_cycle,
                    end_cycle: cycle,
                });
            }
        }
    }

    /// Records a discrete event at `cycle`.
    pub fn instant(&mut self, name: impl Into<String>, cycle: u64) {
        self.instants.push(EventInstant {
            name: name.into(),
            cycle,
        });
    }

    /// Finishes recording at `end_cycle` and returns the immutable run.
    ///
    /// Any still-open phase is closed at `end_cycle`. The caller is
    /// expected to have flushed a final sample first (via
    /// [`Recorder::record`], which ignores zero-width flushes).
    pub fn into_run(mut self, end_cycle: u64) -> TelemetryRun {
        self.end_phase(end_cycle);
        TelemetryRun {
            interval: self.interval,
            names: self.names,
            epochs: self.epochs,
            spans: self.spans,
            instants: self.instants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(interval: u64) -> Recorder {
        Recorder::new(interval, vec!["t.alpha".into(), "t.beta".into()])
    }

    #[test]
    fn frames_scope_names_and_difference_into_epochs() {
        let mut rec = recorder(10);
        rec.record(10, &[3, 100]);
        rec.record(20, &[5, 100]);
        let run = rec.into_run(20);
        assert_eq!(run.names, vec!["t.alpha", "t.beta"]);
        assert_eq!(run.index_of("t.beta"), Some(1));
        assert_eq!(run.epochs.len(), 2);
        assert_eq!(run.epochs[0].deltas, vec![3, 100]);
        assert_eq!(run.epochs[1].deltas, vec![2, 0]);
        assert_eq!(run.epochs[0].start_cycle, 0);
        assert_eq!(run.epochs[1].end_cycle, 20);
    }

    #[test]
    fn totals_reconstruct_final_counter_values() {
        let mut rec = recorder(10);
        rec.record(10, &[3, 7]);
        rec.record(20, &[4, 19]);
        rec.record(27, &[9, 19]); // partial final epoch
        let run = rec.into_run(27);
        assert_eq!(run.totals(), vec![9, 19]);
        assert_eq!(run.index_of("t.gamma"), None);
        assert_eq!(run.epochs.last().unwrap().cycles(), 7);
    }

    #[test]
    fn zero_width_final_flush_is_ignored() {
        let mut rec = recorder(10);
        rec.record(10, &[1, 1]);
        rec.record(10, &[1, 1]); // flush lands on a sample cycle
        let run = rec.into_run(10);
        assert_eq!(run.epochs.len(), 1);
        // Taken before any cycle elapsed: the names, and no epoch.
        let run = recorder(10).into_run(0);
        assert_eq!((run.names.len(), run.epochs.len()), (2, 0));
    }

    #[test]
    #[should_panic(expected = "registry changed")]
    fn registry_mismatch_panics() {
        let mut rec = recorder(10);
        rec.record(10, &[1, 1]);
        rec.record(20, &[2]);
    }

    #[test]
    #[should_panic(expected = "decreased")]
    fn non_monotonic_counter_panics() {
        let mut rec = recorder(10);
        rec.record(10, &[5, 5]);
        rec.record(20, &[4, 5]);
    }

    #[test]
    #[should_panic(expected = "at least 1 cycle")]
    fn zero_interval_is_rejected() {
        let _ = recorder(0);
    }

    #[test]
    fn due_fires_on_multiples_of_the_interval_only() {
        let rec = recorder(100);
        assert_eq!(rec.next_due(0), 100);
        assert_eq!(rec.next_due(99), 100);
        assert_eq!(rec.next_due(100), 200);
        assert_eq!(rec.next_due(201), 300);
    }
    #[test]
    fn phases_close_on_transition_and_at_run_end() {
        let mut rec = recorder(10);
        rec.enter_phase("launch", 0);
        rec.enter_phase("run", 4);
        rec.instant("kernel:k0#0", 4);
        rec.enter_phase("flush", 30);
        let run = rec.into_run(42);
        assert_eq!(
            run.spans,
            vec![
                Span {
                    name: "launch".into(),
                    start_cycle: 0,
                    end_cycle: 4
                },
                Span {
                    name: "run".into(),
                    start_cycle: 4,
                    end_cycle: 30
                },
                Span {
                    name: "flush".into(),
                    start_cycle: 30,
                    end_cycle: 42
                },
            ]
        );
        assert_eq!(
            run.instants,
            vec![EventInstant {
                name: "kernel:k0#0".into(),
                cycle: 4
            }]
        );
    }

    #[test]
    fn zero_length_phases_are_dropped() {
        let mut rec = recorder(10);
        rec.enter_phase("launch", 5);
        rec.enter_phase("run", 5);
        let run = rec.into_run(9);
        assert_eq!(run.spans.len(), 1);
        assert_eq!(run.spans[0].name, "run");
    }
}
