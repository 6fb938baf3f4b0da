//! `miopt-harness`: parallel experiment orchestration for the miopt
//! simulator.
//!
//! The simulator's sweeps — the (workload × policy) grids behind the
//! paper's Figures 6–13, and the (policy × load) grids of the serving
//! scenario — are embarrassingly parallel but were run serially. This
//! crate turns a grid — any [`JobKind`]: a
//! [`SweepSpec`](miopt::runner::SweepSpec) or a [`ServeSweepSpec`] —
//! into jobs a scoped worker pool takes from one queue, in id order.
//! Pool, journal, resume and retry are written once, generic over the
//! kind ([`kind`] says what a kind supplies), with:
//!
//! * byte-identical results at any worker count ([`pool`]),
//! * per-job panic and wall-clock-timeout isolation ([`pool`]),
//! * structured JSON sweep reports with full run provenance under
//!   `results/runs/` ([`results`], [`provenance`]),
//! * persistent result caching keyed by the experiment's identity hash
//!   ([`cache`]),
//! * crash-resilient sweeps: a write-ahead job journal enabling
//!   `--resume <run-id>` after a kill, continuously refreshed partial
//!   reports, per-job retries with timeout escalation, and quarantine of
//!   persistently failing configs ([`journal`], [`pool`], [`sweep`]),
//! * phase-resolved telemetry exports — JSONL time series plus Chrome
//!   `trace_event` JSON for chrome://tracing / Perfetto ([`telemetry`]),
//! * the multi-tenant serving sweep: `miopt-harness serve` runs a
//!   policy × load grid of QoS serving scenarios through that same
//!   machinery and reports per-tenant p50/p95/p99 latency and
//!   throughput ([`serve`]),
//! * the figure-extraction pipeline and the `miopt-harness` CLI that
//!   regenerates every paper figure through the pool ([`figures`],
//!   [`cli`]), with one flag grammar for every subcommand ([`flags`]).
//!
//! Everything is dependency-free: the JSON layer ([`json`]) is written
//! in-tree so offline builds never touch a registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod figures;
pub mod flags;
pub mod journal;
pub mod json;
pub mod kind;
pub mod pool;
pub mod progress;
pub mod provenance;
pub mod query;
pub mod results;
pub mod serve;
pub mod sweep;
pub mod telemetry;

pub use cache::{CacheKey, ResultCache};
pub use figures::FigureData;
pub use flags::main;
pub use journal::{Journal, JournalWriter};
pub use json::Json;
pub use kind::JobKind;
pub use pool::{JobError, JobOutcome, PoolOptions};
pub use provenance::Provenance;
pub use results::{SweepReport, SCHEMA_VERSION};
pub use serve::{ServeJobRecord, ServeSweepSpec};
pub use sweep::{run_sweep, run_sweep_journaled, JournalOptions, SweepOptions, SweepRun};

/// Tests of the pool's retry schedule, [`pool::backoff`]. The schedule
/// is a private detail of the pool, but its tests keep their own module
/// so they read as the specification of one function.
#[cfg(test)]
mod backoff {
    mod tests {
        use crate::pool::backoff;
        use std::time::Duration;

        #[test]
        fn delays_are_deterministic_and_decorrelated() {
            assert_eq!(backoff(3, 1), backoff(3, 1), "same inputs, same delay");
            assert_ne!(backoff(3, 1), backoff(4, 1), "jobs are decorrelated");
            assert_ne!(
                backoff(3, 1) * 2,
                backoff(3, 2),
                "each attempt draws its own jitter"
            );
        }

        #[test]
        fn growth_is_exponential_within_jitter_bounds() {
            for job in 0..16u64 {
                for attempt in 1..=6u32 {
                    let ideal = Duration::from_millis(100 << (attempt - 1));
                    let d = backoff(job, attempt);
                    assert!(
                        d >= ideal.mul_f64(0.75) && d < ideal.mul_f64(1.25),
                        "job {job} attempt {attempt}: {d:?} outside [0.75, 1.25)·{ideal:?}"
                    );
                }
            }
        }

        #[test]
        fn the_cap_binds() {
            // Attempt 10 would be 51.2 s uncapped; jitter keeps it within
            // [0.75, 1.25) of the 5 s cap.
            for job in 0..16u64 {
                let d = backoff(job, 10);
                assert!(
                    d >= Duration::from_millis(3_750) && d < Duration::from_millis(6_250),
                    "job {job}: {d:?} is not the jittered 5 s cap"
                );
            }
            // Sub-cap attempts are unaffected by the cap.
            assert!(backoff(0, 1) < Duration::from_millis(125));
        }

        /// Pins the exact schedule: any change to the growth curve or the
        /// jitter derivation shows up as a failing nanosecond count here.
        #[test]
        fn the_schedule_is_pinned() {
            let schedule: Vec<u64> = (1..=4).map(|a| backoff(0, a).as_nanos() as u64).collect();
            assert_eq!(
                schedule,
                vec![103_328_078, 209_118_973, 322_690_068, 772_582_327],
                "the schedule for job 0 changed"
            );
        }
    }
}
