//! `miopt-harness`: parallel experiment orchestration for the miopt
//! simulator.
//!
//! The simulator's sweeps — the (workload × policy) grids behind the
//! paper's Figures 6–13, and the (policy × load) grids of the serving
//! scenario — are embarrassingly parallel but were run serially. This
//! crate turns a grid — any [`JobKind`]: a
//! [`SweepSpec`](miopt::runner::SweepSpec) or a [`ServeSweepSpec`] —
//! into jobs a scoped worker pool takes from one queue, in id order.
//! Pool, journal and resume are written once, generic over the
//! kind ([`kind`] says what a kind supplies), with:
//!
//! * byte-identical results at any worker count ([`pool`]),
//! * per-job panic isolation, each job bounded by its simulated-cycle
//!   budget ([`pool`]),
//! * structured JSON sweep reports with full run provenance under
//!   `results/runs/` ([`results`], [`provenance`]),
//! * persistent result caching keyed by the experiment's identity hash
//!   ([`cache`]),
//! * crash-resilient sweeps: an append-only write-ahead job journal
//!   enabling `--resume <run-id>` after a kill, and continuously
//!   refreshed partial reports ([`journal`], [`sweep`]),
//! * phase-resolved telemetry exports — JSONL time series plus Chrome
//!   `trace_event` JSON for chrome://tracing / Perfetto ([`telemetry`]),
//! * the multi-tenant serving sweep: `miopt-harness serve` runs a
//!   policy × load grid of QoS serving scenarios through that same
//!   machinery and reports per-tenant p50/p95/p99 latency and
//!   throughput ([`serve`]),
//! * the figure-extraction pipeline and the `miopt-harness` CLI that
//!   regenerates every paper figure through the pool ([`figures`],
//!   [`cli`]), with one flag grammar for every subcommand ([`flags`]),
//! * the reproduction gate, `miopt-harness check`: the paper's
//!   qualitative claims measured on the figure CSVs, each passing or
//!   failing for a known deviation ([`figures`]).
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
