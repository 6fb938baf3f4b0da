//! `miopt` — a reproduction of *"Optimizing GPU Cache Policies for MI
//! Workloads"* (Alsop et al., IISWC 2019) as a from-scratch, cycle-level
//! GPU memory-system simulator.
//!
//! The paper characterizes 17 machine-intelligence benchmarks under three
//! static GPU caching policies and evaluates three cooperative cache
//! optimizations. This crate assembles the full simulated APU from the
//! subsystem crates and exposes the paper's experiment surface:
//!
//! * [`SystemConfig`] — the Table 1 machine (64 CUs, 16 KB L1s, 4 MB L2,
//!   HBM2 at 512 GB/s).
//! * [`CachePolicy`] / [`OptimizationSet`] / [`PolicyConfig`] — the
//!   Section III policies (`Uncached`, `CacheR`, `CacheRW`) and the
//!   Section VII optimization ladder (`-AB`, `-CR`, `-PCby`).
//! * [`ApuSystem`] — the wired system; run a workload, get [`Metrics`].
//! * [`runner`] — figure-level sweeps: every workload × every policy, and
//!   the optimization ladder against the static best/worst. Entry points
//!   return `Result<_, `[`runner::SimError`]`>`; inconsistent
//!   configurations are rejected up front as typed [`ConfigError`]s
//!   (see [`SystemConfig::builder`] and [`PolicyConfig::new`]).
//! * Telemetry — [`runner::RunOptions::telemetry_interval`] (or
//!   [`ApuSystem::enable_telemetry`]) samples every component's counters
//!   on a fixed cycle interval and records phase spans and events into a
//!   deterministic `miopt_telemetry::TelemetryRun` time series.
//! * Sentinel — [`runner::RunOptions::check_invariants`] (or
//!   [`ApuSystem::enable_sentinel`]) sweeps every component's
//!   conservation invariants on a cadence and watches for forward
//!   progress; a stuck or inconsistent run halts with a structured
//!   [`StallDiagnostic`] instead of burning its whole cycle budget.
//!   Debug builds always run checked.
//!
//! # Quickstart
//!
//! ```
//! use miopt::{ApuSystem, CachePolicy, PolicyConfig, SystemConfig};
//! use miopt_workloads::{by_name, SuiteConfig};
//!
//! // Simulate the forward-softmax layer under the CacheR policy.
//! let workload = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
//! let mut sys = ApuSystem::new(
//!     SystemConfig::small_test(),
//!     PolicyConfig::of(CachePolicy::CacheR),
//!     &workload,
//! );
//! let metrics = sys.run_to_completion(100_000_000).unwrap();
//! println!(
//!     "{} cycles, {} DRAM accesses, row hit ratio {:.1}%",
//!     metrics.cycles,
//!     metrics.dram_accesses(),
//!     metrics.row_hit_ratio() * 100.0
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod metrics;
mod policy;
pub mod runner;
mod system;

pub use config::{ConfigError, SystemConfig, SystemConfigBuilder};
// Cache-level types that appear in the public serving API
// (`ApuSystem::set_policy_config`, `PolicyConfig::l1_policy` /
// `l2_policy`).
pub use metrics::Metrics;
pub use miopt_cache::{LevelPolicy, WayRange};
pub use policy::{optimization_ladder, CachePolicy, OptimizationSet, PolicyConfig};
pub use system::{ApuSystem, EventProfile, EventProfileRow, StallDiagnostic, StallReason};
