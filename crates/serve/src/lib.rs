//! `miopt-serve` — multi-tenant inference serving on the simulated APU.
//!
//! The paper's sweeps measure isolated kernel runtime. This crate asks
//! the serving question instead: with several model instances
//! ("tenants") sharing one GPU under open-loop request traffic, which
//! cache policy minimizes *tail latency*? A policy that wins on mean
//! kernel runtime can lose on p99 once queueing amplifies its
//! worst-case kernels.
//!
//! The pieces:
//!
//! * [`ArrivalSchedule`] — deterministic request traffic per tenant:
//!   seeded Poisson or an explicit trace, pre-expanded so the schedule
//!   is plain, hashable data.
//! * [`TenantSpec`] / [`ServeConfig`] — a tenant binds a workload from
//!   `miopt-workloads` to a [`miopt::PolicyConfig`], an optional QoS L2
//!   way partition, and a batching limit.
//! * [`run`] — the dispatcher: admits arrivals, round-robins batched
//!   dispatches across tenants at idle kernel boundaries (the GPU runs
//!   one kernel at a time), installs each tenant's policy and partition
//!   via [`miopt::ApuSystem::set_policy_config`], and crosses idle gaps
//!   with event-driven time skipping. Runs are bit-identical with and
//!   without skipping.
//! * [`TenantResult`] / [`ServeResult`] — per-tenant request latency
//!   (sum, p50/p95/p99), throughput, queue depth, and attributed DRAM
//!   and crossbar traffic, all exact integers: the record a sweep
//!   journals.
//!
//! # Example
//!
//! ```
//! use miopt::runner::RunOptions;
//! use miopt::{CachePolicy, PolicyConfig, SystemConfig, WayRange};
//! use miopt_serve::{run, ArrivalSchedule, ServeConfig, TenantSpec};
//! use miopt_workloads::{by_name, SuiteConfig};
//!
//! let cfg = ServeConfig {
//!     system: SystemConfig::small_test(),
//!     tenants: vec![TenantSpec {
//!         name: "softmax".into(),
//!         workload: by_name(&SuiteConfig::quick(), "FwSoft").unwrap(),
//!         policy: PolicyConfig::of(CachePolicy::CacheR),
//!         schedule: ArrivalSchedule::poisson(1, 50_000.0, 4),
//!         l2_partition: Some(WayRange::new(0, 4)),
//!         max_batch: 2,
//!     }],
//!     run: RunOptions {
//!         max_cycles: 100_000_000,
//!         ..RunOptions::default()
//!     },
//! };
//! let result = run(&cfg).unwrap();
//! let t = &result.tenants[0];
//! assert_eq!(t.completed, 4);
//! println!("p99 latency: {} cycles", t.p99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod sim;

pub use arrival::ArrivalSchedule;
pub use sim::{run, ServeConfig, ServeError, ServeResult, TenantResult, TenantSpec};
