//! The serving driver: tenants, dispatch loop, and per-tenant results.
//!
//! [`run`] drives one [`ApuSystem`] through a multi-tenant serving
//! scenario. The GPU executes one kernel at a time, so tenants share it
//! at kernel-launch granularity: the dispatcher round-robins over
//! tenants with queued requests, batches each dispatch (work-groups
//! scale with batch size), installs the tenant's cache policy and L2
//! way partition at the idle kernel boundary, and runs the batch to
//! completion through the ordinary phase machine. Gaps with no queued
//! work are crossed with [`ApuSystem::idle_until`], which preserves
//! bit-identity with per-cycle stepping.

use crate::ArrivalSchedule;
use miopt::runner::RunOptions;
use miopt::{ApuSystem, Metrics, PolicyConfig, StallDiagnostic, SystemConfig, WayRange};
use miopt_engine::Cycle;
use miopt_telemetry::{LatencyHistogram, TelemetryRun};
use miopt_workloads::Workload;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// One tenant of the served system: a model (workload), its cache
/// policy and L2 quota, and its request traffic.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name; must be unique within a [`ServeConfig`].
    pub name: String,
    /// The model this tenant serves — every dispatch launches the
    /// workload's kernels once, batched.
    pub workload: Workload,
    /// Cache policy installed while this tenant's kernels run.
    pub policy: PolicyConfig,
    /// Request arrival schedule (open loop).
    pub schedule: ArrivalSchedule,
    /// L2 ways this tenant may allocate into (`None` = all ways).
    /// Partitions of different tenants must not overlap.
    pub l2_partition: Option<WayRange>,
    /// Most requests folded into one dispatch. Batching multiplies the
    /// kernels' work-groups, trading per-request launch overhead for
    /// queueing delay.
    pub max_batch: u32,
}

/// A complete serving scenario: the machine plus its tenants.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The simulated machine.
    pub system: SystemConfig,
    /// The tenants sharing it (at least one).
    pub tenants: Vec<TenantSpec>,
    /// How the run executes. `max_cycles` is an absolute budget for the
    /// whole scenario; exceeding it is a [`ServeError`].
    pub run: RunOptions,
}

impl ServeConfig {
    /// Checks the scenario for internal consistency.
    ///
    /// # Errors
    ///
    /// Rejects an empty or duplicate tenant list, a zero batch limit,
    /// invalid run options ([`RunOptions::validate`]), and L2 partitions
    /// that do not fit the L2 or overlap another tenant's.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("a serving scenario needs at least one tenant".to_string());
        }
        self.run.validate().map_err(|e| e.to_string())?;
        let ways = self.system.l2.ways;
        for (i, t) in self.tenants.iter().enumerate() {
            if t.name.is_empty() {
                return Err("tenant names must be nonempty".to_string());
            }
            if self.tenants[..i].iter().any(|o| o.name == t.name) {
                return Err(format!("duplicate tenant name {:?}", t.name));
            }
            if t.max_batch == 0 {
                return Err(format!("tenant {:?}: max_batch must be at least 1", t.name));
            }
            if let Some(p) = t.l2_partition {
                p.validate(ways)
                    .map_err(|e| format!("tenant {:?}: {e}", t.name))?;
                for o in &self.tenants[..i] {
                    if let Some(q) = o.l2_partition {
                        if p.first < q.end() && q.first < p.end() {
                            return Err(format!(
                                "tenants {:?} and {:?} have overlapping L2 partitions",
                                o.name, t.name
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Why a serving run failed.
#[derive(Debug)]
pub enum ServeError {
    /// The scenario failed [`ServeConfig::validate`].
    Config(String),
    /// The simulator halted (budget exhausted mid-kernel, or a sentinel finding).
    Sim(Box<StallDiagnostic>),
    /// An arrival lies at or beyond the cycle budget, so the scenario
    /// cannot finish within it.
    Budget {
        /// The configured budget.
        max_cycles: u64,
        /// The offending arrival cycle.
        arrival: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "serve config: {msg}"),
            ServeError::Sim(e) => write!(f, "serve run: {e}"),
            ServeError::Budget {
                max_cycles,
                arrival,
            } => write!(
                f,
                "serve run: arrival at cycle {arrival} is outside the {max_cycles}-cycle budget"
            ),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Sim(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

/// What one tenant experienced over a serving run. Every field is an
/// exact integer, so the record serializes deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantResult {
    /// Tenant name (copied from the spec).
    pub name: String,
    /// Name of the workload the tenant serves.
    pub workload: String,
    /// Requests the schedule planned for this tenant.
    pub requested: u64,
    /// Requests that completed within the run.
    pub completed: u64,
    /// Dispatches (batched kernel-sequence launches).
    pub batches: u64,
    /// Individual kernel launches.
    pub kernels: u64,
    /// Cycles during which this tenant's kernels occupied the GPU.
    pub busy_cycles: u64,
    /// Deepest the tenant's request queue ever got.
    pub queue_peak: u64,
    /// DRAM read bursts attributed to this tenant's dispatches.
    pub dram_reads: u64,
    /// DRAM write bursts attributed to this tenant's dispatches.
    pub dram_writes: u64,
    /// Request-crossbar transfers during this tenant's dispatches.
    pub noc_req_transfers: u64,
    /// Response-crossbar transfers during this tenant's dispatches.
    pub noc_resp_transfers: u64,
    /// Sum of end-to-end request latencies (arrival to batch
    /// completion) in cycles; the mean is `latency_sum / completed`.
    pub latency_sum: u64,
    /// Median request latency in cycles (0 before any completion).
    pub p50: u64,
    /// 95th-percentile request latency in cycles.
    pub p95: u64,
    /// 99th-percentile request latency in cycles.
    pub p99: u64,
}

/// The outcome of a whole serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// Cycle at which the last dispatch completed.
    pub cycles: u64,
    /// Per-tenant accounting, in tenant declaration order.
    pub tenants: Vec<TenantResult>,
    /// Cumulative machine metrics over the whole run.
    pub metrics: Metrics,
    /// The telemetry time series, when sampling was enabled.
    pub telemetry: Option<TelemetryRun>,
}

/// Book-keeping the dispatcher holds per tenant while running.
struct TenantState {
    next_arrival: usize,
    queue: VecDeque<u64>,
    /// Request latencies, read into `result` once, at the end.
    latency: LatencyHistogram,
    result: TenantResult,
}

/// Runs the serving scenario to completion.
///
/// # Errors
///
/// Returns [`ServeError::Config`] for an inconsistent scenario,
/// [`ServeError::Budget`] when the schedule extends past the cycle
/// budget, and [`ServeError::Sim`] when a dispatch halts (budget
/// exhausted mid-kernel or a sentinel diagnostic).
pub fn run(cfg: &ServeConfig) -> Result<ServeResult, ServeError> {
    cfg.validate().map_err(ServeError::Config)?;

    let mut sys = ApuSystem::new_idle(cfg.system.clone(), cfg.tenants[0].policy);
    cfg.run.configure(&mut sys);

    let mut states: Vec<TenantState> = cfg
        .tenants
        .iter()
        .map(|t| TenantState {
            next_arrival: 0,
            queue: VecDeque::new(),
            latency: LatencyHistogram::new(),
            result: TenantResult {
                name: t.name.clone(),
                workload: t.workload.name.clone(),
                requested: t.schedule.len() as u64,
                ..TenantResult::default()
            },
        })
        .collect();

    let mut seq: u32 = 0;
    let mut cursor = 0usize;
    let mut last_completion = 0u64;
    loop {
        let now = sys.now().0;

        // Admit every request that has arrived by now.
        for (spec, st) in cfg.tenants.iter().zip(states.iter_mut()) {
            let arrivals = spec.schedule.arrivals();
            while st.next_arrival < arrivals.len() && arrivals[st.next_arrival] <= now {
                st.queue.push_back(arrivals[st.next_arrival]);
                st.next_arrival += 1;
            }
            st.result.queue_peak = st.result.queue_peak.max(st.queue.len() as u64);
        }

        // Round-robin over tenants with queued work.
        let n = states.len();
        let pick = (0..n)
            .map(|i| (cursor + i) % n)
            .find(|&i| !states[i].queue.is_empty());

        let Some(i) = pick else {
            // Nobody has work: cross the gap to the next arrival, or
            // finish if every schedule is exhausted.
            let next = cfg
                .tenants
                .iter()
                .zip(states.iter())
                .filter_map(|(spec, st)| spec.schedule.arrivals().get(st.next_arrival).copied())
                .min();
            match next {
                Some(cycle) => {
                    if cycle >= cfg.run.max_cycles {
                        return Err(ServeError::Budget {
                            max_cycles: cfg.run.max_cycles,
                            arrival: cycle,
                        });
                    }
                    sys.idle_until(Cycle(cycle));
                    continue;
                }
                None => break,
            }
        };
        cursor = (i + 1) % n;

        let spec = &cfg.tenants[i];
        let batch: Vec<u64> = {
            let take = (spec.max_batch as usize).min(states[i].queue.len());
            states[i].queue.drain(..take).collect()
        };

        let before = sys.metrics();
        let (req_before, resp_before) = sys.noc_transfers();
        let busy_start = sys.now().0;

        sys.set_policy_config(&spec.policy, spec.l2_partition);
        for kernel in &spec.workload.launches {
            let mut desc = (**kernel).clone();
            desc.wgs = desc.wgs.saturating_mul(batch.len() as u32);
            sys.enqueue_kernel(Arc::new(desc), seq);
            seq = seq.wrapping_add(1);
        }
        let after = sys
            .run_to_completion(cfg.run.max_cycles)
            .map_err(ServeError::Sim)?;
        let done = sys.now().0;
        last_completion = done;

        let TenantState {
            latency,
            result: st,
            ..
        } = &mut states[i];
        for arrival in batch {
            latency.record(done - arrival);
            st.completed += 1;
        }
        st.batches += 1;
        st.kernels += spec.workload.launches.len() as u64;
        st.busy_cycles += done - busy_start;
        st.dram_reads += after.dram.reads.get() - before.dram.reads.get();
        st.dram_writes += after.dram.writes.get() - before.dram.writes.get();
        let (req_after, resp_after) = sys.noc_transfers();
        st.noc_req_transfers += req_after - req_before;
        st.noc_resp_transfers += resp_after - resp_before;
    }

    Ok(ServeResult {
        cycles: last_completion,
        tenants: states
            .into_iter()
            .map(|s| TenantResult {
                latency_sum: u64::try_from(s.latency.sum()).unwrap_or(u64::MAX),
                p50: s.latency.quantile(0.50).unwrap_or(0),
                p95: s.latency.quantile(0.95).unwrap_or(0),
                p99: s.latency.quantile(0.99).unwrap_or(0),
                ..s.result
            })
            .collect(),
        metrics: sys.metrics(),
        telemetry: sys.take_telemetry(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use miopt::CachePolicy;
    use miopt_workloads::{by_name, SuiteConfig};

    fn tenant(name: &str, workload: &str, schedule: ArrivalSchedule) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            workload: by_name(&SuiteConfig::quick(), workload).unwrap(),
            policy: PolicyConfig::of(CachePolicy::CacheR),
            schedule,
            l2_partition: None,
            max_batch: 2,
        }
    }

    fn two_tenant_config() -> ServeConfig {
        ServeConfig {
            system: SystemConfig::small_test(),
            tenants: vec![
                TenantSpec {
                    l2_partition: Some(WayRange::new(0, 4)),
                    ..tenant("fw", "FwSoft", ArrivalSchedule::trace(vec![0, 0, 40_000]))
                },
                TenantSpec {
                    l2_partition: Some(WayRange::new(4, 4)),
                    policy: PolicyConfig::of(CachePolicy::CacheRW),
                    ..tenant("bw", "FwPool", ArrivalSchedule::poisson(7, 30_000.0, 3))
                },
            ],
            run: RunOptions {
                max_cycles: 200_000_000,
                check_invariants: true,
                ..RunOptions::default()
            },
        }
    }

    #[test]
    fn two_tenants_complete_every_request() {
        let res = run(&two_tenant_config()).unwrap();
        assert_eq!(res.tenants.len(), 2);
        for t in &res.tenants {
            assert_eq!(t.completed, t.requested, "tenant {}", t.name);
            assert!(t.latency_sum >= t.completed);
            assert!(t.p50 > 0);
            assert!(t.p99 >= t.p50);
            assert!(t.busy_cycles > 0);
            assert!(t.dram_reads > 0);
            assert!(t.noc_req_transfers > 0);
        }
        // The two tenants interleave: both saw GPU time, and the run
        // lasts at least as long as the busiest tenant.
        let busy: u64 = res.tenants.iter().map(|t| t.busy_cycles).sum();
        assert!(res.cycles >= busy / 2);
        // Batching: tenant "fw"'s simultaneous arrivals at cycle 0 fold
        // into one dispatch, so 3 requests take 2 batches.
        assert_eq!(res.tenants[0].batches, 2);
    }

    #[test]
    fn serve_runs_are_deterministic() {
        let a = run(&two_tenant_config()).unwrap();
        let b = run(&two_tenant_config()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn skip_and_no_skip_are_bit_identical() {
        // The second interval lands on the end of the first batch (tenant
        // "fw"'s two arrivals at cycle 0), a sample the run that follows
        // must not lose.
        let mut first = two_tenant_config();
        first.tenants.truncate(1);
        first.tenants[0].schedule = ArrivalSchedule::trace(vec![0, 0]);
        let first_batch_end = run(&first).unwrap().cycles;
        for interval in [10_000, first_batch_end] {
            let mut cfg = two_tenant_config();
            cfg.run.telemetry_interval = Some(interval);
            let fast = run(&cfg).unwrap();
            cfg.run.no_skip = true;
            let slow = run(&cfg).unwrap();
            assert_eq!(fast, slow, "interval {interval}");
        }
    }

    #[test]
    fn overlapping_partitions_are_rejected() {
        let mut cfg = two_tenant_config();
        cfg.tenants[1].l2_partition = Some(WayRange::new(3, 2));
        let err = run(&cfg).unwrap_err();
        assert!(matches!(err, ServeError::Config(_)), "{err}");
        assert!(err.to_string().contains("overlapping"));
    }

    #[test]
    fn config_validation_catches_bad_scenarios() {
        let base = two_tenant_config();

        let mut empty = base.clone();
        empty.tenants.clear();
        assert!(empty.validate().is_err());

        let mut dup = base.clone();
        dup.tenants[1].name = "fw".to_string();
        assert!(dup.validate().is_err());

        let mut batch = base.clone();
        batch.tenants[0].max_batch = 0;
        assert!(batch.validate().is_err());

        let mut oversized = base.clone();
        oversized.tenants[0].l2_partition = Some(WayRange::new(4, 8));
        assert!(oversized.validate().is_err());

        let mut budget = base.clone();
        budget.run.max_cycles = 0;
        assert!(budget.validate().is_err());

        assert!(base.validate().is_ok());
    }

    #[test]
    fn zero_telemetry_interval_is_a_config_error() {
        let mut cfg = two_tenant_config();
        cfg.run.telemetry_interval = Some(0);
        match run(&cfg) {
            Err(ServeError::Config(e)) => assert!(e.contains("telemetry interval"), "{e}"),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    /// A halted dispatch reads `serve run: ` and the diagnostic's status
    /// line, in the wording of the figure sweeps' halted jobs.
    #[test]
    fn halted_serve_status_lines_are_pinned() {
        let mut cfg = two_tenant_config();
        cfg.tenants.truncate(1);
        cfg.tenants[0].schedule = ArrivalSchedule::trace(vec![0]);
        cfg.run.max_cycles = 10;
        assert_eq!(
            run(&cfg).unwrap_err().to_string(),
            "serve run: simulation exceeded 10 cycles"
        );
        let status = |inject: &dyn Fn(&mut ApuSystem)| {
            let w = &cfg.tenants[0].workload;
            let mut sys = ApuSystem::new(SystemConfig::small_test(), cfg.tenants[0].policy, w);
            inject(&mut sys);
            let halt = sys.run_to_completion(200_000_000).expect_err("must halt");
            ServeError::Sim(halt).to_string()
        };
        let wedged = status(&|sys| {
            for k in 0..8 {
                sys.inject_l1_mshr_leak(0, miopt_engine::LineAddr(1_000_000 + k), false);
            }
            sys.enable_sentinel(64, 5_000);
        });
        assert_eq!(wedged, "serve run: no forward progress since cycle 5184");
        let violated = status(&|sys| {
            sys.inject_queue_credit_loss(0);
            sys.enable_sentinel(64, 0);
        });
        assert_eq!(
            violated,
            "serve run: invariant violation at cycle 64 (queue.l1_in[0]: invariant \
             `credit_conservation` violated: 1 flow-control credit(s) lost: usable \
             capacity 15 < configured 16)"
        );
    }

    #[test]
    fn budget_too_small_for_schedule_is_a_typed_error() {
        let mut cfg = two_tenant_config();
        cfg.tenants[0].schedule = ArrivalSchedule::trace(vec![0, 500_000]);
        cfg.tenants[1].schedule = ArrivalSchedule::trace(vec![0]);
        cfg.run.max_cycles = 400_000;
        match run(&cfg) {
            Err(ServeError::Budget { arrival, .. }) => assert_eq!(arrival, 500_000),
            Err(ServeError::Sim(_)) => {} // first dispatches outran the budget
            other => panic!("expected a budget error, got {other:?}"),
        }
    }
}
