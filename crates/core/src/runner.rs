//! Figure-level experiment sweeps.
//!
//! A [`SweepSpec`] describes the runs behind one or more of the paper's
//! figures; the `miopt-harness` pool executes its jobs and formats the
//! printed tables and CSVs.

use crate::config::ConfigError;
use crate::system::StallDiagnostic;
use crate::{optimization_ladder, ApuSystem, CachePolicy, Metrics, PolicyConfig, SystemConfig};
use miopt_telemetry::TelemetryRun;
use miopt_workloads::Workload;
use std::error::Error;
use std::fmt;

/// Default cycle budget for a single run before declaring a hang.
pub const DEFAULT_MAX_CYCLES: u64 = 20_000_000_000;

/// Why a simulation run could not produce a result.
///
/// Returned by [`run_one`] / [`SweepSpec::run_job`] so executors (the
/// `miopt-harness` pool, benches, examples) can report per-job failures
/// instead of unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run stopped before finishing: its cycle budget ran out, or —
    /// with invariant checking enabled — the watchdog declared it wedged
    /// or an invariant check failed. `diagnostic.reason` says which.
    Halted {
        /// Workload name of the failed run.
        workload: String,
        /// Policy label of the failed run.
        policy: String,
        /// The state of the halted system.
        diagnostic: Box<StallDiagnostic>,
    },
    /// The system, policy or run configuration was rejected up front.
    Config(ConfigError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Halted {
                workload,
                policy,
                diagnostic,
            } => write!(f, "{workload}/{policy}: {diagnostic}"),
            SimError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Halted { diagnostic, .. } => Some(diagnostic.as_ref()),
            SimError::Config(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

/// Per-run execution options: the cycle budget, optional telemetry, and
/// optional invariant checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Cycle budget before the run fails with [`SimError::Halted`].
    pub max_cycles: u64,
    /// `Some(interval)` samples telemetry every `interval` cycles;
    /// `None` (the default) runs with zero observation overhead.
    pub telemetry_interval: Option<u64>,
    /// Runs with the sentinel enabled: periodic invariant sweeps plus the
    /// forward-progress watchdog ([`ApuSystem::enable_sentinel`]).
    /// `false` (the default) costs nothing in release builds; debug
    /// builds check regardless.
    pub check_invariants: bool,
    /// Forces per-cycle stepping, disabling event-driven time skipping
    /// ([`ApuSystem::set_time_skip`]). The two modes are bit-identical;
    /// this exists for equivalence testing and debugging, and costs
    /// wall-clock time on latency-bound runs.
    pub no_skip: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            max_cycles: DEFAULT_MAX_CYCLES,
            telemetry_interval: None,
            check_invariants: false,
            no_skip: false,
        }
    }
}

impl RunOptions {
    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Run`] for a zero cycle budget or a zero
    /// telemetry interval.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_cycles == 0 {
            return Err(ConfigError::Run("max_cycles must be nonzero".to_string()));
        }
        if self.telemetry_interval == Some(0) {
            return Err(ConfigError::Run(
                "telemetry interval must be at least 1 cycle".to_string(),
            ));
        }
        Ok(())
    }

    /// Sets `sys` up to run under these options: telemetry, the
    /// sentinel and time skipping. The cycle budget is the caller's to
    /// pass to [`ApuSystem::run_to_completion`].
    pub fn configure(&self, sys: &mut ApuSystem) {
        if let Some(interval) = self.telemetry_interval {
            sys.enable_telemetry(interval);
        }
        if self.check_invariants {
            sys.enable_sentinel(
                ApuSystem::DEFAULT_CHECK_INTERVAL,
                ApuSystem::DEFAULT_WATCHDOG,
            );
        }
        sys.set_time_skip(!self.no_skip);
    }
}

/// The result of one (workload, policy) simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// The policy configuration label (e.g. `CacheRW-PCby`).
    pub policy: PolicyConfig,
    /// All collected statistics.
    pub metrics: Metrics,
    /// The recorded time series, when the run was executed with
    /// [`RunOptions::telemetry_interval`] set (cache hits and plain runs
    /// carry `None`).
    pub telemetry: Option<TelemetryRun>,
}

/// Runs one workload under one policy configuration with the default
/// [`RunOptions`].
///
/// # Errors
///
/// Returns [`SimError::Config`] if the configuration is inconsistent and
/// [`SimError::Halted`] if the run exceeds [`DEFAULT_MAX_CYCLES`].
pub fn run_one(
    cfg: &SystemConfig,
    workload: &Workload,
    policy: PolicyConfig,
) -> Result<RunResult, SimError> {
    run_one_with(cfg, workload, policy, &RunOptions::default())
}

/// Runs one workload under one policy configuration with explicit
/// [`RunOptions`] (cycle budget, telemetry).
///
/// # Errors
///
/// Returns [`SimError::Config`] if the system, policy or run options are
/// inconsistent and [`SimError::Halted`] if the run exceeds
/// `opts.max_cycles` or the sentinel stops it.
pub fn run_one_with(
    cfg: &SystemConfig,
    workload: &Workload,
    policy: PolicyConfig,
    opts: &RunOptions,
) -> Result<RunResult, SimError> {
    opts.validate()?;
    cfg.validate()?;
    policy.validate()?;
    let mut sys = ApuSystem::new(cfg.clone(), policy, workload);
    opts.configure(&mut sys);
    let metrics = sys
        .run_to_completion(opts.max_cycles)
        .map_err(|diagnostic| SimError::Halted {
            workload: workload.name.clone(),
            policy: policy.label(),
            diagnostic,
        })?;
    Ok(RunResult {
        workload: workload.name.clone(),
        policy,
        metrics,
        telemetry: sys.take_telemetry(),
    })
}

/// One independent unit of sweep work: simulate `workload` under
/// `policy`.
///
/// Jobs are *descriptions*, not computations: a [`SweepSpec`] enumerates
/// them in a deterministic order and any executor — the `miopt-harness`
/// worker pool, or a test walking them in order — can run them in any
/// order and reassemble identical figure series, because assembly keys on
/// the job id rather than on completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Dense index of this job within its [`SweepSpec`] (also the slot
    /// its result occupies during assembly).
    pub id: usize,
    /// Index into [`SweepSpec::workloads`].
    pub workload: usize,
    /// The policy configuration to simulate under.
    pub policy: PolicyConfig,
}

/// A deliberate executor-level fault to inject into one job of a sweep,
/// for testing executor robustness (the `miopt-harness` pool's panic
/// path). Production sweeps carry none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFault {
    /// [`SweepSpec::run_job`] panics when asked to run this job id.
    Panic(usize),
}

/// A declarative description of a (workload × policy) experiment grid.
///
/// The job list is workload-major and policy-minor; see [`Job`].
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The simulated machine.
    pub cfg: SystemConfig,
    /// The workloads under study.
    pub workloads: Vec<Workload>,
    /// The per-workload policy grid, in figure order. The first
    /// [`SweepSpec::n_static`] entries are the static policies.
    pub policies: Vec<PolicyConfig>,
    /// How many leading entries of `policies` are the static policies
    /// (the Figures 6–9 columns); the rest form the optimization ladder.
    pub n_static: usize,
    /// Execution options applied to every job of the grid.
    pub run_opts: RunOptions,
    /// Deliberate executor-level faults ([`JobFault`]) for robustness
    /// tests; empty (the default) for every real sweep.
    pub faults: Vec<JobFault>,
}

impl SweepSpec {
    /// The Figures 6–9 grid: every workload under each static policy.
    #[must_use]
    pub fn statics(cfg: SystemConfig, workloads: Vec<Workload>) -> SweepSpec {
        SweepSpec {
            cfg,
            workloads,
            policies: CachePolicy::ALL
                .iter()
                .map(|&p| PolicyConfig::of(p))
                .collect(),
            n_static: CachePolicy::ALL.len(),
            run_opts: RunOptions::default(),
            faults: Vec::new(),
        }
    }

    /// The full Figures 6–13 grid: the three static policies plus the
    /// three ladder configurations per workload.
    #[must_use]
    pub fn figures(cfg: SystemConfig, workloads: Vec<Workload>) -> SweepSpec {
        let mut spec = SweepSpec::statics(cfg, workloads);
        spec.policies.extend(optimization_ladder());
        spec
    }

    /// Every job of the grid, in deterministic workload-major order.
    #[must_use]
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(self.workloads.len() * self.policies.len());
        for w in 0..self.workloads.len() {
            for &policy in &self.policies {
                jobs.push(Job {
                    id: jobs.len(),
                    workload: w,
                    policy,
                });
            }
        }
        jobs
    }

    /// Total number of jobs in the grid.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.workloads.len() * self.policies.len()
    }

    /// Runs one job to completion (the executor-side entry point).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is inconsistent or the
    /// job exceeds the spec's cycle budget.
    ///
    /// # Panics
    ///
    /// Panics when the spec carries a matching injected [`JobFault`] —
    /// robustness tests only.
    pub fn run_job(&self, job: &Job) -> Result<RunResult, SimError> {
        if self.faults.contains(&JobFault::Panic(job.id)) {
            panic!("injected fault: job {} panics", job.id);
        }
        run_one_with(
            &self.cfg,
            &self.workloads[job.workload],
            job.policy,
            &self.run_opts,
        )
    }

    /// A short human-readable label for a job (progress reporting).
    #[must_use]
    pub fn job_label(&self, job: &Job) -> String {
        format!("{}/{}", self.workloads[job.workload].name, job.policy)
    }

    /// Reassembles completed job results into the Figures 6–9 static
    /// sweep structure: one row per workload, one static policy per
    /// column.
    ///
    /// `results` must hold one result per job, indexed by job id (the
    /// order [`SweepSpec::jobs`] produces).
    ///
    /// # Panics
    ///
    /// Panics if `results` does not have exactly [`SweepSpec::job_count`]
    /// entries.
    #[must_use]
    pub fn assemble_statics(&self, results: &[RunResult]) -> Vec<Vec<RunResult>> {
        assert_eq!(
            results.len(),
            self.job_count(),
            "one result per job required"
        );
        let stride = self.policies.len();
        (0..self.workloads.len())
            .map(|w| results[w * stride..w * stride + self.n_static].to_vec())
            .collect()
    }

    /// Reassembles completed job results into the Figures 10–13 ladder
    /// structure (only meaningful for specs with ladder policies, i.e.
    /// [`SweepSpec::figures`]).
    ///
    /// # Panics
    ///
    /// Panics if `results` does not have exactly [`SweepSpec::job_count`]
    /// entries, or if the spec has no ladder policies.
    #[must_use]
    pub fn assemble_ladders(&self, results: &[RunResult]) -> Vec<LadderResult> {
        assert_eq!(
            results.len(),
            self.job_count(),
            "one result per job required"
        );
        assert!(
            self.policies.len() > self.n_static,
            "spec has no ladder policies to assemble"
        );
        let stride = self.policies.len();
        (0..self.workloads.len())
            .map(|w| LadderResult {
                workload: self.workloads[w].name.clone(),
                statics: results[w * stride..w * stride + self.n_static].to_vec(),
                ladder: results[w * stride + self.n_static..(w + 1) * stride].to_vec(),
            })
            .collect()
    }
}

/// One workload's Figure 10–13 data: the three static policy runs (from
/// which the paper derives the static best and worst by execution time)
/// plus the three ladder configurations.
#[derive(Debug, Clone)]
pub struct LadderResult {
    /// Workload name.
    pub workload: String,
    /// The three static runs (Uncached, CacheR, CacheRW), in that order.
    pub statics: Vec<RunResult>,
    /// `CacheRW-AB`, `CacheRW-CR`, `CacheRW-PCby`, in order.
    pub ladder: Vec<RunResult>,
}

impl LadderResult {
    /// The fastest static configuration (Figure 10's `StaticBest`).
    #[must_use]
    pub fn static_best(&self) -> &RunResult {
        self.statics
            .iter()
            .min_by_key(|r| r.metrics.cycles)
            .expect("statics nonempty")
    }

    /// The slowest static configuration (Figure 10's `StaticWorst`).
    #[must_use]
    pub fn static_worst(&self) -> &RunResult {
        self.statics
            .iter()
            .max_by_key(|r| r.metrics.cycles)
            .expect("statics nonempty")
    }

    /// The `Uncached` static run (the Figures 7/11 normalization base).
    #[must_use]
    pub fn uncached(&self) -> &RunResult {
        self.statics
            .iter()
            .find(|r| r.policy.policy == CachePolicy::Uncached)
            .expect("statics include Uncached")
    }
}

/// Classifies a workload from its measured static-sweep results using the
/// paper's Figure 6 rule: <5% spread = insensitive; caching faster =
/// reuse sensitive; caching slower = throughput sensitive.
#[must_use]
pub fn classify(static_runs: &[RunResult]) -> miopt_workloads::Category {
    let unc = static_runs
        .iter()
        .find(|r| r.policy.policy == CachePolicy::Uncached)
        .expect("sweep includes Uncached");
    let best_cached = static_runs
        .iter()
        .filter(|r| r.policy.policy != CachePolicy::Uncached)
        .min_by_key(|r| r.metrics.cycles)
        .expect("sweep includes cached policies");
    let worst_cached = static_runs
        .iter()
        .filter(|r| r.policy.policy != CachePolicy::Uncached)
        .max_by_key(|r| r.metrics.cycles)
        .expect("sweep includes cached policies");
    let base = unc.metrics.cycles as f64;
    let best = best_cached.metrics.cycles as f64 / base;
    let worst = worst_cached.metrics.cycles as f64 / base;
    if best < 0.95 {
        miopt_workloads::Category::ReuseSensitive
    } else if worst > 1.05 {
        miopt_workloads::Category::ThroughputSensitive
    } else {
        miopt_workloads::Category::Insensitive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StallReason;
    use miopt_telemetry::StatSnapshot;
    use miopt_workloads::{by_name, SuiteConfig};

    /// Runs every job of `spec` in job order.
    fn run_all(spec: &SweepSpec) -> Vec<RunResult> {
        spec.jobs()
            .iter()
            .map(|j| spec.run_job(j).expect("job runs"))
            .collect()
    }

    #[test]
    fn static_sweep_produces_three_runs_per_workload() {
        let cfg = SystemConfig::small_test();
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let spec = SweepSpec::statics(cfg, vec![w]);
        let sweep = spec.assemble_statics(&run_all(&spec));
        assert_eq!(sweep.len(), 1);
        assert_eq!(sweep[0].len(), 3);
        let labels: Vec<String> = sweep[0].iter().map(|r| r.policy.label()).collect();
        assert_eq!(labels, vec!["Uncached", "CacheR", "CacheRW"]);
    }

    #[test]
    fn ladder_orders_best_before_worst() {
        let cfg = SystemConfig::small_test();
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let spec = SweepSpec::figures(cfg, vec![w]);
        let ladder = spec.assemble_ladders(&run_all(&spec));
        assert_eq!(ladder.len(), 1);
        let l = &ladder[0];
        assert!(l.static_best().metrics.cycles <= l.static_worst().metrics.cycles);
        assert_eq!(l.uncached().policy.policy, CachePolicy::Uncached);
        assert_eq!(l.ladder.len(), 3);
        assert_eq!(l.ladder[2].policy.label(), "CacheRW-PCby");
    }

    #[test]
    fn classify_follows_the_5_percent_rule() {
        let cfg = SystemConfig::small_test();
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let spec = SweepSpec::statics(cfg, vec![w]);
        let sweep = spec.assemble_statics(&run_all(&spec));
        // FwSoft re-reads a tiny array: must not classify as throughput
        // sensitive.
        let c = classify(&sweep[0]);
        assert_ne!(c, miopt_workloads::Category::ThroughputSensitive);
    }

    #[test]
    fn figures_spec_enumerates_the_full_grid_in_serial_order() {
        let cfg = SystemConfig::small_test();
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let spec = SweepSpec::figures(cfg, vec![w.clone(), w]);
        assert_eq!(spec.job_count(), 12);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 12);
        // Workload-major, policy-minor, with dense ids.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
            assert_eq!(j.workload, i / 6);
        }
        let labels: Vec<String> = jobs[..6].iter().map(|j| j.policy.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Uncached",
                "CacheR",
                "CacheRW",
                "CacheRW-AB",
                "CacheRW-CR",
                "CacheRW-PCby"
            ]
        );
        assert_eq!(spec.job_label(&jobs[1]), "FwSoft/CacheR");
    }

    #[test]
    fn assembly_reproduces_the_serial_sweep_structures() {
        let cfg = SystemConfig::small_test();
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let spec = SweepSpec::figures(cfg.clone(), vec![w.clone()]);
        let results = run_all(&spec);
        let statics = spec.assemble_statics(&results);
        let ladders = spec.assemble_ladders(&results);
        let statics_spec = SweepSpec::statics(cfg, vec![w]);
        let serial_statics = statics_spec.assemble_statics(&run_all(&statics_spec));
        assert_eq!(statics.len(), 1);
        for (a, b) in statics[0].iter().zip(&serial_statics[0]) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.metrics, b.metrics);
        }
        assert_eq!(ladders.len(), 1);
        assert_eq!(ladders[0].statics.len(), 3);
        assert_eq!(ladders[0].ladder.len(), 3);
        assert_eq!(ladders[0].ladder[2].policy.label(), "CacheRW-PCby");
    }

    /// Builds a synthetic static-sweep result with the given cycle counts
    /// for (Uncached, CacheR, CacheRW).
    fn synthetic_statics(unc: u64, r: u64, rw: u64) -> Vec<RunResult> {
        use miopt_cache::CacheStats;
        use miopt_dram::DramStats;
        use miopt_gpu::GpuStats;
        CachePolicy::ALL
            .iter()
            .zip([unc, r, rw])
            .map(|(&p, cycles)| RunResult {
                workload: "synthetic".to_string(),
                policy: PolicyConfig::of(p),
                metrics: Metrics::from_parts(
                    cycles,
                    GpuStats::default(),
                    DramStats::default(),
                    CacheStats::default(),
                    CacheStats::default(),
                    1.6e9,
                ),
                telemetry: None,
            })
            .collect()
    }

    #[test]
    fn timeout_returns_an_error_instead_of_panicking() {
        let cfg = SystemConfig::small_test();
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let opts = RunOptions {
            max_cycles: 10,
            ..RunOptions::default()
        };
        let err = run_one_with(&cfg, &w, PolicyConfig::of(CachePolicy::CacheR), &opts)
            .expect_err("10 cycles cannot finish a run");
        match &err {
            SimError::Halted {
                workload,
                policy,
                diagnostic,
            } => {
                assert_eq!(workload, "FwSoft");
                assert_eq!(policy, "CacheR");
                assert_eq!(diagnostic.budget, 10);
                assert_eq!(diagnostic.reason, StallReason::CycleBudget);
                assert_eq!(diagnostic.cycle, 10);
                assert_eq!(diagnostic.phase, "launch");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(err.to_string().contains("FwSoft/CacheR"));
    }

    #[test]
    fn halted_run_status_lines_are_pinned() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let policy = PolicyConfig::of(CachePolicy::CacheR);
        let status = |max_cycles: u64, inject: &dyn Fn(&mut ApuSystem)| {
            let mut sys = ApuSystem::new(SystemConfig::small_test(), policy, &w);
            inject(&mut sys);
            let diagnostic = sys.run_to_completion(max_cycles).expect_err("must halt");
            SimError::Halted {
                workload: w.name.clone(),
                policy: policy.label(),
                diagnostic,
            }
            .to_string()
        };
        assert_eq!(
            status(10, &|_| {}),
            "FwSoft/CacheR: simulation exceeded 10 cycles"
        );
        let wedged = status(200_000, &|sys| {
            for k in 0..8 {
                sys.inject_l1_mshr_leak(0, miopt_engine::LineAddr(1_000_000 + k), false);
            }
            sys.enable_sentinel(64, 5_000);
        });
        assert_eq!(
            wedged,
            "FwSoft/CacheR: no forward progress since cycle 5184"
        );
        let violated = status(200_000_000, &|sys| {
            sys.inject_queue_credit_loss(0);
            sys.enable_sentinel(64, 0);
        });
        assert_eq!(
            violated,
            "FwSoft/CacheR: invariant violation at cycle 64 (queue.l1_in[0]: invariant \
             `credit_conservation` violated: 1 flow-control credit(s) lost: usable \
             capacity 15 < configured 16)"
        );
    }

    #[test]
    fn invalid_options_and_configs_surface_as_config_errors() {
        let cfg = SystemConfig::small_test();
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let zero_interval = RunOptions {
            telemetry_interval: Some(0),
            ..RunOptions::default()
        };
        assert!(matches!(
            run_one_with(
                &cfg,
                &w,
                PolicyConfig::of(CachePolicy::CacheR),
                &zero_interval
            ),
            Err(SimError::Config(crate::ConfigError::Run(_)))
        ));
        let mut bad = cfg.clone();
        bad.n_cus = 0;
        assert!(matches!(
            run_one(&bad, &w, PolicyConfig::of(CachePolicy::CacheR)),
            Err(SimError::Config(crate::ConfigError::System(_)))
        ));
    }

    #[test]
    fn telemetry_epoch_deltas_sum_to_the_final_counters() {
        let cfg = SystemConfig::small_test();
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let opts = RunOptions {
            telemetry_interval: Some(1000),
            ..RunOptions::default()
        };
        let r = run_one_with(&cfg, &w, PolicyConfig::of(CachePolicy::CacheRW), &opts).unwrap();
        let run = r.telemetry.expect("telemetry was enabled");
        assert_eq!(run.interval, 1000);
        assert!(run.epochs.len() > 1, "run spans several epochs");
        // Epochs tile the run: contiguous, ending at the final cycle.
        let mut expect_start = 0;
        for e in &run.epochs {
            assert_eq!(e.start_cycle, expect_start);
            expect_start = e.end_cycle;
        }
        assert_eq!(expect_start, r.metrics.cycles);
        // The summed deltas reconstruct every end-of-run counter.
        for (name, total) in run.names.iter().zip(run.totals()) {
            let expected = match name.split_once('.') {
                Some(("gpu", f)) => lookup(&r.metrics.gpu.stat_pairs(), f),
                Some(("l1", f)) => lookup(&r.metrics.l1.stat_pairs(), f),
                Some(("l2", f)) => lookup(&r.metrics.l2.stat_pairs(), f),
                Some(("dram", f)) => lookup(&r.metrics.dram.stat_pairs(), f),
                _ => continue, // noc/queue counters are not in Metrics
            };
            assert_eq!(total, expected, "{name}");
        }
        // Phase spans tile the run and the first one is the launch.
        assert_eq!(run.spans[0].name, "launch");
        assert!(run.instants.iter().any(|i| i.name.starts_with("kernel:")));
        let mut expect_start = 0;
        for s in &run.spans {
            assert_eq!(s.start_cycle, expect_start, "{}", s.name);
            expect_start = s.end_cycle;
        }
        assert_eq!(expect_start, r.metrics.cycles);
    }

    fn lookup(pairs: &[(&'static str, u64)], field: &str) -> u64 {
        pairs
            .iter()
            .find(|(n, _)| *n == field)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("unknown field {field}"))
    }

    #[test]
    fn telemetry_off_and_on_simulate_identically() {
        let cfg = SystemConfig::small_test();
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let p = PolicyConfig::of(CachePolicy::CacheRW);
        let plain = run_one(&cfg, &w, p).unwrap();
        let opts = RunOptions {
            telemetry_interval: Some(500),
            ..RunOptions::default()
        };
        let traced = run_one_with(&cfg, &w, p, &opts).unwrap();
        assert_eq!(plain.metrics, traced.metrics);
    }

    #[test]
    fn classify_boundary_spread_exactly_at_5_percent_is_insensitive() {
        use miopt_workloads::Category::*;
        // best = 0.95 exactly: `best < 0.95` is false -> not reuse
        // sensitive; worst = 1.05 exactly: `worst > 1.05` is false -> not
        // throughput sensitive. Both thresholds are exclusive.
        assert_eq!(
            classify(&synthetic_statics(10_000, 9_500, 10_500)),
            Insensitive
        );
        // One cycle inside either threshold flips the class.
        assert_eq!(
            classify(&synthetic_statics(10_000, 9_499, 10_000)),
            ReuseSensitive
        );
        assert_eq!(
            classify(&synthetic_statics(10_000, 10_000, 10_501)),
            ThroughputSensitive
        );
    }

    #[test]
    fn classify_boundary_tied_cached_policies() {
        use miopt_workloads::Category::*;
        // CacheR and CacheRW tied: best == worst, so only one side of the
        // rule can trigger.
        assert_eq!(
            classify(&synthetic_statics(10_000, 9_000, 9_000)),
            ReuseSensitive
        );
        assert_eq!(
            classify(&synthetic_statics(10_000, 11_000, 11_000)),
            ThroughputSensitive
        );
        assert_eq!(
            classify(&synthetic_statics(10_000, 10_000, 10_000)),
            Insensitive
        );
    }

    #[test]
    fn classify_boundary_cached_policies_straddling_uncached() {
        use miopt_workloads::Category::*;
        // CacheR clearly faster, CacheRW clearly slower than Uncached.
        // The paper's rule checks `best < 0.95` first, so a workload
        // where caching can both help and hurt reads as reuse sensitive.
        assert_eq!(
            classify(&synthetic_statics(10_000, 8_000, 12_000)),
            ReuseSensitive
        );
        // Straddling inside the 5% band stays insensitive.
        assert_eq!(
            classify(&synthetic_statics(10_000, 9_600, 10_400)),
            Insensitive
        );
    }
}
