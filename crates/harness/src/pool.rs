//! The sweep executor: a work queue over a scoped `std::thread` worker
//! pool.
//!
//! Every job of a grid — a sweep's (workload × policy) cells, a serve
//! sweep's (policy × load) cells — is an independent simulation, so the
//! queue is a counter: each worker takes the next job id from it, runs
//! the job and writes the outcome into that job's slot.
//!
//! Design points:
//!
//! * **Determinism.** Results are recorded into a slot per job id, never
//!   in completion order, so any worker count (including 1) produces an
//!   identical result vector; jobs are claimed lowest-id-first.
//! * **Isolation.** A simulation that fails does so through
//!   `Result` — cycle-budget exhaustion and config rejections arrive as
//!   the kind's error and fail *that job* ([`JobError::Sim`]); genuinely
//!   unexpected panics are still caught and recorded
//!   ([`JobError::Panicked`]) so the sweep continues either way. Each
//!   job runs once, on the worker that claimed it: the simulator is
//!   deterministic, so a second attempt would repeat the first, and its
//!   cycle budget (`RunOptions::max_cycles`, `--budget`) ends every run
//!   at the same simulated cycle on any host.
//! * **Fail-fast.** With [`PoolOptions::fail_fast`], the first failure
//!   raises one shared flag, and every job claimed after it is recorded
//!   as [`JobError::Cancelled`] without running. Jobs already running
//!   finish and record normally.
//!
//! The executor is generic over the [`JobKind`] it runs; it is the only
//! place a job is caught unwinding.

use crate::kind::JobKind;
use crate::progress::Progress;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Why a job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError<E> {
    /// The simulation returned an error (an exhausted cycle budget or an
    /// inconsistent configuration).
    Sim(E),
    /// The simulation panicked. Carries the panic message plus the job's
    /// configuration ([`JobKind::describe`]) so the report alone is
    /// enough to reproduce the crash.
    Panicked {
        /// The panic message.
        message: String,
        /// The crashed job's configuration.
        config: String,
    },
    /// The sweep was cancelled by fail-fast before this job started.
    Cancelled,
    /// A failure replayed verbatim from a resume journal; the payload is
    /// the journaled status line. Delete the journal entry to force a
    /// re-run.
    Journaled(String),
}

impl<E: fmt::Display> fmt::Display for JobError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Sim(e) => write!(f, "{e}"),
            JobError::Panicked { message, config } => {
                write!(f, "panicked: {message} ({config})")
            }
            JobError::Cancelled => write!(f, "cancelled by fail-fast"),
            JobError::Journaled(status) => write!(f, "{status}"),
        }
    }
}

/// The outcome of one job.
#[derive(Debug)]
pub struct JobOutcome<K: JobKind> {
    /// The job that ran (or was cancelled).
    pub job: K::Job,
    /// The simulation result, or why there is none.
    pub result: Result<K::Output, JobError<K::Error>>,
    /// Wall time spent on this job (≈0 for source hits and cancelled
    /// jobs).
    pub elapsed: Duration,
    /// Whether the result came from a [`ResultSource`] (the persistent
    /// cache or a resume journal) rather than a fresh simulation.
    pub cached: bool,
    /// How many times the job was executed: 1 when it ran, 0 for source
    /// hits and cancelled jobs.
    pub attempts: usize,
}

/// Executor options. The default is every available core, no
/// fail-fast, no progress output.
#[derive(Debug, Clone, Default)]
pub struct PoolOptions {
    /// Worker threads; 0 means [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Print per-job completion lines to stderr.
    pub progress: bool,
    /// Cancel every not-yet-started job as soon as any job fails
    /// (running jobs finish; cancelled jobs report
    /// [`JobError::Cancelled`]).
    pub fail_fast: bool,
}

impl PoolOptions {
    /// The effective worker count.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// A job result source consulted before simulating (the persistent
/// cache and the resume journal, in production; anything in tests).
pub trait ResultSource<K: JobKind>: Sync {
    /// A previously recorded outcome for `job`, if one exists. Sources
    /// that only record successes (the cache) return `Some(Ok(_))` or
    /// `None`; a resume journal also replays failures as `Some(Err(_))`.
    fn fetch(&self, kind: &K, job: &K::Job) -> Option<Result<K::Output, JobError<K::Error>>>;
    /// Offers a freshly computed outcome (success or failure) for
    /// persistence. Not called for outcomes served by `fetch`, nor for
    /// cancelled jobs.
    fn offer(&self, kind: &K, outcome: &JobOutcome<K>);
}

/// Runs every job of `kind` across a scoped worker pool and returns one
/// outcome per job, in job-id order regardless of completion order.
/// Jobs `source` has are served from it; the rest simulate, and their
/// outcomes are offered to it.
pub fn run_jobs<K: JobKind>(
    kind: &K,
    source: Option<&dyn ResultSource<K>>,
    opts: &PoolOptions,
) -> Vec<JobOutcome<K>> {
    let jobs = kind.jobs();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<JobOutcome<K>>>> = Mutex::new(jobs.iter().map(|_| None).collect());
    let progress = Progress::new(jobs.len(), opts.progress);
    let worker = || {
        while let Some(job) = jobs.get(next.fetch_add(1, Ordering::SeqCst)) {
            let started = Instant::now();
            let (result, cached, attempts) = if opts.fail_fast && failed.load(Ordering::SeqCst) {
                (Err(JobError::Cancelled), false, 0)
            } else if let Some(hit) = source.and_then(|s| s.fetch(kind, job)) {
                (hit, true, 0)
            } else {
                (execute(kind, job), false, 1)
            };
            let outcome = JobOutcome {
                job: job.clone(),
                result,
                elapsed: started.elapsed(),
                cached,
                attempts,
            };
            if outcome.result.is_err() {
                failed.store(true, Ordering::SeqCst);
            }
            // Only a job that ran has attempts; its outcome is new.
            if let Some(source) = source.filter(|_| attempts > 0) {
                source.offer(kind, &outcome);
            }
            progress.report(&kind.label(job), &outcome);
            slots.lock().expect("pool lock")[K::job_id(job)] = Some(outcome);
        }
    };
    std::thread::scope(|s| {
        for _ in 0..opts.effective_workers().min(jobs.len().max(1)) {
            s.spawn(worker);
        }
    });
    let slots = slots.into_inner().expect("workers exited cleanly");
    slots
        .into_iter()
        .map(|o| o.expect("every job recorded"))
        .collect()
}

/// Runs one job once. Expected failures (cycle-budget exhaustion, bad
/// configs) flow through [`JobKind::run`]'s `Result` as [`JobError::Sim`];
/// `catch_unwind` remains only as a safety net for genuine bugs.
fn execute<K: JobKind>(kind: &K, job: &K::Job) -> Result<K::Output, JobError<K::Error>> {
    match catch_unwind(AssertUnwindSafe(|| kind.run(job))) {
        Ok(result) => result.map_err(JobError::Sim),
        // The crashed job's full configuration rides along, so the
        // report entry alone reproduces the crash.
        Err(p) => Err(JobError::Panicked {
            message: panic_message(p.as_ref()),
            config: kind.describe(job),
        }),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miopt::runner::{Job, RunResult, SimError, SweepSpec};
    use miopt::SystemConfig;
    use miopt_workloads::{by_name, SuiteConfig};

    fn spec_of(names: &[&str]) -> SweepSpec {
        let s = SuiteConfig::quick();
        SweepSpec::statics(
            SystemConfig::small_test(),
            names.iter().map(|n| by_name(&s, n).unwrap()).collect(),
        )
    }

    #[test]
    fn pool_matches_serial_for_any_worker_count() {
        let spec = spec_of(&["FwSoft"]);
        let serial = run_jobs(
            &spec,
            None,
            &PoolOptions {
                workers: 1,
                ..PoolOptions::default()
            },
        );
        let parallel = run_jobs(
            &spec,
            None,
            &PoolOptions {
                workers: 4,
                ..PoolOptions::default()
            },
        );
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.job, b.job, "slot order must be job order");
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(ra.metrics, rb.metrics);
        }
    }

    #[test]
    fn sim_errors_propagate_through_the_pool_without_unwinding() {
        // A 10-cycle budget fails every job with SimError::Halted; the
        // pool must surface it as JobError::Sim, not a caught panic.
        let mut spec = spec_of(&["FwSoft"]);
        spec.run_opts.max_cycles = 10;
        let outcomes = run_jobs(
            &spec,
            None,
            &PoolOptions {
                workers: 2,
                ..PoolOptions::default()
            },
        );
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            match &o.result {
                Err(JobError::Sim(SimError::Halted { error, .. })) => {
                    assert_eq!(error.max_cycles, 10);
                }
                other => panic!("expected a sim timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn cache_hits_skip_simulation() {
        struct Canned(RunResult);
        impl ResultSource<SweepSpec> for Canned {
            fn fetch(
                &self,
                _: &SweepSpec,
                job: &Job,
            ) -> Option<Result<RunResult, JobError<SimError>>> {
                (job.id == 0).then(|| Ok(self.0.clone()))
            }
            fn offer(&self, _: &SweepSpec, _: &JobOutcome<SweepSpec>) {}
        }
        let spec = spec_of(&["FwSoft"]);
        let jobs = spec.jobs();
        let canned = Canned(spec.run_job(&jobs[0]).expect("job runs"));
        let outcomes = run_jobs(
            &spec,
            Some(&canned),
            &PoolOptions {
                workers: 2,
                ..PoolOptions::default()
            },
        );
        assert!(outcomes[0].cached);
        assert_eq!(outcomes[0].attempts, 0);
        assert!(!outcomes[1].cached);
        assert_eq!(outcomes[1].attempts, 1);
        assert_eq!(
            outcomes[0].result.as_ref().unwrap().metrics,
            canned.0.metrics
        );
    }

    #[test]
    fn panicked_jobs_report_message_and_config() {
        use miopt::runner::JobFault;
        let mut spec = spec_of(&["FwSoft"]);
        spec.faults = vec![JobFault::Panic(1)];
        let outcomes = run_jobs(
            &spec,
            None,
            &PoolOptions {
                workers: 2,
                ..PoolOptions::default()
            },
        );
        match &outcomes[1].result {
            Err(JobError::Panicked { message, config }) => {
                assert!(
                    message.contains("injected fault"),
                    "panic message survives: {message}"
                );
                assert_eq!(
                    config,
                    &format!(
                        "workload FwSoft, policy {}, seed {}",
                        spec.jobs()[1].policy.label(),
                        crate::provenance::GLOBAL_SEED
                    )
                );
            }
            other => panic!("expected a panic record, got {other:?}"),
        }
        // The panic is confined to job 1; its grid neighbours still run.
        assert!(outcomes[0].result.is_ok());
        assert!(outcomes[2].result.is_ok());
    }

    #[test]
    fn fail_fast_cancels_the_queue_after_the_first_failure() {
        use miopt::runner::JobFault;
        let mut spec = spec_of(&["FwSoft"]);
        spec.faults = vec![JobFault::Panic(0)];
        // One worker makes the order deterministic: job 0 panics, then
        // the queued jobs 1 and 2 must be cancelled, never run.
        let opts = PoolOptions {
            workers: 1,
            fail_fast: true,
            ..PoolOptions::default()
        };
        let outcomes = run_jobs(&spec, None, &opts);
        assert!(matches!(outcomes[0].result, Err(JobError::Panicked { .. })));
        assert_eq!(outcomes[1].result, Err(JobError::Cancelled));
        assert_eq!(outcomes[2].result, Err(JobError::Cancelled));
        assert_eq!(outcomes[1].attempts, 0);
    }

    /// Any worker count, any mix of source hits, panics and
    /// fail-fast, and grids whose cycle budget halts every simulated job:
    /// one outcome per job in id order, `offer` for exactly the fresh
    /// outcomes, the 1-worker run's outcomes without fail-fast, and with
    /// it, cancellations only behind a failure.
    #[test]
    fn every_schedule_records_each_job_once_in_id_order() {
        use miopt::runner::JobFault;
        use miopt_engine::prop;
        use std::collections::BTreeSet;
        struct Canned {
            hit: RunResult,
            served: BTreeSet<usize>,
            offered: Mutex<Vec<usize>>,
        }
        impl ResultSource<SweepSpec> for Canned {
            fn fetch(
                &self,
                _: &SweepSpec,
                job: &Job,
            ) -> Option<Result<RunResult, JobError<SimError>>> {
                self.served.contains(&job.id).then(|| Ok(self.hit.clone()))
            }
            fn offer(&self, _: &SweepSpec, outcome: &JobOutcome<SweepSpec>) {
                self.offered.lock().unwrap().push(outcome.job.id);
            }
        }
        let base = spec_of(&["FwSoft"]);
        let hit = base.run_job(&base.jobs()[0]).expect("job runs");
        let cancelled = |o: &JobOutcome<SweepSpec>| matches!(o.result, Err(JobError::Cancelled));
        prop::check("pool_records_each_job_once_in_id_order", 32, |c| {
            let opts = PoolOptions {
                workers: c.range(1..5) as usize,
                fail_fast: c.bool(),
                ..PoolOptions::default()
            };
            let mut spec = base.clone();
            spec.workloads = vec![base.workloads[0].clone(); c.steps(1..4)];
            // A 10-cycle budget halts every job that simulates.
            let halted = c.bool();
            if halted {
                spec.run_opts.max_cycles = 10;
            }
            let n = spec.job_count();
            // Half the jobs come from the source, a third of the rest
            // panic, and the others simulate.
            let mut served = BTreeSet::new();
            for id in 0..n {
                match c.below(6) {
                    0..=2 => {
                        served.insert(id);
                    }
                    3 => spec.faults.push(JobFault::Panic(id)),
                    _ => {}
                }
            }
            let run = |opts: &PoolOptions| {
                let source = Canned {
                    hit: hit.clone(),
                    served: served.clone(),
                    offered: Mutex::new(Vec::new()),
                };
                let outcomes = run_jobs(&spec, Some(&source), opts);
                let mut offered = source.offered.into_inner().unwrap();
                offered.sort_unstable();
                (outcomes, offered)
            };

            let (outcomes, offered) = run(&opts);
            let ids: Vec<usize> = outcomes.iter().map(|o| o.job.id).collect();
            assert_eq!(
                ids,
                (0..n).collect::<Vec<_>>(),
                "one outcome per job, in id order"
            );
            let fresh: Vec<usize> = (outcomes.iter())
                .filter(|o| !o.cached && !cancelled(o))
                .map(|o| o.job.id)
                .collect();
            assert_eq!(offered, fresh, "offered exactly the fresh outcomes");
            for o in outcomes.iter().filter(|o| !cancelled(o)) {
                assert_eq!(o.cached, served.contains(&o.job.id), "job {}", o.job.id);
                assert_eq!(o.attempts, usize::from(!o.cached), "job {}", o.job.id);
                if halted && !o.cached && !spec.faults.contains(&JobFault::Panic(o.job.id)) {
                    let halt = matches!(o.result, Err(JobError::Sim(SimError::Halted { .. })));
                    assert!(halt, "job {}: {:?}", o.job.id, o.result);
                }
            }

            if !opts.fail_fast {
                assert!(
                    !outcomes.iter().any(cancelled),
                    "cancelled without fail-fast"
                );
                if opts.workers > 1 {
                    // Errors compare whole: a halt's diagnostic too.
                    let summary = |o: &JobOutcome<SweepSpec>| {
                        let result = o.result.as_ref().map(|r| r.metrics.clone());
                        (result.map_err(Clone::clone), o.attempts, o.cached)
                    };
                    let (serial, _) = run(&PoolOptions {
                        workers: 1,
                        ..opts.clone()
                    });
                    let a: Vec<_> = outcomes.iter().map(summary).collect();
                    let b: Vec<_> = serial.iter().map(summary).collect();
                    assert_eq!(a, b, "{} workers differ from 1", opts.workers);
                }
                return;
            }
            let failed: Vec<usize> = (outcomes.iter())
                .filter(|o| o.result.is_err() && !cancelled(o))
                .map(|o| o.job.id)
                .collect();
            for o in outcomes.iter().filter(|o| cancelled(o)) {
                let id = o.job.id;
                assert!(
                    failed.iter().any(|&f| f < id),
                    "job {id} cancelled ahead of a failure"
                );
                assert_eq!(o.attempts, 0);
            }
            if opts.workers == 1 {
                let first = failed.first().copied().unwrap_or(n);
                for o in &outcomes {
                    assert_eq!(
                        cancelled(o),
                        o.job.id > first,
                        "job {} at 1 worker",
                        o.job.id
                    );
                }
            }
        });
    }
}
