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
//!   ([`JobError::Panicked`]) so the sweep continues either way. With a
//!   wall-clock timeout configured, each job runs on a dedicated thread;
//!   a job that exceeds the deadline is abandoned (the thread is
//!   detached — `std` threads cannot be killed — and the job reports
//!   [`JobError::TimedOut`]).
//! * **Retry.** A timed-out or panicked job is re-run up to
//!   [`PoolOptions::retries`] more times after a jittered backoff, each
//!   timed-out attempt doubling the next one's wall-clock budget; a job
//!   that fails them all is [`JobError::Quarantined`].
//! * **Fail-fast.** With [`PoolOptions::fail_fast`], the first failure
//!   raises one shared flag, and every job claimed after it is recorded
//!   as [`JobError::Cancelled`] without running. Jobs already running
//!   finish and record normally.
//!
//! The executor is generic over the [`JobKind`] it runs; it is the only
//! place a job is caught unwinding, timed out, retried or quarantined.

use crate::kind::JobKind;
use crate::progress::Progress;
use miopt_engine::rng::SplitMix64;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError<E> {
    /// The simulation returned an error (cycle-budget timeout or an
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
    /// The simulation exceeded the configured wall-clock timeout (the
    /// value is the timeout of the final attempt, after any escalation).
    TimedOut(Duration),
    /// The sweep was cancelled by fail-fast before this job started.
    Cancelled,
    /// The job failed every attempt of its retry budget and was
    /// quarantined; the sweep continued without it.
    Quarantined {
        /// How many attempts were made.
        attempts: usize,
        /// The failure of the final attempt.
        last: Box<JobError<E>>,
    },
    /// A failure replayed verbatim from a resume journal; the payload is
    /// the journaled status line. Delete the journal entry to force a
    /// re-run.
    Journaled(String),
}

impl<E> JobError<E> {
    /// Whether the job exhausted its retry budget — in this run, or in
    /// the one being resumed, whose journal replays the status line.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        match self {
            JobError::Quarantined { .. } => true,
            JobError::Journaled(status) => status.starts_with("quarantined"),
            _ => false,
        }
    }
}

impl<E: fmt::Display> fmt::Display for JobError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Sim(e) => write!(f, "{e}"),
            JobError::Panicked { message, config } => {
                write!(f, "panicked: {message} ({config})")
            }
            JobError::TimedOut(t) => write!(f, "timed out after {:.1}s", t.as_secs_f64()),
            JobError::Cancelled => write!(f, "cancelled by fail-fast"),
            JobError::Quarantined { attempts, last } => {
                write!(f, "quarantined after {attempts} attempts: {last}")
            }
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
    /// How many times the job was executed (0 for source hits and
    /// cancelled jobs, ≥2 only when [`PoolOptions::retries`] re-ran it).
    pub attempts: usize,
}

/// Executor options. The default is every available core, no timeout,
/// no retries, no fail-fast, no progress output.
#[derive(Debug, Clone, Default)]
pub struct PoolOptions {
    /// Worker threads; 0 means [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Per-job wall-clock timeout; `None` relies on the simulator's own
    /// cycle budget to terminate hung configurations.
    pub job_timeout: Option<Duration>,
    /// Print per-job completion lines to stderr.
    pub progress: bool,
    /// Extra attempts for a job that times out or panics (0 = none).
    /// Only those failures are retried: the simulator is deterministic,
    /// so a [`JobError::Sim`] would fail identically every time. A
    /// timed-out job's next attempt gets double the wall-clock budget,
    /// so a job that was merely slow (a loaded machine) gets room to
    /// finish. A job that fails every attempt is reported as
    /// [`JobError::Quarantined`] and the sweep continues.
    pub retries: usize,
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
    kind: &Arc<K>,
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
                let (result, attempts) = execute_with_retry(kind, job, opts);
                (result, false, attempts)
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

/// Runs one job with up to `opts.retries` retries. Returns the final
/// result and the number of attempts made. Only transient failures
/// (wall-clock timeouts, panics) are retried; when a retry budget is
/// exhausted the final error is wrapped in [`JobError::Quarantined`].
fn execute_with_retry<K: JobKind>(
    kind: &Arc<K>,
    job: &K::Job,
    opts: &PoolOptions,
) -> (Result<K::Output, JobError<K::Error>>, usize) {
    let mut timeout = opts.job_timeout;
    let mut attempt = 1;
    loop {
        let e = match execute(kind, job, timeout) {
            Ok(r) => return (Ok(r), attempt),
            Err(e) => e,
        };
        let transient = matches!(e, JobError::Panicked { .. } | JobError::TimedOut(_));
        if !transient || opts.retries == 0 {
            return (Err(e), attempt);
        }
        if attempt > opts.retries {
            let last = Box::new(e);
            return (
                Err(JobError::Quarantined {
                    attempts: attempt,
                    last,
                }),
                attempt,
            );
        }
        if matches!(e, JobError::TimedOut(_)) {
            timeout = timeout.map(|t| t.saturating_mul(2));
        }
        std::thread::sleep(backoff(K::job_id(job) as u64, attempt as u32));
        attempt += 1;
    }
}

/// The wait after failed attempt `attempt` (1-based) of job `job`:
/// 100 ms doubling per attempt, capped at 5 s, then jittered to a
/// uniform value in `[0.75·d, 1.25·d)`.
///
/// The jitter decorrelates jobs that fail together (a loaded machine
/// starving every worker past its timeout), so their retries do not
/// collide again in lockstep. It is drawn from a [`SplitMix64`] stream
/// keyed by `(job, attempt)`, so the schedule repeats run to run.
pub(crate) fn backoff(job: u64, attempt: u32) -> Duration {
    const BASE_NANOS: u128 = 100_000_000;
    const CAP_NANOS: u128 = 5_000_000_000;
    let nanos = (BASE_NANOS << attempt.saturating_sub(1).min(63)).min(CAP_NANOS);
    // Three quarters guaranteed, plus a seeded uniform draw of up to one
    // half: (d/2 · r) >> 64 is d/2 scaled by r/2^64 ∈ [0, 1).
    let mut stream = SplitMix64::new(job.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt));
    let r = u128::from(stream.next_u64());
    let jittered = nanos / 4 * 3 + (((nanos / 2) * r) >> 64);
    Duration::from_nanos(u64::try_from(jittered).unwrap_or(u64::MAX))
}

/// Runs one job once. Expected failures (cycle-budget exhaustion, bad
/// configs) flow through [`JobKind::run`]'s `Result` as [`JobError::Sim`];
/// `catch_unwind` remains only as a safety net for genuine bugs, and a
/// wall-clock timeout isolates hung jobs when configured.
fn execute<K: JobKind>(
    kind: &Arc<K>,
    job: &K::Job,
    timeout: Option<Duration>,
) -> Result<K::Output, JobError<K::Error>> {
    // The crashed job's full configuration rides along, so the report
    // entry alone reproduces the crash.
    let panicked = |message: String| JobError::Panicked {
        message,
        config: kind.describe(job),
    };
    match timeout {
        None => match catch_unwind(AssertUnwindSafe(|| kind.run(job))) {
            Ok(result) => result.map_err(JobError::Sim),
            Err(p) => Err(panicked(panic_message(p.as_ref()))),
        },
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            let (thread_kind, thread_job) = (Arc::clone(kind), job.clone());
            let started = std::time::Instant::now();
            // Detached on purpose: a hung simulation cannot be killed, so
            // the thread is abandoned and dies with the process.
            std::thread::Builder::new()
                .name(format!("miopt-job-{}", K::job_id(job)))
                .spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| thread_kind.run(&thread_job)));
                    let _ = tx.send(r);
                })
                .expect("spawn job thread");
            match rx.recv_timeout(limit) {
                // The budget binds even when the result arrives: on a
                // loaded machine this orchestrator thread can be starved
                // past the job's whole runtime, and a result that is
                // already waiting makes `recv_timeout` succeed no matter
                // how small the limit. Enforcing the elapsed wall clock
                // here keeps "timed out" deterministic instead of a race
                // between the job and the scheduler.
                Ok(_) if started.elapsed() > limit => Err(JobError::TimedOut(limit)),
                Ok(Ok(result)) => result.map_err(JobError::Sim),
                Ok(Err(p)) => Err(panicked(panic_message(p.as_ref()))),
                Err(mpsc::RecvTimeoutError::Timeout) => Err(JobError::TimedOut(limit)),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    Err(panicked("job thread died".to_string()))
                }
            }
        }
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

    fn spec_of(names: &[&str]) -> Arc<SweepSpec> {
        let s = SuiteConfig::quick();
        Arc::new(SweepSpec::statics(
            SystemConfig::small_test(),
            names.iter().map(|n| by_name(&s, n).unwrap()).collect(),
        ))
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
        // A 10-cycle budget fails every job with SimError::Timeout; the
        // pool must surface it as JobError::Sim, not a caught panic.
        let mut spec = Arc::unwrap_or_clone(spec_of(&["FwSoft"]));
        spec.run_opts.max_cycles = 10;
        let spec = Arc::new(spec);
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
                Err(JobError::Sim(SimError::Timeout { max_cycles, .. })) => {
                    assert_eq!(*max_cycles, 10);
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
        let mut spec = Arc::unwrap_or_clone(spec_of(&["FwSoft"]));
        spec.faults = vec![JobFault::Panic(1)];
        let spec = Arc::new(spec);
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
    fn hanging_jobs_are_retried_with_escalation_then_quarantined() {
        use miopt::runner::JobFault;
        let mut spec = Arc::unwrap_or_clone(spec_of(&["FwSoft"]));
        spec.faults = vec![JobFault::Hang(0)];
        let spec = Arc::new(spec);
        let opts = PoolOptions {
            workers: 2,
            job_timeout: Some(Duration::from_millis(50)),
            retries: 1,
            ..PoolOptions::default()
        };
        let outcomes = run_jobs(&spec, None, &opts);
        match &outcomes[0].result {
            Err(JobError::Quarantined { attempts, last }) => {
                assert_eq!(*attempts, 2);
                // The second attempt ran with a doubled wall-clock budget.
                assert_eq!(**last, JobError::TimedOut(Duration::from_millis(100)));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(outcomes[0].attempts, 2);
        assert!(outcomes[1].result.is_ok());
        assert!(outcomes[2].result.is_ok());
    }

    #[test]
    fn fail_fast_cancels_the_queue_after_the_first_failure() {
        use miopt::runner::JobFault;
        let mut spec = Arc::unwrap_or_clone(spec_of(&["FwSoft"]));
        spec.faults = vec![JobFault::Panic(0)];
        let spec = Arc::new(spec);
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

    /// Any worker count and any mix of source hits, panics, retries and
    /// fail-fast: one outcome per job in id order, `offer` for exactly
    /// the fresh outcomes, the 1-worker run's statuses without fail-fast,
    /// and with it, cancellations only behind a failure.
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
                retries: c.below(2) as usize,
                fail_fast: c.bool(),
                ..PoolOptions::default()
            };
            let mut spec = (*base).clone();
            spec.workloads = vec![base.workloads[0].clone(); c.steps(1..4)];
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
            let spec = Arc::new(spec);
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
            }

            if !opts.fail_fast {
                assert!(
                    !outcomes.iter().any(cancelled),
                    "cancelled without fail-fast"
                );
                if opts.workers > 1 {
                    let summary = |o: &JobOutcome<SweepSpec>| {
                        let status = o.result.as_ref().map_err(ToString::to_string);
                        (status.map(|r| r.metrics.clone()), o.attempts, o.cached)
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
