//! A deterministic job-DAG executor over a scoped `std::thread` worker
//! pool.
//!
//! The (workload × policy) grid of a sweep is embarrassingly parallel —
//! every simulation is independent — but the executor is written as a
//! general dependency DAG so future sweeps (e.g. a ladder stage gated on
//! its static stage) can express ordering without a new engine.
//!
//! Design points:
//!
//! * **Determinism.** Results are recorded into a slot per job id, never
//!   in completion order, so any worker count (including 1) produces an
//!   identical result vector; ready jobs are claimed lowest-id-first.
//! * **Isolation.** A simulation that fails does so through
//!   `Result` — cycle-budget exhaustion and config rejections arrive as
//!   the kind's error and fail *that job* ([`JobError::Sim`]); genuinely
//!   unexpected panics are still caught and recorded
//!   ([`JobError::Panicked`]) so the sweep continues either way. With a
//!   wall-clock timeout configured, each job runs on a dedicated thread;
//!   a job that exceeds the deadline is abandoned (the thread is
//!   detached — `std` threads cannot be killed — and the job reports
//!   [`JobError::TimedOut`]).
//! * **Failure propagation.** A job whose dependency failed is not run;
//!   it reports [`JobError::DepFailed`].
//!
//! The executor is generic over the [`JobKind`] it runs; it is the only
//! place a job is caught unwinding, timed out, retried or quarantined.

use crate::backoff::Backoff;
use crate::kind::JobKind;
use crate::progress::Progress;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
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
    /// A dependency (by job id) failed, so this job never ran.
    DepFailed(usize),
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
            JobError::DepFailed(id) => write!(f, "dependency job {id} failed"),
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
    /// The job that ran (or was skipped).
    pub job: K::Job,
    /// The simulation result, or why there is none.
    pub result: Result<K::Output, JobError<K::Error>>,
    /// Wall time spent on this job (≈0 for cache hits and skips).
    pub elapsed: Duration,
    /// Whether the result came from a [`ResultSource`] (the persistent
    /// cache or a resume journal) rather than a fresh simulation.
    pub cached: bool,
    /// How many times the job was executed (0 for source hits and
    /// skipped jobs, ≥2 only when a retry policy re-ran it).
    pub attempts: usize,
}

/// How failed jobs are retried before being quarantined.
///
/// Only wall-clock timeouts and panics are retried: the simulator is
/// deterministic, so a [`JobError::Sim`] would fail identically every
/// time.
/// A job that exhausts its attempts is reported as
/// [`JobError::Quarantined`] and the sweep continues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job (1 = no retry, the default).
    pub max_attempts: usize,
    /// Shared backoff schedule ([`crate::backoff::Backoff`]): capped
    /// exponential growth with deterministic per-job jitter.
    pub backoff: Backoff,
    /// Double the job's wall-clock budget after each timed-out attempt,
    /// so a job that was merely slow (a loaded machine, a pessimal
    /// schedule) gets room to finish.
    pub escalate_timeout: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Backoff::default(),
            escalate_timeout: true,
        }
    }
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
    /// Retry policy for timed-out and panicked jobs.
    pub retry: RetryPolicy,
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
    /// persistence. Not called for outcomes served by `fetch`.
    fn offer(&self, kind: &K, outcome: &JobOutcome<K>);
}

struct DagState<K: JobKind> {
    /// Unsatisfied dependency count per job; `usize::MAX` marks claimed.
    waiting: Vec<usize>,
    /// Jobs ready to claim, lowest id first.
    ready: BinaryHeap<Reverse<usize>>,
    /// Slot per job id.
    outcomes: Vec<Option<JobOutcome<K>>>,
    /// Jobs without a recorded outcome yet.
    unfinished: usize,
}

struct Dag<K: JobKind> {
    state: Mutex<DagState<K>>,
    wake: Condvar,
    /// dependents[i] = jobs that wait on job i.
    dependents: Vec<Vec<usize>>,
}

/// Runs every job of `kind` (with `deps[i]` = ids that must succeed
/// before job `i` runs) across a scoped worker pool and returns one
/// outcome per job, in job-id order regardless of completion order.
///
/// `deps` may be empty, meaning no ordering constraints; without a
/// `source`, every job simulates.
///
/// # Panics
///
/// Panics if `deps` is non-empty but not exactly one entry per job, or
/// if a dependency id is out of range (a malformed DAG is a programming
/// error, not a job failure).
pub fn run_dag<K: JobKind>(
    kind: &Arc<K>,
    deps: &[Vec<usize>],
    source: Option<&dyn ResultSource<K>>,
    opts: &PoolOptions,
) -> Vec<JobOutcome<K>> {
    let jobs = kind.jobs();
    let n = jobs.len();
    let deps: Vec<Vec<usize>> = if deps.is_empty() {
        vec![Vec::new(); n]
    } else {
        assert_eq!(deps.len(), n, "one dependency list per job");
        deps.to_vec()
    };
    for d in deps.iter().flatten() {
        assert!(*d < n, "dependency id {d} out of range");
    }
    let mut dependents = vec![Vec::new(); n];
    let mut waiting = vec![0usize; n];
    for (i, ds) in deps.iter().enumerate() {
        waiting[i] = ds.len();
        for &d in ds {
            dependents[d].push(i);
        }
    }
    let ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| waiting[i] == 0).map(Reverse).collect();
    assert!(
        n == 0 || !ready.is_empty(),
        "dependency cycle: no runnable job"
    );

    let dag = Dag {
        state: Mutex::new(DagState {
            waiting,
            ready,
            outcomes: std::iter::repeat_with(|| None).take(n).collect(),
            unfinished: n,
        }),
        wake: Condvar::new(),
        dependents,
    };
    let progress = Progress::new(n, opts.progress);
    let workers = opts.effective_workers().min(n.max(1));

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| worker(kind, &jobs, &dag, source, opts, &progress));
        }
    });

    let state = dag.state.into_inner().expect("workers exited cleanly");
    assert_eq!(
        state.unfinished, 0,
        "executor finished with unrecorded jobs"
    );
    state
        .outcomes
        .into_iter()
        .map(|o| o.expect("every job recorded"))
        .collect()
}

fn worker<K: JobKind>(
    kind: &Arc<K>,
    jobs: &[K::Job],
    dag: &Dag<K>,
    source: Option<&dyn ResultSource<K>>,
    opts: &PoolOptions,
    progress: &Progress,
) {
    loop {
        let job = {
            let mut st = dag.state.lock().expect("pool lock");
            loop {
                if st.unfinished == 0 {
                    return;
                }
                if let Some(Reverse(id)) = st.ready.pop() {
                    st.waiting[id] = usize::MAX;
                    break jobs[id].clone();
                }
                st = dag.wake.wait(st).expect("pool lock");
            }
        };

        let started = Instant::now();
        let (result, cached, attempts) = match source.and_then(|s| s.fetch(kind, &job)) {
            Some(hit) => (hit, true, 0),
            None => {
                let (r, attempts) = execute_with_retry(kind, &job, opts);
                (r, false, attempts)
            }
        };
        let outcome = JobOutcome {
            job,
            result,
            elapsed: started.elapsed(),
            cached,
            attempts,
        };
        if let Some(source) = source.filter(|_| !cached) {
            source.offer(kind, &outcome);
        }
        progress.report(&kind.label(&outcome.job), &outcome);
        record(dag, jobs, outcome, progress, opts.fail_fast);
    }
}

/// Records an outcome, unblocking or failing dependents, and wakes
/// waiting workers. With `fail_fast`, the first failure also cancels
/// every job that has not started yet.
fn record<K: JobKind>(
    dag: &Dag<K>,
    jobs: &[K::Job],
    outcome: JobOutcome<K>,
    progress: &Progress,
    fail_fast: bool,
) {
    let mut st = dag.state.lock().expect("pool lock");
    let mut pending = vec![outcome];
    while let Some(o) = pending.pop() {
        let id = K::job_id(&o.job);
        let failed = o.result.is_err();
        debug_assert!(st.outcomes[id].is_none(), "job {id} recorded twice");
        st.outcomes[id] = Some(o);
        st.unfinished -= 1;
        for &dep in &dag.dependents[id] {
            if failed {
                // Fail the whole downstream cone without running it.
                if st.outcomes[dep].is_none() && st.waiting[dep] != usize::MAX {
                    st.waiting[dep] = usize::MAX;
                    let skipped = JobOutcome {
                        job: jobs[dep].clone(),
                        result: Err(JobError::DepFailed(id)),
                        elapsed: Duration::ZERO,
                        cached: false,
                        attempts: 0,
                    };
                    progress.report("(skipped)", &skipped);
                    pending.push(skipped);
                }
            } else if st.waiting[dep] != usize::MAX {
                st.waiting[dep] -= 1;
                if st.waiting[dep] == 0 {
                    st.ready.push(Reverse(dep));
                }
            }
        }
        if failed && fail_fast {
            // Cancel everything not yet claimed by a worker. In-flight
            // jobs finish and record normally.
            for (cancel, job) in jobs.iter().enumerate() {
                if st.outcomes[cancel].is_none() && st.waiting[cancel] != usize::MAX {
                    st.waiting[cancel] = usize::MAX;
                    let cancelled = JobOutcome {
                        job: job.clone(),
                        result: Err(JobError::Cancelled),
                        elapsed: Duration::ZERO,
                        cached: false,
                        attempts: 0,
                    };
                    progress.report("(cancelled)", &cancelled);
                    pending.push(cancelled);
                }
            }
            st.ready.clear();
        }
    }
    drop(st);
    dag.wake.notify_all();
}

/// Runs one job under the pool's retry policy. Returns the final result
/// and the number of attempts made. Only transient failures (wall-clock
/// timeouts, panics) are retried; when a retry budget > 1 is exhausted
/// the final error is wrapped in [`JobError::Quarantined`].
fn execute_with_retry<K: JobKind>(
    kind: &Arc<K>,
    job: &K::Job,
    opts: &PoolOptions,
) -> (Result<K::Output, JobError<K::Error>>, usize) {
    let policy = &opts.retry;
    let budget = policy.max_attempts.max(1);
    let mut timeout = opts.job_timeout;
    let mut attempt = 0;
    loop {
        attempt += 1;
        match execute(kind, job, timeout) {
            Ok(r) => return (Ok(r), attempt),
            Err(e) => {
                let retryable = matches!(e, JobError::Panicked { .. } | JobError::TimedOut(_));
                if !retryable {
                    return (Err(e), attempt);
                }
                if attempt >= budget {
                    if budget > 1 {
                        return (
                            Err(JobError::Quarantined {
                                attempts: attempt,
                                last: Box::new(e),
                            }),
                            attempt,
                        );
                    }
                    return (Err(e), attempt);
                }
                if policy.escalate_timeout && matches!(e, JobError::TimedOut(_)) {
                    timeout = timeout.map(|t| t.saturating_mul(2));
                }
                let id = K::job_id(job) as u64;
                std::thread::sleep(policy.backoff.delay(id, attempt as u32));
            }
        }
    }
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
        let serial = run_dag(
            &spec,
            &[],
            None,
            &PoolOptions {
                workers: 1,
                ..PoolOptions::default()
            },
        );
        let parallel = run_dag(
            &spec,
            &[],
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
    fn dep_failure_skips_the_downstream_cone() {
        let spec = spec_of(&["FwSoft"]);
        // Chain 0 <- 1 <- 2; job 0 is forced to fail with a nanosecond
        // timeout, which must fail the whole downstream cone unrun.
        let deps = vec![vec![], vec![0], vec![1]];
        let opts = PoolOptions {
            workers: 2,
            job_timeout: Some(Duration::from_nanos(1)),
            ..PoolOptions::default()
        };
        let outcomes = run_dag(&spec, &deps, None, &opts);
        assert!(matches!(outcomes[0].result, Err(JobError::TimedOut(_))));
        assert_eq!(outcomes[1].result, Err(JobError::DepFailed(0)));
        assert_eq!(outcomes[2].result, Err(JobError::DepFailed(1)));
    }

    #[test]
    fn honours_dependency_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct OrderSpy {
            seq: AtomicUsize,
            seen: Mutex<Vec<(usize, usize)>>,
        }
        impl ResultSource<SweepSpec> for OrderSpy {
            fn fetch(
                &self,
                _: &SweepSpec,
                job: &Job,
            ) -> Option<Result<RunResult, JobError<SimError>>> {
                let t = self.seq.fetch_add(1, Ordering::SeqCst);
                self.seen.lock().unwrap().push((job.id, t));
                None
            }
            fn offer(&self, _: &SweepSpec, _: &JobOutcome<SweepSpec>) {}
        }
        let spec = spec_of(&["FwSoft"]);
        // Job 2 must start only after jobs 0 and 1 completed.
        let deps = vec![vec![], vec![], vec![0, 1]];
        let spy = OrderSpy {
            seq: AtomicUsize::new(0),
            seen: Mutex::new(Vec::new()),
        };
        let outcomes = run_dag(
            &spec,
            &deps,
            Some(&spy),
            &PoolOptions {
                workers: 3,
                ..PoolOptions::default()
            },
        );
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        let seen = spy.seen.lock().unwrap();
        let start_of = |id: usize| seen.iter().find(|(j, _)| *j == id).unwrap().1;
        assert!(start_of(2) > start_of(0));
        assert!(start_of(2) > start_of(1));
    }

    #[test]
    fn sim_errors_propagate_through_the_pool_without_unwinding() {
        // A 10-cycle budget fails every job with SimError::Timeout; the
        // pool must surface it as JobError::Sim, not a caught panic.
        let mut spec = Arc::unwrap_or_clone(spec_of(&["FwSoft"]));
        spec.run_opts.max_cycles = 10;
        let spec = Arc::new(spec);
        let outcomes = run_dag(
            &spec,
            &[],
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
        let outcomes = run_dag(
            &spec,
            &[],
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
        let outcomes = run_dag(
            &spec,
            &[],
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
            retry: RetryPolicy {
                max_attempts: 2,
                backoff: Backoff::new(Duration::from_millis(5)),
                escalate_timeout: true,
            },
            ..PoolOptions::default()
        };
        let outcomes = run_dag(&spec, &[], None, &opts);
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
        let outcomes = run_dag(&spec, &[], None, &opts);
        assert!(matches!(outcomes[0].result, Err(JobError::Panicked { .. })));
        assert_eq!(outcomes[1].result, Err(JobError::Cancelled));
        assert_eq!(outcomes[2].result, Err(JobError::Cancelled));
        assert_eq!(outcomes[1].attempts, 0);
    }
}
