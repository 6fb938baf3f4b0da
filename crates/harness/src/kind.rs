//! The one seam between the harness machinery and the grids it runs.
//!
//! A [`JobKind`] is a fully resolved grid of independent jobs — the
//! figure sweeps' workload × policy [`SweepSpec`], the serving sweeps'
//! policy × load [`ServeSweepSpec`](crate::serve::ServeSweepSpec). It
//! supplies what differs between grids: how to run one job, what
//! identifies the grid, and how a job's record and the final report are
//! shaped. Everything else exists once and is generic over the kind:
//! the worker pool with its panic isolation ([`crate::pool`]); the
//! write-ahead journal with its header, fingerprint refusal and
//! torn-tail recovery ([`crate::journal`]); and the driver that replays
//! journaled records, write-ahead-logs fresh ones, keeps the partial
//! report current and assembles the final one ([`crate::sweep`]).

use crate::cache::CacheKey;
use crate::journal::JOURNAL_VERSION;
use crate::json::Json;
use crate::pool::{JobError, JobOutcome};
use crate::provenance::{config_hash, Provenance, GLOBAL_SEED};
use crate::results::{stall_diagnostic_to_json, JobRecord, SweepReport, SCHEMA_VERSION};
use miopt::runner::{Job, RunResult, SimError, SweepSpec};
use miopt::SystemConfig;
use miopt_engine::hash::Fnv1a;
use std::fmt;

/// A grid of independent jobs the harness can run, journal and resume.
pub trait JobKind: Sync + Sized {
    /// One cell of the grid.
    type Job: Clone + fmt::Debug + Send + Sync;
    /// What a finished job yields in memory.
    type Output: Clone + fmt::Debug + Send;
    /// Why the simulator refused or abandoned a job.
    type Error: fmt::Display + fmt::Debug + Send;
    /// A job's entry in the journal and the report.
    type Record: Clone + Send + Sync;
    /// The assembled report.
    type Report: fmt::Debug;

    /// The `kind` tag of this grid's journal header, also named in
    /// resume refusals. `None` for figure sweeps, whose header carries
    /// no tag.
    const KIND: Option<&'static str>;

    /// The simulated machine (recorded in the report's provenance).
    fn system(&self) -> &SystemConfig;
    /// Every job, in id order: `jobs()[i]` is job `i`.
    fn jobs(&self) -> Vec<Self::Job>;
    /// The id of `job`.
    fn job_id(job: &Self::Job) -> usize;
    /// A short label for progress lines and failure lists.
    fn label(&self, job: &Self::Job) -> String;
    /// The job's configuration as a panic report names it, complete
    /// enough to reproduce the crash from the report alone.
    fn describe(&self, job: &Self::Job) -> String;
    /// Runs one job to completion.
    ///
    /// # Errors
    ///
    /// Returns the simulator's refusal (bad configuration, exhausted
    /// cycle budget, invariant violation).
    fn run(&self, job: &Self::Job) -> Result<Self::Output, Self::Error>;

    /// Hash binding a journal to this exact grid: resuming under a
    /// different fingerprint is refused.
    fn fingerprint(&self) -> String;
    /// Header fields beyond the common ones, written between
    /// `fingerprint` and `jobs`.
    fn header_extras(&self) -> Vec<(&'static str, Json)>;

    /// Builds the record of a finished (or failed) job.
    fn record(&self, outcome: &JobOutcome<Self>) -> Self::Record;
    /// Rebuilds a job's result from its journaled record without
    /// re-running it; journaled failures replay as
    /// [`JobError::Journaled`].
    ///
    /// # Errors
    ///
    /// Returns the journaled failure.
    fn replay(
        &self,
        job: &Self::Job,
        record: &Self::Record,
    ) -> Result<Self::Output, JobError<Self::Error>>;
    /// The id of the job `record` belongs to.
    fn record_id(record: &Self::Record) -> usize;
    /// The record as one compact JSON line (the journal payload).
    fn encode(record: &Self::Record) -> String;
    /// Parses [`JobKind::encode`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    fn decode(doc: &Json) -> Result<Self::Record, String>;

    /// Assembles the report named `name` from records in job-id order.
    fn report(
        &self,
        name: &str,
        provenance: Provenance,
        records: Vec<Self::Record>,
    ) -> Self::Report;
    /// The report as the document written to `<runs>/<name>.json`.
    fn document(report: &Self::Report) -> Json;
}

/// The figure sweeps: one simulation per (workload, policy) cell.
impl JobKind for SweepSpec {
    type Job = Job;
    type Output = RunResult;
    type Error = SimError;
    type Record = JobRecord;
    type Report = SweepReport;

    const KIND: Option<&'static str> = None;

    fn system(&self) -> &SystemConfig {
        &self.cfg
    }

    fn jobs(&self) -> Vec<Job> {
        SweepSpec::jobs(self)
    }

    fn job_id(job: &Job) -> usize {
        job.id
    }

    fn label(&self, job: &Job) -> String {
        self.job_label(job)
    }

    fn describe(&self, job: &Job) -> String {
        format!(
            "workload {}, policy {}, seed {GLOBAL_SEED}",
            self.workloads[job.workload].name,
            job.policy.label()
        )
    }

    fn run(&self, job: &Job) -> Result<RunResult, SimError> {
        self.run_job(job)
    }

    /// The machine config, results schema, job grid (stable workload
    /// ids × policy labels), run options, and injected faults.
    fn fingerprint(&self) -> String {
        let mut h = Fnv1a::new();
        h.write(config_hash(&self.cfg).as_bytes());
        h.write_u64(u64::from(SCHEMA_VERSION));
        h.write_u64(u64::from(JOURNAL_VERSION));
        let jobs = SweepSpec::jobs(self);
        h.write_u64(jobs.len() as u64);
        for job in &jobs {
            h.write(self.workloads[job.workload].stable_id().as_bytes());
            h.write(job.policy.label().as_bytes());
        }
        h.write(format!("{:?}", self.run_opts).as_bytes());
        h.write(format!("{:?}", self.faults).as_bytes());
        format!("{:016x}", h.finish())
    }

    fn header_extras(&self) -> Vec<(&'static str, Json)> {
        Vec::new()
    }

    fn record(&self, o: &JobOutcome<SweepSpec>) -> JobRecord {
        let w = &self.workloads[o.job.workload];
        let diagnostic = match &o.result {
            Err(JobError::Sim(SimError::Halted { diagnostic, .. })) => {
                Some(stall_diagnostic_to_json(diagnostic))
            }
            _ => None,
        };
        JobRecord {
            id: o.job.id,
            workload: w.name.clone(),
            workload_id: w.stable_id(),
            policy: o.job.policy.label(),
            cache_key: CacheKey::for_job(self, &o.job).hex(),
            cached: o.cached,
            elapsed_ms: o.elapsed.as_millis() as u64,
            status: match &o.result {
                Ok(_) => "ok".to_string(),
                Err(e) => e.to_string(),
            },
            attempts: o.attempts,
            metrics: o.result.as_ref().ok().map(|r| r.metrics.clone()),
            diagnostic,
        }
    }

    /// Successes rebuild the [`RunResult`] from the stored metrics.
    fn replay(&self, job: &Job, rec: &JobRecord) -> Result<RunResult, JobError<SimError>> {
        match &rec.metrics {
            Some(m) => Ok(RunResult {
                workload: self.workloads[job.workload].name.clone(),
                policy: job.policy,
                metrics: m.clone(),
                telemetry: None,
            }),
            None => Err(JobError::Journaled(rec.status.clone())),
        }
    }

    fn record_id(record: &JobRecord) -> usize {
        record.id
    }

    fn encode(record: &JobRecord) -> String {
        record.to_json_line()
    }

    fn decode(doc: &Json) -> Result<JobRecord, String> {
        JobRecord::from_json(doc)
    }

    fn report(&self, name: &str, mut provenance: Provenance, jobs: Vec<JobRecord>) -> SweepReport {
        provenance.telemetry_interval = self.run_opts.telemetry_interval;
        SweepReport {
            name: name.to_string(),
            provenance,
            jobs,
        }
    }

    fn document(report: &SweepReport) -> Json {
        report.to_json()
    }
}
