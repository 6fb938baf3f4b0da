//! High-level sweep orchestration: a [`JobKind`] in, executed through
//! the worker pool with optional persistent caching and crash-resilient
//! journaling, its report (provenance + per-job records) out.

use crate::cache::ResultCache;
use crate::journal::{self, Journal};
use crate::kind::JobKind;
use crate::pool::{run_jobs, JobError, JobOutcome, PoolOptions, ResultSource};
use crate::provenance::Provenance;
use miopt::runner::{Job, RunResult, SimError, SweepSpec};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Orchestration options for one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker pool configuration.
    pub pool: PoolOptions,
    /// Persistent result cache; `None` simulates every job.
    pub cache: Option<ResultCache>,
}

/// Where a journaled sweep keeps its write-ahead state, and whether this
/// invocation resumes an interrupted run.
#[derive(Debug, Clone)]
pub struct JournalOptions {
    /// Directory holding journals and reports (normally `results/runs`).
    pub dir: PathBuf,
    /// Resume: replay the existing journal instead of starting fresh.
    pub resume: bool,
}

/// A finished sweep: every job outcome plus the structured report.
#[derive(Debug)]
pub struct SweepRun<K: JobKind = SweepSpec> {
    /// One outcome per job, in job-id order.
    pub outcomes: Vec<JobOutcome<K>>,
    /// The report ready to write under `results/runs/`.
    pub report: K::Report,
    /// Journal state files to remove once the final report is safely on
    /// disk (empty for unjournaled sweeps).
    pub cleanup: Vec<PathBuf>,
}

impl<K: JobKind> SweepRun<K> {
    /// The successful results in job-id order, or a description of every
    /// failed job.
    ///
    /// # Errors
    ///
    /// Lists each failed job as `label: error`, one per line.
    pub fn results(&self, kind: &K) -> Result<Vec<K::Output>, String> {
        let mut failures = Vec::new();
        let mut results = Vec::with_capacity(self.outcomes.len());
        for o in &self.outcomes {
            match &o.result {
                Ok(r) => results.push(r.clone()),
                Err(e) => failures.push(format!("{}: {e}", kind.label(&o.job))),
            }
        }
        if failures.is_empty() {
            Ok(results)
        } else {
            Err(failures.join("\n"))
        }
    }

    /// Durably writes the final report as `<dir>/<name>.json`, then
    /// drops the write-ahead state. When the write fails the journal
    /// stays in place, so the run can still be finished with `--resume`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_report(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        journal::replace_file(&path, &K::document(&self.report).to_pretty())?;
        self.remove_journal_state();
        Ok(path)
    }

    /// Removes journal/partial state left behind by a journaled sweep
    /// (the journal store directory and the partial report). Call only
    /// after the final report has been written.
    pub fn remove_journal_state(&self) {
        for path in &self.cleanup {
            if path.is_dir() {
                let _ = std::fs::remove_dir_all(path);
            } else {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// The persistent cache as a [`ResultSource`] of figure sweeps. Store
/// failures are reported to stderr but never fail the sweep: a read-only
/// checkout still computes, just without persistence.
///
/// When the spec enables telemetry, the cache is bypassed for the whole
/// sweep: cached entries store metrics only, and serving a hit would
/// silently drop that job's time series.
impl ResultSource<SweepSpec> for ResultCache {
    fn fetch(&self, spec: &SweepSpec, job: &Job) -> Option<Result<RunResult, JobError<SimError>>> {
        if spec.run_opts.telemetry_interval.is_some() {
            return None;
        }
        self.load(spec, job).map(Ok)
    }

    fn offer(&self, spec: &SweepSpec, outcome: &JobOutcome<SweepSpec>) {
        if spec.run_opts.telemetry_interval.is_some() {
            return;
        }
        let Ok(result) = &outcome.result else { return };
        if let Err(e) = self.store(spec, &outcome.job, result) {
            eprintln!(
                "warning: result cache store failed for {}: {e}",
                spec.job_label(&outcome.job)
            );
        }
    }
}

/// [`ResultSource`] for journaled sweeps: replays journal entries from a
/// previous (killed) run, falls through to the persistent cache,
/// write-ahead-logs every freshly computed outcome, and keeps the
/// partial report current: after every job, `<name>.partial.json` is
/// atomically replaced so that a kill at *any* instant leaves a
/// well-formed report of everything done so far. This is the
/// graceful-interruption mechanism — no signal handler needed.
struct JournalSource<'a, K: JobKind> {
    /// Outcomes recorded by the interrupted run, by job id.
    served: HashMap<usize, K::Record>,
    journal: Journal<K>,
    cache: Option<&'a dyn ResultSource<K>>,
    provenance: Provenance,
    /// Every record so far: the served ones plus this run's.
    records: Mutex<Vec<K::Record>>,
}

impl<K: JobKind> ResultSource<K> for JournalSource<'_, K> {
    fn fetch(&self, kind: &K, job: &K::Job) -> Option<Result<K::Output, JobError<K::Error>>> {
        if let Some(rec) = self.served.get(&K::job_id(job)) {
            return Some(kind.replay(job, rec));
        }
        self.cache.and_then(|c| c.fetch(kind, job))
    }

    fn offer(&self, kind: &K, outcome: &JobOutcome<K>) {
        let rec = kind.record(outcome);
        if let Err(e) = self.journal.append(&rec) {
            eprintln!(
                "warning: journal append failed for {}: {e}",
                kind.label(&outcome.job)
            );
        }
        if let Some(cache) = self.cache {
            cache.offer(kind, outcome);
        }
        let mut records = self.records.lock().expect("partial-report lock");
        records.push(rec);
        let mut sorted = records.clone();
        sorted.sort_by_key(K::record_id);
        let report = kind.report(&self.journal.name, self.provenance.clone(), sorted);
        let text = K::document(&report).to_pretty();
        if let Err(e) = journal::replace_file(&self.journal.partial_path(), &text) {
            eprintln!("warning: partial report write failed: {e}");
        }
    }
}

/// Opens the write-ahead journal of the sweep `name` under `opts.dir`:
/// a fresh one, or with `opts.resume` (the CLI's `--resume <run-id>`)
/// the one a killed run left behind, whose jobs [`run_kind`] replays
/// instead of re-running.
///
/// # Errors
///
/// Returns a description when resuming and the journal is missing,
/// damaged or belongs to a different sweep, or when the journal cannot
/// be created.
pub fn open_journal<K: JobKind>(
    kind: &K,
    name: &str,
    opts: &JournalOptions,
) -> Result<Journal<K>, String> {
    if !opts.resume {
        return Journal::create(&opts.dir, name, kind)
            .map_err(|e| format!("cannot open journal for run `{name}`: {e}"));
    }
    let journal = Journal::resume(&opts.dir, name, kind)?;
    eprintln!(
        "resuming `{name}`: {} of {} jobs already journaled",
        journal.entries.len(),
        kind.jobs().len()
    );
    Ok(journal)
}

/// The persistent cache of a figure sweep, as the pool consumes it.
fn cache_of(opts: &SweepOptions) -> Option<&dyn ResultSource<SweepSpec>> {
    opts.cache.as_ref().map(|c| c as _)
}

/// Runs every job of `spec` and assembles the report named `name`,
/// without journaling.
#[must_use]
pub fn run_sweep(spec: &Arc<SweepSpec>, name: &str, opts: &SweepOptions) -> SweepRun {
    run_kind(spec, name, &opts.pool, cache_of(opts), None)
}

/// Runs a sweep with a write-ahead journal under `journal.dir`, so a
/// killed run can be resumed with `journal.resume = true` (the CLI's
/// `--resume <run-id>`). Resumed jobs are replayed from the journal —
/// never re-simulated — and the final report matches an uninterrupted
/// run modulo timing fields.
///
/// # Errors
///
/// Returns a description when the spec has telemetry enabled (time
/// series are not journaled), when resuming and the journal is missing
/// or belongs to a different sweep, or when the journal cannot be
/// created.
pub fn run_sweep_journaled(
    spec: &Arc<SweepSpec>,
    name: &str,
    opts: &SweepOptions,
    journal: &JournalOptions,
) -> Result<SweepRun, String> {
    if spec.run_opts.telemetry_interval.is_some() {
        return Err(
            "telemetry sweeps cannot be journaled: time series are not written to the \
             journal, so a resumed run would silently lose them"
                .to_string(),
        );
    }
    let journal = open_journal(spec.as_ref(), name, journal)?;
    Ok(run_kind(
        spec,
        name,
        &opts.pool,
        cache_of(opts),
        Some(journal),
    ))
}

/// Runs every job of `kind` through the pool and assembles the report
/// named `name`. Jobs are served from `cache` when it has them; with a
/// `journal` ([`open_journal`]), jobs it already holds are replayed —
/// never re-run — and every fresh outcome is appended to it before the
/// sweep moves on.
pub fn run_kind<K: JobKind>(
    kind: &Arc<K>,
    name: &str,
    pool: &PoolOptions,
    cache: Option<&dyn ResultSource<K>>,
    journal: Option<Journal<K>>,
) -> SweepRun<K> {
    let mut provenance = Provenance::collect(kind.system(), pool.effective_workers());
    let started = Instant::now();
    let cleanup = journal.as_ref().map_or_else(Vec::new, |j| {
        vec![journal::journal_dir(&j.runs_dir, name), j.partial_path()]
    });
    let (outcomes, served) = match journal {
        Some(journal) => {
            let source = JournalSource {
                served: (journal.entries.iter())
                    .map(|r| (K::record_id(r), r.clone()))
                    .collect(),
                records: Mutex::new(journal.entries.clone()),
                journal,
                cache,
                provenance: provenance.clone(),
            };
            (run_jobs(kind, Some(&source), pool), source.served)
        }
        None => (run_jobs(kind, cache, pool), HashMap::new()),
    };
    provenance.elapsed_ms = started.elapsed().as_millis() as u64;
    provenance.quarantined = (outcomes.iter())
        .filter(|o| o.result.as_ref().is_err_and(JobError::is_quarantined))
        .map(|o| kind.label(&o.job))
        .collect();
    let mut records: Vec<K::Record> = outcomes.iter().map(|o| kind.record(o)).collect();
    // Journal-served jobs keep the record of the run that actually
    // computed them (original status, attempts, elapsed), so the
    // resumed report matches the uninterrupted one.
    for (id, rec) in served {
        records[id] = rec;
    }
    SweepRun {
        outcomes,
        report: kind.report(name, provenance, records),
        cleanup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalWriter;
    use crate::results::SweepReport;
    use miopt::SystemConfig;
    use miopt_workloads::{by_name, SuiteConfig};

    fn test_spec() -> Arc<SweepSpec> {
        Arc::new(SweepSpec::statics(
            SystemConfig::small_test(),
            vec![by_name(&SuiteConfig::quick(), "FwSoft").unwrap()],
        ))
    }

    #[test]
    fn sweep_produces_a_complete_report() {
        let spec = test_spec();
        let run = run_sweep(&spec, "unit", &SweepOptions::default());
        assert_eq!(run.outcomes.len(), spec.job_count());
        assert_eq!(run.report.jobs.len(), spec.job_count());
        assert_eq!(run.report.name, "unit");
        assert!(run.report.jobs.iter().all(|j| j.status == "ok"));
        assert!(run.cleanup.is_empty(), "unjournaled sweeps leave no state");
        let results = run.results(&spec).expect("all jobs succeed");
        let statics = spec.assemble_statics(&results);
        assert_eq!(statics.len(), 1);
        assert_eq!(statics[0].len(), 3);
    }

    #[test]
    fn caching_round_trips_through_a_real_sweep() {
        let dir = std::env::temp_dir().join(format!("miopt-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = test_spec();
        let opts = SweepOptions {
            cache: Some(ResultCache::new(&dir)),
            ..SweepOptions::default()
        };
        let cold = run_sweep(&spec, "cold", &opts);
        assert!(cold.outcomes.iter().all(|o| !o.cached));
        let warm = run_sweep(&spec, "warm", &opts);
        assert!(
            warm.outcomes.iter().all(|o| o.cached),
            "second run must hit"
        );
        for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
            assert_eq!(
                a.result.as_ref().unwrap().metrics,
                b.result.as_ref().unwrap().metrics,
                "cached results must be bit-identical to fresh ones"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Strips the timing fields a resume legitimately changes, leaving
    /// everything that must be byte-identical.
    fn stable_json(report: &SweepReport) -> String {
        let mut doc = report.to_json();
        fn scrub(doc: &mut crate::json::Json) {
            use crate::json::Json;
            if let Json::Obj(pairs) = doc {
                pairs.retain(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "elapsed_ms" | "started_unix_ms" | "git_dirty" | "git_rev"
                    )
                });
                for (_, v) in pairs.iter_mut() {
                    scrub(v);
                }
            }
            if let Json::Arr(items) = doc {
                for v in items.iter_mut() {
                    scrub(v);
                }
            }
        }
        scrub(&mut doc);
        doc.to_pretty()
    }

    #[test]
    fn killed_sweeps_resume_without_rerunning_finished_jobs() {
        let dir = std::env::temp_dir().join(format!("miopt-resume-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = test_spec();
        let journal_opts = JournalOptions {
            dir: dir.clone(),
            resume: false,
        };

        // Reference: an uninterrupted journaled run.
        let full = run_sweep_journaled(&spec, "ref", &SweepOptions::default(), &journal_opts)
            .expect("journaled sweep runs");
        assert!(full.report.jobs.iter().all(|j| j.status == "ok"));
        assert!(
            journal::journal_dir(&dir, "ref").exists(),
            "journal exists until explicitly cleaned up"
        );
        full.remove_journal_state();
        assert!(!journal::journal_dir(&dir, "ref").exists());

        // Simulate a SIGKILL after two jobs: hand-build the journal an
        // interrupted run would have left behind.
        let w = JournalWriter::create(&dir, "killed", &spec).unwrap();
        for rec in &full.report.jobs[..2] {
            w.append(rec).unwrap();
        }
        drop(w);

        // Resume must complete the sweep, replaying — not re-running —
        // the two journaled jobs.
        let resumed = run_sweep_journaled(
            &spec,
            "killed",
            &SweepOptions::default(),
            &JournalOptions {
                dir: dir.clone(),
                resume: true,
            },
        )
        .expect("resume succeeds");
        assert!(resumed.outcomes[0].cached, "journaled job replayed");
        assert!(resumed.outcomes[1].cached, "journaled job replayed");
        assert_eq!(resumed.outcomes[0].attempts, 0);
        assert!(!resumed.outcomes[2].cached, "missing job simulated");

        // The resumed report is byte-identical modulo timing fields
        // (the report keeps the *original* run's records for replayed
        // jobs, so even their `cached`/`attempts` flags match).
        let mut reference = full.report.clone();
        reference.name = "killed".to_string();
        assert_eq!(stable_json(&reference), stable_json(&resumed.report));

        // Resuming a completed-and-cleaned run is a descriptive error.
        resumed.remove_journal_state();
        let err = run_sweep_journaled(
            &spec,
            "killed",
            &SweepOptions::default(),
            &JournalOptions {
                dir: dir.clone(),
                resume: true,
            },
        )
        .unwrap_err();
        assert!(err.contains("no journal"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
