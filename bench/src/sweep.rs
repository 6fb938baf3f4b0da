//! `sweep_grid`: the simulator used the way `miopt-harness` uses it.
//!
//! One case, the body of `cli::run` without the printing: a 60-job
//! figures grid through `run_sweep_journaled` (fresh result cache and a
//! per-record-fsync journal in a scratch directory, two pool workers),
//! `SweepReport::write_under`, `remove_journal_state`, `results()`, and
//! the ten figure CSVs. Two simulations share the host cache, jobs run
//! from 6 ms to 0.75 s so `ApuSystem::new` rivals the shortest, and the
//! journal, cache and partial-report writes happen nowhere else.

use crate::workload::{spanned, Outcome, Tally, Traced, Workload};
use miopt::runner::{RunResult, SweepSpec};
use miopt::SystemConfig;
use miopt_harness::figures::{fig10, fig11, fig12, fig13, fig4, fig5, fig6, fig7, fig8, fig9};
use miopt_harness::results::metrics_to_json;
use miopt_harness::{
    run_sweep, run_sweep_journaled, JournalOptions, Json, PoolOptions, ResultCache, SweepOptions,
    SweepReport, SweepRun,
};
use miopt_store::Wal;
use miopt_workloads::{by_name, SuiteConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

const GRID: [&str; 10] = [
    "FwGRU", "BwBN", "FwAct", "FwPool", "BwPool", "FwSoft", "BwSoft", "DGEMM", "FwBN", "FwFc",
];
/// The two 6 ms softmax workloads: the smoke grid and the CLI check.
const TINY: [&str; 2] = ["FwSoft", "BwSoft"];
const WORKERS: usize = 2;
const NAME: &str = "grid";

/// The figure CSV files `miopt-harness --csv` writes, in figure order.
const CSV_FILES: [&str; 10] = [
    "fig4_gvops",
    "fig5_gmrs",
    "fig6_exec_time",
    "fig7_dram_accesses",
    "fig8_cache_stalls",
    "fig9_row_hits",
    "fig10_opt_exec_time",
    "fig11_opt_dram",
    "fig12_opt_stalls",
    "fig13_opt_rows",
];

pub struct SweepGrid {
    scratch: PathBuf,
    spec: Arc<SweepSpec>,
    /// The traced pass's report, kept for the resume check.
    traced_report: Option<SweepReport>,
}

/// The figures grid over the named quick-scale workloads on the Table 1
/// system.
pub fn spec_of(names: &[&str]) -> Arc<SweepSpec> {
    let cfg = SystemConfig::builder()
        .build()
        .expect("the Table 1 configuration is self-consistent");
    let quick = SuiteConfig::quick();
    let workloads = names
        .iter()
        .map(|n| by_name(&quick, n).expect("a Table 2 workload name"))
        .collect();
    Arc::new(SweepSpec::figures(cfg, workloads))
}

fn options(workers: usize, cache_dir: Option<&Path>) -> SweepOptions {
    SweepOptions {
        pool: PoolOptions {
            workers,
            ..PoolOptions::default()
        },
        cache: cache_dir.map(ResultCache::new),
    }
}

/// The ten figure CSVs of a finished grid, in [`CSV_FILES`] order.
fn figure_csvs(spec: &SweepSpec, results: &[RunResult]) -> Vec<String> {
    let statics = spec.assemble_statics(results);
    let ladders = spec.assemble_ladders(results);
    [
        fig4(&statics),
        fig5(&statics),
        fig6(&statics),
        fig7(&statics),
        fig8(&statics),
        fig9(&statics),
        fig10(&ladders),
        fig11(&ladders),
        fig12(&ladders),
        fig13(&ladders),
    ]
    .iter()
    .map(miopt_harness::FigureData::to_csv)
    .collect()
}

/// The report with the fields a resume legitimately changes removed.
fn stable_json(report: &SweepReport) -> String {
    fn scrub(doc: &mut Json) {
        match doc {
            Json::Obj(pairs) => {
                pairs.retain(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "elapsed_ms" | "started_unix_ms" | "git_dirty" | "git_rev"
                    )
                });
                pairs.iter_mut().for_each(|(_, v)| scrub(v));
            }
            Json::Arr(items) => items.iter_mut().for_each(scrub),
            _ => {}
        }
    }
    let mut doc = report.to_json();
    scrub(&mut doc);
    doc.to_compact()
}

/// Cuts the journal store at `store` after `keep` job records, leaving
/// exactly what a kill between two appends leaves on disk.
fn cut_journal(store: &Path, keep: usize) -> Result<(), String> {
    let info = Wal::inspect(store).map_err(|e| e.to_string())?;
    if info.snapshot_records > 0 {
        return Err("journal was compacted; no record boundary to cut at".to_string());
    }
    // Record 1 is the journal header.
    let mut remaining = keep + 1;
    for seg in &info.segments {
        let held = seg.records as usize;
        if remaining == 0 {
            std::fs::remove_file(&seg.path).map_err(|e| e.to_string())?;
        } else if held <= remaining {
            remaining -= held;
        } else {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&seg.path)
                .map_err(|e| e.to_string())?;
            file.set_len(seg.record_ends[remaining - 1])
                .map_err(|e| e.to_string())?;
            remaining = 0;
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Everything one pass produces besides its timing.
struct Pass {
    outcome: Outcome,
    run: Option<SweepRun>,
}

impl SweepGrid {
    pub fn new(smoke: bool, scratch: &Path) -> SweepGrid {
        SweepGrid {
            scratch: scratch.join("sweep_grid"),
            spec: spec_of(if smoke { &TINY } else { &GRID }),
            traced_report: None,
        }
    }

    /// One pass over `spec` with its journal, report and (when `cached`)
    /// result cache under `dir`.
    fn pass(
        spec: &Arc<SweepSpec>,
        dir: &Path,
        cached: bool,
        mut traced: Option<&mut Traced>,
    ) -> Pass {
        let runs = dir.join("runs");
        let cache = dir.join("cache");
        let opts = options(WORKERS, cached.then_some(cache.as_path()));
        let journal = JournalOptions {
            dir: runs.clone(),
            resume: false,
        };
        let mut ops = Vec::new();
        let t0 = Instant::now();

        let run = spanned(&mut traced, "harness.sweep", || {
            run_sweep_journaled(spec, NAME, &opts, &journal)
        });
        let sweep_ns = t0.elapsed().as_nanos() as f64;
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                // Same parts as a finished pass: no job ran, all is rest.
                let mut parts = vec![0.0; spec.job_count()];
                parts.push(t0.elapsed().as_secs_f64());
                return Pass {
                    outcome: Outcome {
                        parts,
                        sim_cycles: 0,
                        ops: vec![Err(e)],
                    },
                    run: None,
                };
            }
        };
        let written = spanned(&mut traced, "harness.report_write", || {
            run.report.write_under(&runs)
        });
        if traced.is_some() {
            // The resume check replays this journal; keep a copy before
            // the pass removes it (outside every span but `pass`).
            let _ = copy_dir(
                &runs.join(format!("{NAME}.journal")),
                &dir.join("journal-copy").join(format!("{NAME}.journal")),
            );
        }
        spanned(&mut traced, "harness.cleanup", || {
            run.remove_journal_state();
        });
        let results = spanned(&mut traced, "harness.results", || run.results(spec));
        let csvs = spanned(&mut traced, "harness.figures", || {
            results.as_ref().map(|r| figure_csvs(spec, r))
        });
        let wall_s = t0.elapsed().as_secs_f64();
        // Wall time with two workers cannot use the thread CPU clock, so
        // the pass is split into parts that dodge stolen time separately:
        // each job's share of the makespan (its elapsed time, as the pool
        // measured it, over the worker count), and the rest — pool idle
        // time, journal and cache waits, report and figures. Stolen time
        // inflates `wall_s` and the jobs running at that moment alike, so
        // it mostly cancels out of the rest.
        let mut parts: Vec<f64> = run
            .outcomes
            .iter()
            .map(|o| o.elapsed.as_secs_f64() / WORKERS as f64)
            .collect();
        parts.push((wall_s - parts.iter().sum::<f64>()).max(0.0));

        let mut sim_cycles = 0;
        for job in &run.report.jobs {
            ops.push(match (&job.metrics, job.status.as_str()) {
                (Some(m), "ok") => {
                    sim_cycles += m.cycles;
                    Ok(format!(
                        "{}/{} {}",
                        job.workload,
                        job.policy,
                        metrics_to_json(m).to_compact()
                    ))
                }
                (_, status) => Err(format!("{}/{}: {status}", job.workload, job.policy)),
            });
        }
        // The figure set is one more checked operation.
        ops.push(match (csvs, written) {
            (Ok(csvs), Ok(_)) => Ok(csvs.join("\n")),
            (Err(failures), _) => Err(failures.clone()),
            (_, Err(e)) => Err(format!("could not write the report: {e}")),
        });

        if let Some(t) = traced {
            let job_ns: f64 = run
                .outcomes
                .iter()
                .map(|o| o.elapsed.as_nanos() as f64)
                .sum();
            for job in &run.report.jobs {
                if let Some(m) = &job.metrics {
                    t.add_metrics(m);
                }
            }
            for job in spec.jobs() {
                let w = &spec.workloads[job.workload];
                t.layers.add("workloads.kernels", w.total_kernels() as f64);
                t.layers.add(
                    "workloads.footprint_mb",
                    w.footprint_bytes() as f64 / (1024.0 * 1024.0),
                );
            }
            t.layers.add("harness.jobs", spec.job_count() as f64);
            // The pool times `run_job` as a whole, so construction is
            // inside this figure.
            t.layers.add("core.run_ms", job_ns / 1e6);
            t.layers.set(
                "harness.parallel_efficiency",
                job_ns / (WORKERS as f64 * sweep_ns),
            );
        }
        Pass {
            outcome: Outcome {
                parts,
                sim_cycles,
                ops,
            },
            run: Some(run),
        }
    }

    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The harness CLI in a child process must write the CSVs the
    /// in-process path produces. The child is this executable running
    /// `cli::parse_args` + `cli::run` — the two calls the
    /// `miopt-harness` binary's `main` consists of.
    fn cli_check(&self) -> Result<(), String> {
        let dir = self.fresh_dir("cli");
        let spec = spec_of(&TINY);
        let expected = SweepGrid::pass(&spec, &dir.join("inproc"), false, None);
        let Some(Ok(expected)) = expected.outcome.ops.last() else {
            return Err("in-process reference pass failed".to_string());
        };
        let csv_dir = dir.join("csv");
        let status = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
            .arg("--harness-cli")
            .args(["--scale", "quick", "--only", &TINY.join(",")])
            .args(["--no-cache", "--quiet", "--sweep-name", "clicheck"])
            .args(["--jobs", &WORKERS.to_string()])
            .arg("--csv")
            .arg(&csv_dir)
            .arg("--out")
            .arg(dir.join("runs"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("could not start the CLI child: {e}"))?;
        if !status.success() {
            return Err(format!("CLI child exited with {status}"));
        }
        let mut written = Vec::new();
        for file in CSV_FILES {
            let path = csv_dir.join(format!("{file}.csv"));
            written.push(std::fs::read_to_string(&path).map_err(|e| format!("{file}.csv: {e}"))?);
        }
        if written.join("\n") == *expected {
            Ok(())
        } else {
            Err("CLI CSVs differ from the in-process figures".to_string())
        }
    }
}

impl Workload for SweepGrid {
    fn cases(&self) -> Vec<String> {
        vec![format!(
            "figures grid: {} quick-scale workloads x {} policies, {WORKERS} workers",
            self.spec.workloads.len(),
            self.spec.policies.len()
        )]
    }

    fn run_case(&mut self, _i: usize, traced: Option<&mut Traced>) -> Outcome {
        let is_traced = traced.is_some();
        let dir = self.fresh_dir(if is_traced { "traced" } else { "rep" });
        let pass = SweepGrid::pass(&self.spec, &dir, true, traced);
        if is_traced {
            self.traced_report = pass.run.map(|r| r.report);
        }
        pass.outcome
    }

    fn checks(&mut self, reference: &[Outcome], tally: &mut Tally, traced: &mut Traced) {
        let spec = Arc::clone(&self.spec);
        let jobs = spec.job_count();
        let reference_csv = reference[0].ops.last().cloned();
        let traced_dir = self.scratch.join("traced");

        // Warm pass: the same body against the cache the traced pass
        // filled — every job a hit, the figures unchanged.
        let t0 = Instant::now();
        let warm = SweepGrid::pass(&spec, &traced_dir, true, None);
        traced
            .layers
            .set("harness.warm_pass_ms", t0.elapsed().as_secs_f64() * 1e3);
        let all_cached = warm
            .run
            .as_ref()
            .is_some_and(|r| r.outcomes.iter().all(|o| o.cached));
        tally.check(
            "warm pass",
            if !all_cached {
                Err("not every job was a cache hit".to_string())
            } else if warm.outcome.ops.last() != reference_csv.as_ref() {
                Err("figures differ from the cold pass".to_string())
            } else {
                Ok(())
            },
        );

        // Pool cost per job with simulation taken out: an unjournaled
        // sweep of cache hits (scheduling, cache load, record assembly).
        let t0 = Instant::now();
        let hits = run_sweep(
            &spec,
            NAME,
            &options(WORKERS, Some(&traced_dir.join("cache"))),
        );
        traced.layers.set(
            "harness.pool_overhead_ms_per_job",
            t0.elapsed().as_secs_f64() * 1e3 / jobs as f64,
        );
        drop(hits);

        // Resume: cut the traced pass's journal in half, replay it, and
        // compare the report with the uninterrupted one.
        let copy = traced_dir.join("journal-copy");
        let keep = jobs / 2;
        let result = cut_journal(&copy.join(format!("{NAME}.journal")), keep).and_then(|()| {
            let journal = JournalOptions {
                dir: copy.clone(),
                resume: true,
            };
            let t0 = Instant::now();
            let resumed = run_sweep_journaled(&spec, NAME, &options(WORKERS, None), &journal)?;
            traced
                .layers
                .set("harness.resume_ms", t0.elapsed().as_secs_f64() * 1e3);
            let rerun = resumed.outcomes.iter().filter(|o| !o.cached).count();
            traced.layers.set("harness.resume_jobs_rerun", rerun as f64);
            let uninterrupted = self
                .traced_report
                .as_ref()
                .ok_or("the traced pass left no report")?;
            if rerun != jobs - keep {
                Err(format!("{rerun} jobs re-ran, expected {}", jobs - keep))
            } else if stable_json(&resumed.report) != stable_json(uninterrupted) {
                Err("resumed report differs outside timing fields".to_string())
            } else {
                Ok(())
            }
        });
        tally.check("kill + resume", result);

        // Serial sweep: one worker, no cache, no journal.
        let serial = run_sweep(&spec, NAME, &options(1, None));
        let serial_csv = serial
            .results(&spec)
            .map(|r| figure_csvs(&spec, &r).join("\n"));
        tally.check(
            "serial vs 2-worker figures",
            if Some(&serial_csv) == reference_csv.as_ref() {
                Ok(())
            } else {
                Err("CSVs differ".to_string())
            },
        );

        tally.check("harness CLI child", self.cli_check());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_json_drops_only_timing_and_git_fields() {
        let spec = spec_of(&["FwSoft"]);
        let a = run_sweep(&spec, "a", &options(1, None));
        let mut b = a.report.clone();
        b.provenance.elapsed_ms += 17;
        b.provenance.started_unix_ms += 1;
        b.jobs[0].elapsed_ms += 3;
        assert_eq!(stable_json(&a.report), stable_json(&b));
        b.jobs[0].status = "changed".to_string();
        assert_ne!(stable_json(&a.report), stable_json(&b));
    }

    #[test]
    fn cut_journal_keeps_the_header_and_n_records() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-cut-journal");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = spec_of(&["FwSoft"]);
        let journal = JournalOptions {
            dir: dir.clone(),
            resume: false,
        };
        run_sweep_journaled(&spec, NAME, &options(1, None), &journal).unwrap();
        let store = dir.join(format!("{NAME}.journal"));
        assert_eq!(Wal::inspect(&store).unwrap().records.len(), 7);
        cut_journal(&store, 2).unwrap();
        let cut = Wal::inspect(&store).unwrap();
        assert!(cut.healthy, "{}", cut.state);
        assert_eq!(cut.records.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
