//! The `miopt-harness` command line: regenerates every table and figure
//! of the paper's evaluation through the parallel sweep orchestrator.
//!
//! ```text
//! miopt-harness [--scale paper|quick] [--only <w>[,<w>...]]
//!     [--csv <dir>] [--table1] [--table2] [--fig4] ... [--fig13] [--all]
//!     [--jobs N] [--serial] [--no-cache] [--cache-dir <dir>]
//!     [--out <dir>] [--sweep-name <name>] [--timeout-secs N]
//!     [--quiet] [--compare] [--telemetry[=interval]]
//!     [--check-invariants] [--no-skip] [--fail-fast] [--retries N]
//!     [--no-journal] [--resume <run-id>]
//! ```
//!
//! With no figure selector, everything is regenerated (`--all`).

use crate::cache::ResultCache;
use crate::figures::{fig10, fig11, fig12, fig13, fig4, fig5, fig6, fig7, fig8, fig9, FigureData};
use crate::kind::JobKind;
use crate::pool::{PoolOptions, ResultSource, RetryPolicy};
use crate::sweep::{open_journal, run_kind, run_sweep, JournalOptions, SweepOptions, SweepRun};
use miopt::runner::SweepSpec;
use miopt::SystemConfig;
use miopt_workloads::{suite, SuiteConfig, Workload};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ALL_OUTPUTS: [&str; 12] = [
    "table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13",
];

/// Sampling interval a bare `--telemetry` selects, in cycles.
pub const DEFAULT_TELEMETRY_INTERVAL: u64 = 100_000;

/// The options `miopt-harness` and `miopt-harness serve` share, parsed
/// in one place.
pub struct CommonArgs {
    /// Worker threads (0 = all available cores).
    pub jobs: usize,
    /// Extra attempts for timed-out/panicked jobs (0 = no retries). Not
    /// part of the journal fingerprint: the retry budget may change
    /// between a run and its resume.
    pub retries: usize,
    /// Force per-cycle stepping, disabling event-driven time skipping
    /// (bit-identical, slower; for equivalence checks and debugging).
    pub no_skip: bool,
    /// Enable sentinel invariant checking and the forward-progress
    /// watchdog for every job.
    pub check_invariants: bool,
    /// Directory sweep reports are written under.
    pub runs_dir: PathBuf,
    /// Sweep report name (the `results/runs/<name>.json` stem).
    pub sweep_name: String,
    /// Resume the named interrupted run instead of starting fresh.
    pub resume: Option<String>,
    /// Disable the write-ahead journal (journaling is on by default for
    /// non-telemetry sweeps).
    pub no_journal: bool,
    /// Suppress per-job progress lines.
    pub quiet: bool,
}

impl CommonArgs {
    pub(crate) fn new() -> CommonArgs {
        CommonArgs {
            jobs: 0,
            retries: 0,
            no_skip: false,
            check_invariants: false,
            runs_dir: PathBuf::from("results/runs"),
            sweep_name: String::new(),
            resume: None,
            no_journal: false,
            quiet: false,
        }
    }

    /// Consumes `flag` if it is one of the shared flags, pulling its
    /// value (when it has one) from `value`; `false` leaves it to the
    /// subcommand's own parser.
    pub(crate) fn take(&mut self, flag: &str, value: &mut dyn FnMut(&str) -> String) -> bool {
        match flag {
            "--jobs" => self.jobs = value("--jobs").parse().expect("--jobs needs a number"),
            "--serial" => self.jobs = 1,
            "--retries" => {
                self.retries = value("--retries")
                    .parse()
                    .expect("--retries needs a number");
            }
            "--no-skip" => self.no_skip = true,
            "--check-invariants" => self.check_invariants = true,
            "--out" => self.runs_dir = PathBuf::from(value("--out")),
            "--sweep-name" => self.sweep_name = value("--sweep-name"),
            "--resume" => self.resume = Some(value("--resume")),
            "--no-journal" => self.no_journal = true,
            "--quiet" => self.quiet = true,
            _ => return false,
        }
        true
    }

    /// Settles the run name once every flag is read: `default_name`
    /// unless `--sweep-name` was given, and in either case the resumed
    /// run's id (it names both the journal and the report).
    pub(crate) fn finish(&mut self, default_name: String) {
        assert!(
            !(self.resume.is_some() && self.no_journal),
            "--resume cannot be combined with --no-journal (resuming replays the journal)"
        );
        if self.sweep_name.is_empty() {
            self.sweep_name = default_name;
        }
        if let Some(id) = &self.resume {
            self.sweep_name.clone_from(id);
        }
    }

    /// The worker pool these flags ask for.
    #[must_use]
    pub fn pool_options(&self) -> PoolOptions {
        PoolOptions {
            workers: self.jobs,
            progress: !self.quiet,
            retry: RetryPolicy {
                max_attempts: self.retries + 1,
                ..RetryPolicy::default()
            },
            ..PoolOptions::default()
        }
    }
}

/// Runs `kind` the way both subcommands do: through the pool `pool`,
/// with a write-ahead journal under `--out` when `journaled` (resumed
/// when `--resume` names it), and the final report written to
/// `<out>/<name>.json`. Returns the process exit code when the journal
/// cannot be opened or the report cannot be written.
pub(crate) fn drive<K: JobKind>(
    kind: &Arc<K>,
    common: &CommonArgs,
    pool: &PoolOptions,
    cache: Option<&dyn ResultSource<K>>,
    journaled: bool,
) -> Result<SweepRun<K>, i32> {
    let name = &common.sweep_name;
    let mut journal = None;
    if journaled {
        eprintln!("run id: {name} (resume an interrupted sweep with --resume {name})");
        let opts = JournalOptions {
            dir: common.runs_dir.clone(),
            resume: common.resume.is_some(),
        };
        journal = Some(open_journal(kind.as_ref(), name, &opts).map_err(|e| {
            eprintln!("error: {e}");
            1
        })?);
    }
    let t0 = Instant::now();
    let run = run_kind(kind, name, pool, cache, journal);
    eprintln!("sweep done in {:.1}s", t0.elapsed().as_secs_f64());
    match run.write_report(&common.runs_dir, name) {
        Ok(path) => eprintln!("(wrote {})", path.display()),
        Err(e) => {
            eprintln!(
                "error: could not write the report under {}: {e}",
                common.runs_dir.display()
            );
            if !run.cleanup.is_empty() {
                eprintln!("the journal is kept: fix --out and finish the run with --resume {name}");
            }
            return Err(1);
        }
    }
    Ok(run)
}

/// Parsed command-line options.
pub struct CliArgs {
    /// Workload suite scale.
    pub scale: SuiteConfig,
    /// The scale's name (`"paper"` or `"quick"`), for artifact naming.
    pub scale_name: String,
    /// Lower-cased workload-name filter, when `--only` was given.
    pub only: Option<BTreeSet<String>>,
    /// Directory for CSV emission, when `--csv` was given.
    pub csv_dir: Option<String>,
    /// Selected outputs (table/figure names without the `--`).
    pub selected: BTreeSet<String>,
    /// The options shared with `serve`.
    pub common: CommonArgs,
    /// Skip the persistent result cache.
    pub no_cache: bool,
    /// Result cache directory.
    pub cache_dir: PathBuf,
    /// Per-job wall-clock timeout.
    pub timeout: Option<Duration>,
    /// Run the sweep serially AND in parallel and verify byte-identical
    /// figures, reporting the speedup.
    pub compare: bool,
    /// Telemetry sampling interval in cycles, when `--telemetry` was
    /// given (`None` = telemetry off).
    pub telemetry: Option<u64>,
    /// Cancel queued jobs after the first failure.
    pub fail_fast: bool,
}

/// Parses CLI arguments (everything after the program name).
///
/// # Panics
///
/// Panics with a descriptive message on malformed arguments, matching
/// the historical `figures` binary behaviour.
#[must_use]
pub fn parse_args(args: impl Iterator<Item = String>) -> CliArgs {
    let mut out = CliArgs {
        scale: SuiteConfig::paper(),
        scale_name: "paper".to_string(),
        only: None,
        csv_dir: None,
        selected: BTreeSet::new(),
        common: CommonArgs::new(),
        no_cache: false,
        cache_dir: ResultCache::default_dir(),
        timeout: None,
        compare: false,
        telemetry: None,
        fail_fast: false,
    };
    let mut args = args;
    while let Some(a) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        if out.common.take(&a, &mut value) {
            continue;
        }
        match a.as_str() {
            "--scale" => {
                let v = value("--scale");
                out.scale = match v.as_str() {
                    "paper" => SuiteConfig::paper(),
                    "quick" => SuiteConfig::quick(),
                    other => panic!("unknown scale {other:?} (use paper|quick)"),
                };
                out.scale_name = v;
            }
            "--only" => {
                out.only = Some(value("--only").split(',').map(str::to_lowercase).collect());
            }
            "--csv" => out.csv_dir = Some(value("--csv")),
            "--no-cache" => out.no_cache = true,
            "--cache-dir" => out.cache_dir = PathBuf::from(value("--cache-dir")),
            "--timeout-secs" => {
                let secs: u64 = value("--timeout-secs")
                    .parse()
                    .expect("--timeout-secs needs a number");
                out.timeout = Some(Duration::from_secs(secs));
            }
            "--compare" => out.compare = true,
            "--fail-fast" => out.fail_fast = true,
            "--telemetry" => out.telemetry = Some(DEFAULT_TELEMETRY_INTERVAL),
            s if s.starts_with("--telemetry=") => {
                let interval: u64 = s["--telemetry=".len()..]
                    .parse()
                    .expect("--telemetry=N needs a cycle count");
                assert!(
                    interval > 0,
                    "--telemetry interval must be at least 1 cycle"
                );
                out.telemetry = Some(interval);
            }
            "--all" => out.selected.extend(ALL_OUTPUTS.map(String::from)),
            s if s.starts_with("--") && ALL_OUTPUTS.contains(&s.trim_start_matches("--")) => {
                out.selected.insert(s.trim_start_matches("--").to_string());
            }
            other => panic!("unexpected argument {other:?}"),
        }
    }
    if out.selected.is_empty() {
        out.selected.extend(ALL_OUTPUTS.map(String::from));
    }
    out.common.finish(format!("figures-{}", out.scale_name));
    out
}

fn print_table1(cfg: &SystemConfig) {
    println!("== Table 1: Key simulated system parameters ==");
    println!("GPU clock                {:.0} MHz", cfg.gpu_clock_hz / 1e6);
    println!("# of CUs                 {}", cfg.n_cus);
    println!("# SIMD units per CU      {}", cfg.cu.simds);
    println!("Max wavefronts per SIMD  {}", cfg.cu.wf_slots_per_simd);
    println!(
        "GPU L1 D-cache per CU    {} KB, 64B line, {}-way write-through",
        cfg.l1.bytes() / 1024,
        cfg.l1.ways
    );
    println!(
        "GPU L2 cache             {} MB ({} slices), 64B line, {}-way",
        cfg.l2.bytes() * cfg.l2_slices as u64 / (1024 * 1024),
        cfg.l2_slices,
        cfg.l2.ways
    );
    println!(
        "Main memory              HBM2, {} channels, {} banks/channel, ~{:.0} GB/s",
        cfg.dram.channels,
        cfg.dram.banks,
        f64::from(cfg.dram.channels) * 64.0 * cfg.gpu_clock_hz / cfg.dram.t_burst as f64 / 1e9
    );
    println!();
}

fn print_table2(workloads: &[Workload]) {
    println!("== Table 2: Studied MI workloads ==");
    println!(
        "{:10} {:>14} {:>14} {:>16}",
        "workload", "unique kernels", "total kernels", "footprint"
    );
    for w in workloads {
        let fp = w.footprint_bytes();
        let fp_str = if fp >= 1024 * 1024 {
            format!("{:.1} MB", fp as f64 / (1024.0 * 1024.0))
        } else {
            format!("{:.1} KB", fp as f64 / 1024.0)
        };
        println!(
            "{:10} {:>14} {:>14} {:>16}",
            w.name,
            w.unique_kernels(),
            w.total_kernels(),
            fp_str
        );
    }
    println!();
}

fn emit(fig: &FigureData, csv_dir: Option<&str>, file: &str) {
    println!("{}", fig.to_table());
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = format!("{dir}/{file}.csv");
        std::fs::write(&path, fig.to_csv()).expect("write csv");
        println!("(wrote {path})");
    }
}

/// All six static-sweep figures plus the four ladder figures from one
/// figures-grid sweep, keyed by output name.
fn figure_set(
    spec: &SweepSpec,
    results: &[miopt::runner::RunResult],
    want_ladder: bool,
) -> Vec<(&'static str, &'static str, FigureData)> {
    let sweep = spec.assemble_statics(results);
    let mut figs = vec![
        ("fig4", "fig4_gvops", fig4(&sweep)),
        ("fig5", "fig5_gmrs", fig5(&sweep)),
        ("fig6", "fig6_exec_time", fig6(&sweep)),
        ("fig7", "fig7_dram_accesses", fig7(&sweep)),
        ("fig8", "fig8_cache_stalls", fig8(&sweep)),
        ("fig9", "fig9_row_hits", fig9(&sweep)),
    ];
    if want_ladder {
        let ladders = spec.assemble_ladders(results);
        figs.push(("fig10", "fig10_opt_exec_time", fig10(&ladders)));
        figs.push(("fig11", "fig11_opt_dram", fig11(&ladders)));
        figs.push(("fig12", "fig12_opt_stalls", fig12(&ladders)));
        figs.push(("fig13", "fig13_opt_rows", fig13(&ladders)));
    }
    figs
}

/// Runs the CLI. Returns the process exit code.
#[must_use]
pub fn run(args: &CliArgs) -> i32 {
    let cfg = SystemConfig::builder()
        .build()
        .expect("the paper's Table 1 configuration is self-consistent");
    let mut workloads = suite(&args.scale);
    if let Some(only) = &args.only {
        workloads.retain(|w| only.contains(&w.name.to_lowercase()));
        assert!(!workloads.is_empty(), "--only matched no workloads");
    }
    let sel = |s: &str| args.selected.contains(s);

    if sel("table1") {
        print_table1(&cfg);
    }
    if sel("table2") {
        print_table2(&workloads);
    }

    let need_sweep = ALL_OUTPUTS[2..].iter().any(|f| sel(f));
    if !need_sweep {
        return 0;
    }
    let need_ladder = ["fig10", "fig11", "fig12", "fig13"].iter().any(|f| sel(f));

    // One grid covers all selected figures: the static prefix feeds
    // figures 4-9 and the ladder suffix feeds 10-13.
    let mut spec = if need_ladder {
        SweepSpec::figures(cfg, workloads)
    } else {
        SweepSpec::statics(cfg, workloads)
    };
    if let Some(interval) = args.telemetry {
        spec = spec.with_telemetry(interval);
    }
    if args.common.check_invariants {
        spec = spec.with_invariant_checks();
    }
    if args.common.no_skip {
        spec = spec.with_no_skip();
    }
    let spec = Arc::new(spec);
    let pool = PoolOptions {
        job_timeout: args.timeout,
        fail_fast: args.fail_fast,
        ..args.common.pool_options()
    };
    let cache = (!args.no_cache).then(|| ResultCache::new(&args.cache_dir));
    if args.common.resume.is_some() && args.telemetry.is_some() {
        eprintln!("error: --resume cannot be combined with --telemetry (telemetry sweeps are not journaled)");
        return 1;
    }
    if args.telemetry.is_some() && cache.is_some() {
        eprintln!("note: telemetry enabled; bypassing the result cache so every job records a time series");
    }
    let journaled = args.telemetry.is_none() && !args.common.no_journal;

    eprintln!(
        "running sweep: {} workloads x {} policies = {} jobs on {} worker(s) ...",
        spec.workloads.len(),
        spec.policies.len(),
        spec.job_count(),
        pool.effective_workers(),
    );
    let cache = cache.as_ref().map(|c| c as &dyn ResultSource<SweepSpec>);
    let run = match drive(&spec, &args.common, &pool, cache, journaled) {
        Ok(run) => run,
        Err(code) => return code,
    };
    let parallel_elapsed = Duration::from_millis(run.report.provenance.elapsed_ms);

    let results = match run.results(&spec) {
        Ok(r) => r,
        Err(failures) => {
            eprintln!(
                "error: {} job(s) failed:\n{failures}",
                failures.lines().count()
            );
            return 1;
        }
    };

    if args.telemetry.is_some() {
        let name = &args.common.sweep_name;
        let dir = args.common.runs_dir.join(format!("{name}-telemetry"));
        let mut written = 0usize;
        for result in &results {
            match crate::telemetry::write_files(&dir, result) {
                Ok(Some(_)) => written += 1,
                Ok(None) => {}
                Err(e) => {
                    eprintln!(
                        "warning: could not write telemetry for {}: {e}",
                        result.workload
                    );
                }
            }
        }
        eprintln!("(wrote {written} telemetry series under {})", dir.display());
    }

    let csv = args.csv_dir.as_deref();
    for (name, file, fig) in figure_set(&spec, &results, need_ladder) {
        if sel(name) {
            emit(&fig, csv, file);
        }
    }

    if args.compare {
        return compare(&spec, &results, need_ladder, parallel_elapsed, &pool);
    }
    0
}

/// Re-runs the sweep serially and uncached, then verifies the parallel
/// figures are byte-identical and reports the wall-time ratio.
fn compare(
    spec: &Arc<SweepSpec>,
    parallel_results: &[miopt::runner::RunResult],
    need_ladder: bool,
    parallel_elapsed: Duration,
    pool: &PoolOptions,
) -> i32 {
    eprintln!("comparing against a serial uncached sweep ...");
    let serial_opts = SweepOptions {
        pool: PoolOptions {
            workers: 1,
            ..pool.clone()
        },
        cache: None,
    };
    let t0 = Instant::now();
    let serial = run_sweep(spec, "compare-serial", &serial_opts);
    let serial_elapsed = t0.elapsed();
    let serial_results = match serial.results(spec) {
        Ok(r) => r,
        Err(failures) => {
            eprintln!("error: serial comparison run failed:\n{failures}");
            return 1;
        }
    };
    let a = figure_set(spec, parallel_results, need_ladder);
    let b = figure_set(spec, &serial_results, need_ladder);
    for ((name, _, fa), (_, _, fb)) in a.iter().zip(&b) {
        assert_eq!(
            fa.to_csv(),
            fb.to_csv(),
            "{name}: parallel and serial sweeps must be byte-identical"
        );
    }
    eprintln!(
        "parallel and serial figures are byte-identical ({} figures checked)",
        a.len()
    );
    eprintln!(
        "serial {:.1}s vs parallel {:.1}s: {:.2}x",
        serial_elapsed.as_secs_f64(),
        parallel_elapsed.as_secs_f64(),
        serial_elapsed.as_secs_f64() / parallel_elapsed.as_secs_f64().max(1e-9),
    );
    0
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The message a parser refuses its arguments with (it panics, on a
    /// thread of its own so the test outlives it).
    pub(crate) fn refusal<T: Send + 'static>(parse: impl FnOnce() -> T + Send + 'static) -> String {
        let payload = std::thread::spawn(parse)
            .join()
            .err()
            .expect("the arguments are refused");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => (*payload.downcast::<&str>().expect("a message")).to_string(),
        }
    }

    fn parse(list: &[&str]) -> CliArgs {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn defaults_select_everything() {
        let a = parse(&[]);
        assert_eq!(a.selected.len(), ALL_OUTPUTS.len());
        assert_eq!(a.common.jobs, 0);
        assert!(!a.no_cache);
        assert_eq!(a.common.sweep_name, "figures-paper");
    }

    #[test]
    fn flags_parse() {
        let a = parse(&[
            "--scale",
            "quick",
            "--only",
            "FwSoft,FwPool",
            "--csv",
            "/tmp/x",
            "--fig6",
            "--jobs",
            "4",
            "--no-cache",
            "--timeout-secs",
            "30",
            "--quiet",
            "--sweep-name",
            "mysweep",
        ]);
        assert_eq!(a.scale_name, "quick");
        assert_eq!(a.only.as_ref().unwrap().len(), 2);
        assert!(a.only.unwrap().contains("fwsoft"));
        assert_eq!(a.selected.iter().collect::<Vec<_>>(), vec!["fig6"]);
        assert_eq!(a.common.jobs, 4);
        assert!(a.no_cache);
        assert_eq!(a.timeout, Some(Duration::from_secs(30)));
        assert!(a.common.quiet);
        assert_eq!(a.common.sweep_name, "mysweep");
    }

    #[test]
    fn serial_is_one_worker() {
        assert_eq!(parse(&["--serial"]).common.jobs, 1);
    }

    #[test]
    fn telemetry_flag_parses_bare_and_with_interval() {
        assert_eq!(parse(&[]).telemetry, None);
        assert_eq!(
            parse(&["--telemetry"]).telemetry,
            Some(DEFAULT_TELEMETRY_INTERVAL)
        );
        assert_eq!(parse(&["--telemetry=2500"]).telemetry, Some(2500));
    }

    #[test]
    #[should_panic(expected = "at least 1 cycle")]
    fn zero_telemetry_interval_rejected() {
        drop(parse(&["--telemetry=0"]));
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn unknown_positional_rejected() {
        // Resuming replays the journal, so the pair is refused by name
        // instead of `--no-journal` silently re-running the grid.
        let refusal = refusal(|| parse(&["--resume", "x", "--no-journal"]));
        assert!(refusal.contains("--resume") && refusal.contains("--no-journal"));
        drop(parse(&["fig6"]));
    }

    #[test]
    fn robustness_flags_parse() {
        let a = parse(&[
            "--check-invariants",
            "--no-skip",
            "--fail-fast",
            "--retries",
            "2",
            "--no-journal",
        ]);
        assert!(a.common.check_invariants);
        assert!(a.common.no_skip);
        assert!(a.fail_fast);
        assert_eq!(a.common.retries, 2);
        assert!(a.common.no_journal);
        assert!(a.common.resume.is_none());
        let d = parse(&[]).common;
        assert!(!d.check_invariants && !d.no_skip && !d.no_journal);
        assert_eq!(d.retries, 0);
    }

    #[test]
    fn resume_names_the_run() {
        let a = parse(&["--resume", "figures-quick"]).common;
        assert_eq!(a.resume.as_deref(), Some("figures-quick"));
        assert_eq!(a.sweep_name, "figures-quick");
        // An explicit --sweep-name is overridden by the resume id: the
        // journal lives under the original run's name.
        let b = parse(&["--sweep-name", "other", "--resume", "orig"]);
        assert_eq!(b.common.sweep_name, "orig");
    }
}
