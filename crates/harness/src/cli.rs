//! The `miopt-harness` figure command: regenerates every table and
//! figure of the paper's evaluation through the parallel sweep
//! orchestrator.
//!
//! Its flags are the rows of `CliArgs`'s flag table plus the flags it
//! shares with `serve` ([`CommonArgs`]); a refused command line prints
//! the usage generated from them (see [`crate::flags`]). With no figure
//! selector, everything is regenerated (`--all`).

use crate::cache::ResultCache;
use crate::figures::{fig10, fig11, fig12, fig13, fig4, fig5, fig6, fig7, fig8, fig9, FigureData};
use crate::flags::{self, num, positive, put, Command, Flag};
use crate::kind::JobKind;
use crate::pool::{PoolOptions, ResultSource};
use crate::sweep::{open_journal, run_kind, JournalOptions, SweepRun};
use miopt::runner::SweepSpec;
use miopt::SystemConfig;
use miopt_workloads::{suite, SuiteConfig, Workload};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

const ALL_OUTPUTS: [&str; 12] = [
    "table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13",
];

/// Sampling interval a bare `--telemetry` selects, in cycles (the
/// default of its flag table row).
pub const DEFAULT_TELEMETRY_INTERVAL: u64 = 100_000;

/// The options `miopt-harness` and `miopt-harness serve` share, set by
/// one set of flag table rows (`shared_flags`).
#[derive(Default)]
pub struct CommonArgs {
    /// Worker threads (0 = all available cores).
    pub jobs: usize,
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

/// The flag table rows of [`CommonArgs`], for each command that has them.
#[rustfmt::skip]
pub(crate) fn shared_flags<A: AsMut<CommonArgs>>() -> Vec<Flag<A>> {
    let rows: &[Flag<A>] = &[
        ("--jobs <N>", "", "worker threads (0 = every core)", |a, v| put(&mut a.as_mut().jobs, num(v)?)),
        ("--serial", "", "one worker thread (--jobs 1)", |a, _| put(&mut a.as_mut().jobs, 1)),
        ("--no-skip", "", "step every cycle (bit-identical, slower)", |a, _| put(&mut a.as_mut().no_skip, true)),
        ("--check-invariants", "", "invariant checks and a watchdog on every job", |a, _| put(&mut a.as_mut().check_invariants, true)),
        ("--out <DIR>", "results/runs", "directory of reports and journals", |a, v| put(&mut a.as_mut().runs_dir, v.into())),
        ("--sweep-name <NAME>", "", "report and journal name", |a, v| put(&mut a.as_mut().sweep_name, v.into())),
        ("--resume <RUN>", "", "finish the interrupted run RUN from its journal", |a, v| put(&mut a.as_mut().resume, Some(v.into()))),
        ("--no-journal", "", "run without the write-ahead journal", |a, _| put(&mut a.as_mut().no_journal, true)),
        ("--quiet", "", "no per-job progress lines", |a, _| put(&mut a.as_mut().quiet, true)),
    ];
    rows.to_vec()
}

impl CommonArgs {
    /// The shared half of a command's check: refuses `--resume` with
    /// `--no-journal` (resuming replays the journal), then names the run:
    /// the resumed run's id, else `--sweep-name`, else `default_name`.
    pub(crate) fn check(&mut self, default_name: String) -> Result<(), String> {
        if self.resume.is_some() && self.no_journal {
            return Err("--resume cannot be combined with --no-journal".to_string());
        }
        if let Some(id) = &self.resume {
            self.sweep_name.clone_from(id);
        } else if self.sweep_name.is_empty() {
            self.sweep_name = default_name;
        }
        Ok(())
    }

    /// The worker pool these flags ask for.
    #[must_use]
    pub fn pool_options(&self) -> PoolOptions {
        PoolOptions {
            workers: self.jobs,
            progress: !self.quiet,
            ..PoolOptions::default()
        }
    }
}

/// The one place a workload name is resolved: builds `scale`'s suite
/// once and returns it with the suite index of each of `names` (names
/// match without regard to case); refuses, by name, each that the suite
/// lacks.
pub(crate) fn known_workloads<'a>(
    scale: &SuiteConfig,
    names: impl Iterator<Item = &'a str>,
) -> Result<(Vec<Workload>, Vec<usize>), String> {
    let suite = suite(scale);
    let (mut picks, mut unknown) = (Vec::new(), Vec::new());
    for name in names {
        match suite.iter().position(|w| w.name.eq_ignore_ascii_case(name)) {
            Some(i) => picks.push(i),
            None => unknown.push(name),
        }
    }
    match unknown.as_slice() {
        [] => Ok((suite, picks)),
        _ => Err(format!("unknown workload(s) {unknown:?}")),
    }
}

/// Runs `kind` the way both subcommands do: through the pool `pool`,
/// with a write-ahead journal under `--out` when `journaled` (resumed
/// when `--resume` names it), and the final report written to
/// `<out>/<name>.json`. Returns the process exit code when the journal
/// cannot be opened or the report cannot be written.
pub(crate) fn drive<K: JobKind>(
    kind: &K,
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
        journal = Some(open_journal(kind, name, &opts).map_err(|e| {
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
#[derive(Default)]
pub struct CliArgs {
    /// Workload suite scale.
    pub scale: SuiteConfig,
    /// The scale's name (`"paper"` or `"quick"`), for artifact naming.
    pub scale_name: String,
    /// The lower-cased `--only` workload names (empty: every workload).
    only_names: BTreeSet<String>,
    /// The workloads to run: the suite at `scale`, less those `--only`
    /// leaves out, in suite order.
    pub workloads: Vec<Workload>,
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
    /// Per-job simulated-cycle budget (by default
    /// [`DEFAULT_MAX_CYCLES`](miopt::runner::DEFAULT_MAX_CYCLES)).
    pub budget: u64,
    /// Telemetry sampling interval in cycles, when `--telemetry` was
    /// given (`None` = telemetry off).
    pub telemetry: Option<u64>,
    /// Cancel queued jobs after the first failure.
    pub fail_fast: bool,
}

impl AsMut<CommonArgs> for CliArgs {
    fn as_mut(&mut self) -> &mut CommonArgs {
        &mut self.common
    }
}

/// The setter of the output selectors: the switch's name, less `--`.
fn select(a: &mut CliArgs, switch: &str) -> Result<(), String> {
    a.selected.insert(switch.trim_start_matches('-').into());
    Ok(())
}

impl Command for CliArgs {
    const NAME: &'static str = "";

    #[rustfmt::skip]
    fn flags() -> Vec<Flag<CliArgs>> {
        let rows: &[Flag<CliArgs>] = &[
            ("--scale <S>", "paper", "workload scale: paper | quick", |a, v| put(&mut a.scale_name, flags::one_of(v, &["paper", "quick"])?)),
            ("--only <W,...>", "", "only these workloads (case-insensitive)", |a, v| put(&mut a.only_names, v.split(',').map(str::to_lowercase).collect())),
            ("--csv <DIR>", "", "also write each figure to <DIR>/<figure>.csv", |a, v| put(&mut a.csv_dir, Some(v.into()))),
            ("--no-cache", "", "skip the persistent result cache", |a, _| put(&mut a.no_cache, true)),
            ("--cache-dir <DIR>", "results/cache", "result cache directory", |a, v| put(&mut a.cache_dir, v.into())),
            ("--budget <N>", "20000000000", "per-job cycle budget", |a, v| put(&mut a.budget, positive(v)?)),
            ("--telemetry[=N]", "100000", "sample telemetry every N cycles", |a, v| put(&mut a.telemetry, Some(positive(v)?))),
            ("--fail-fast", "", "cancel queued jobs after the first failure", |a, _| put(&mut a.fail_fast, true)),
            ("--all", "", "every table and figure (also with no selector)", |a, _| put(&mut a.selected, ALL_OUTPUTS.map(String::from).into())),
            ("--table1", "", "Table 1: simulated system parameters", select),
            ("--table2", "", "Table 2: the workloads", select),
            ("--fig4", "", "Figure 4: compute bandwidth under CacheR", select),
            ("--fig5", "", "Figure 5: data bandwidth under CacheR", select),
            ("--fig6", "", "Figure 6: execution time per static policy", select),
            ("--fig7", "", "Figure 7: DRAM accesses per static policy", select),
            ("--fig8", "", "Figure 8: cache stalls per static policy", select),
            ("--fig9", "", "Figure 9: DRAM row-buffer hit ratio per static policy", select),
            ("--fig10", "", "Figure 10: execution time along the optimization ladder", select),
            ("--fig11", "", "Figure 11: DRAM accesses along the ladder", select),
            ("--fig12", "", "Figure 12: cache stalls along the ladder", select),
            ("--fig13", "", "Figure 13: row-buffer hit ratio along the ladder", select),
        ];
        [rows, &shared_flags()].concat()
    }

    fn check(&mut self) -> Result<(), String> {
        if self.scale_name == "quick" {
            self.scale = SuiteConfig::quick();
        }
        if self.common.resume.is_some() && self.telemetry.is_some() {
            return Err("--resume cannot be combined with --telemetry (not journaled)".into());
        }
        let only = self.only_names.iter().map(String::as_str);
        let (suite, picks) =
            known_workloads(&self.scale, only).map_err(|e| format!("--only: {e}"))?;
        self.workloads = (suite.into_iter().enumerate())
            .filter(|(i, _)| self.only_names.is_empty() || picks.contains(i))
            .map(|(_, w)| w)
            .collect();
        if self.selected.is_empty() {
            self.selected.extend(ALL_OUTPUTS.map(String::from));
        }
        self.common.check(format!("figures-{}", self.scale_name))
    }
}

/// Parses CLI arguments (everything after the program name), panicking
/// with the refusal's message on bad ones (the binary reports them
/// through [`crate::main`]).
#[must_use]
pub fn parse_args(args: impl Iterator<Item = String>) -> CliArgs {
    flags::parse(&args.collect::<Vec<_>>()).unwrap_or_else(|e| panic!("{}", e.message))
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

fn emit(fig: &FigureData, csv_dir: Option<&str>, file: &str) -> std::io::Result<()> {
    println!("{}", fig.to_table());
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{file}.csv");
        std::fs::write(&path, fig.to_csv())?;
        println!("(wrote {path})");
    }
    Ok(())
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
    let cfg = SystemConfig::paper_table1();
    let sel = |s: &str| args.selected.contains(s);

    if sel("table1") {
        print_table1(&cfg);
    }
    if sel("table2") {
        print_table2(&args.workloads);
    }

    let need_sweep = ALL_OUTPUTS[2..].iter().any(|f| sel(f));
    if !need_sweep {
        return 0;
    }
    let need_ladder = ["fig10", "fig11", "fig12", "fig13"].iter().any(|f| sel(f));

    // One grid covers all selected figures: the static prefix feeds
    // figures 4-9 and the ladder suffix feeds 10-13.
    let mut spec = if need_ladder {
        SweepSpec::figures(cfg, args.workloads.clone())
    } else {
        SweepSpec::statics(cfg, args.workloads.clone())
    };
    spec.run_opts.max_cycles = args.budget;
    spec.run_opts.telemetry_interval = args.telemetry;
    spec.run_opts.check_invariants = args.common.check_invariants;
    spec.run_opts.no_skip = args.common.no_skip;
    let pool = PoolOptions {
        fail_fast: args.fail_fast,
        ..args.common.pool_options()
    };
    let cache = (!args.no_cache).then(|| ResultCache::new(&args.cache_dir));
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
            if let Err(e) = emit(&fig, csv, file) {
                eprintln!("error: --csv {}: {e}", csv.unwrap_or_default());
                return 1;
            }
        }
    }

    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> CliArgs {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    /// The message `list` is refused with.
    fn refusal(list: &[&str]) -> String {
        let argv: Vec<String> = list.iter().map(|s| (*s).to_string()).collect();
        flags::parse::<CliArgs>(&argv)
            .err()
            .expect("refused")
            .message
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
            "--budget",
            "30",
            "--quiet",
            "--sweep-name",
            "mysweep",
        ]);
        assert_eq!(a.scale_name, "quick");
        let names: Vec<&str> = a.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["FwPool", "FwSoft"]);
        assert_eq!(a.selected.iter().collect::<Vec<_>>(), vec!["fig6"]);
        assert_eq!(a.common.jobs, 4);
        assert!(a.no_cache);
        assert_eq!(a.budget, 30);
        assert!(a.common.quiet);
        assert_eq!(a.common.sweep_name, "mysweep");
    }

    #[test]
    fn only_keeps_suite_order() {
        let a = parse(&["--scale", "quick", "--only", "BwPool,FwPool", "--fig6"]);
        let names: Vec<&str> = a.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["FwPool", "BwPool"]);
        assert_eq!(parse(&["--scale", "quick"]).workloads.len(), 17);
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
    fn zero_telemetry_interval_rejected() {
        let refusal = refusal(&["--telemetry=0"]);
        assert!(
            refusal.starts_with("--telemetry: must be at least 1"),
            "{refusal}"
        );
    }

    #[test]
    fn unknown_positional_rejected() {
        // Resuming replays the journal, so the pair is refused by name
        // instead of `--no-journal` silently re-running the grid.
        let both = refusal(&["--resume", "x", "--no-journal"]);
        assert!(both.contains("--resume") && both.contains("--no-journal"));
        assert_eq!(refusal(&["fig6"]), "unexpected argument \"fig6\"");
    }

    #[test]
    fn robustness_flags_parse() {
        let a = parse(&[
            "--check-invariants",
            "--no-skip",
            "--fail-fast",
            "--no-journal",
        ]);
        assert!(a.common.check_invariants);
        assert!(a.common.no_skip);
        assert!(a.fail_fast);
        assert!(a.common.no_journal);
        assert!(a.common.resume.is_none());
        let d = parse(&[]).common;
        assert!(!d.check_invariants && !d.no_skip && !d.no_journal);
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
