//! Figure extraction, table formatting and the reproduction gate.
//!
//! Turns raw sweep results into the normalized series each paper figure
//! plots, and renders them as aligned text tables or CSV, for the
//! `miopt-harness` CLI's parallel sweeps. `miopt-harness check`
//! ([`run_check`]) reads the CSVs back and measures the paper's
//! qualitative claims on them: each check passes, or fails for one of
//! the known deviations EXPERIMENTS.md explains, and any other verdict
//! fails the gate.

use crate::flags::{put, Command, Flag};
use miopt::runner::{LadderResult, RunResult};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The figures the figure command writes, as `(selector, CSV file
/// stem)` in output order: `--csv DIR` writes `DIR/<stem>.csv`, and
/// `check` reads them back.
pub(crate) const FIGURE_FILES: [(&str, &str); 10] = [
    ("fig4", "fig4_gvops"),
    ("fig5", "fig5_gmrs"),
    ("fig6", "fig6_exec_time"),
    ("fig7", "fig7_dram_accesses"),
    ("fig8", "fig8_cache_stalls"),
    ("fig9", "fig9_row_hits"),
    ("fig10", "fig10_opt_exec_time"),
    ("fig11", "fig11_opt_dram"),
    ("fig12", "fig12_opt_stalls"),
    ("fig13", "fig13_opt_rows"),
];

/// A figure's data: one row per workload, one named series per column.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Figure title.
    pub title: String,
    /// Workload names, in the paper's order.
    pub workloads: Vec<String>,
    /// `(series label, value per workload)`.
    pub series: Vec<(String, Vec<f64>)>,
}

impl FigureData {
    /// Renders the figure as an aligned text table.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let w0 = self
            .workloads
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(8)
            .max(8);
        out.push_str(&format!("{:w0$}", "workload"));
        for (label, _) in &self.series {
            out.push_str(&format!(" {label:>14}"));
        }
        out.push('\n');
        for (i, wl) in self.workloads.iter().enumerate() {
            out.push_str(&format!("{wl:w0$}"));
            for (_, vals) in &self.series {
                out.push_str(&format!(" {:>14.4}", vals[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the figure as CSV (header + one row per workload).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("workload");
        for (label, _) in &self.series {
            out.push(',');
            out.push_str(label);
        }
        out.push('\n');
        for (i, wl) in self.workloads.iter().enumerate() {
            out.push_str(wl);
            for (_, vals) in &self.series {
                out.push_str(&format!(",{}", vals[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Parses what [`to_csv`](Self::to_csv) renders; the CSV carries no
    /// title, so it is given. Refuses, naming the line, a header that
    /// does not start with `workload`, a repeated workload or series, a
    /// row with more or fewer values than the header has series, and a
    /// value that is not a finite number.
    pub(crate) fn from_csv(title: &str, csv: &str) -> Result<FigureData, String> {
        let mut lines = csv.lines().map(|line| line.split(','));
        let mut header = lines.next().into_iter().flatten();
        if header.next() != Some("workload") {
            return Err("line 1: the header does not start with `workload`".into());
        }
        let mut fig = FigureData {
            title: title.to_string(),
            workloads: Vec::new(),
            series: Vec::new(),
        };
        for label in header {
            if fig.series.iter().any(|(l, _)| l == label) {
                return Err(format!("line 1: series {label:?} repeats"));
            }
            fig.series.push((label.to_string(), Vec::new()));
        }
        for (n, mut fields) in (2..).zip(lines) {
            let workload = fields.next().unwrap_or_default();
            if fig.workloads.iter().any(|w| w == workload) {
                return Err(format!("line {n}: workload {workload:?} repeats"));
            }
            fig.workloads.push(workload.to_string());
            let values: Vec<&str> = fields.collect();
            let (got, want) = (values.len(), fig.series.len());
            if got != want {
                return Err(format!("line {n}: {got} values for {want} series"));
            }
            for ((_, vals), v) in fig.series.iter_mut().zip(values) {
                let value = v.parse().ok().filter(|x: &f64| x.is_finite());
                let not_finite = || format!("line {n}: {v:?} is not a finite number");
                vals.push(value.ok_or_else(not_finite)?);
            }
        }
        Ok(fig)
    }

    /// The value of `series` for `workload`.
    fn at(&self, workload: &str, series: &str) -> Result<f64, String> {
        let row = self.workloads.iter().position(|w| w == workload);
        let column = self.series.iter().find(|(label, _)| label == series);
        let value = row.zip(column).and_then(|(i, (_, vals))| vals.get(i));
        let missing = || format!("{}: no {workload} {series} value", self.title);
        value.copied().ok_or_else(missing)
    }
}

/// Extracts a per-policy metric from a static sweep, normalized per
/// workload by the first (Uncached) policy when requested.
fn sweep_series(
    title: &str,
    sweep: &[Vec<RunResult>],
    metric: impl Fn(&RunResult) -> f64,
    normalize_to_first: bool,
) -> FigureData {
    let workloads = sweep.iter().map(|runs| runs[0].workload.clone()).collect();
    let n_policies = sweep.first().map_or(0, Vec::len);
    let mut series = Vec::new();
    for p in 0..n_policies {
        let label = sweep[0][p].policy.label();
        let vals = sweep
            .iter()
            .map(|runs| {
                let v = metric(&runs[p]);
                if normalize_to_first {
                    let base = metric(&runs[0]);
                    if base == 0.0 {
                        0.0
                    } else {
                        v / base
                    }
                } else {
                    v
                }
            })
            .collect();
        series.push((label, vals));
    }
    FigureData {
        title: title.to_string(),
        workloads,
        series,
    }
}

/// Figure 4: compute bandwidth (GVOPS) with the CacheR policy.
#[must_use]
pub fn fig4(sweep: &[Vec<RunResult>]) -> FigureData {
    let workloads: Vec<String> = sweep.iter().map(|r| r[0].workload.clone()).collect();
    let vals = sweep
        .iter()
        .map(|runs| runs[1].metrics.gvops()) // index 1 = CacheR
        .collect();
    FigureData {
        title: "Figure 4: Compute BW (GVOPS), CacheR".to_string(),
        workloads,
        series: vec![("GVOPS".to_string(), vals)],
    }
}

/// Figure 5: data bandwidth (giga memory requests per second), CacheR.
#[must_use]
pub fn fig5(sweep: &[Vec<RunResult>]) -> FigureData {
    let workloads: Vec<String> = sweep.iter().map(|r| r[0].workload.clone()).collect();
    let vals = sweep.iter().map(|runs| runs[1].metrics.gmrs()).collect();
    FigureData {
        title: "Figure 5: Data BW (GMR/s), CacheR".to_string(),
        workloads,
        series: vec![("GMR/s".to_string(), vals)],
    }
}

/// Figure 6: execution time per static policy, normalized to Uncached.
#[must_use]
pub fn fig6(sweep: &[Vec<RunResult>]) -> FigureData {
    sweep_series(
        "Figure 6: Normalized execution time (to Uncached)",
        sweep,
        |r| r.metrics.cycles as f64,
        true,
    )
}

/// Figure 7: DRAM accesses per static policy, normalized to Uncached.
#[must_use]
pub fn fig7(sweep: &[Vec<RunResult>]) -> FigureData {
    sweep_series(
        "Figure 7: DRAM accesses (normalized to Uncached)",
        sweep,
        |r| r.metrics.dram_accesses() as f64,
        true,
    )
}

/// Figure 8: cache stalls per GPU memory request (log scale in the paper).
#[must_use]
pub fn fig8(sweep: &[Vec<RunResult>]) -> FigureData {
    sweep_series(
        "Figure 8: Cache stalls per memory request",
        sweep,
        |r| r.metrics.stalls_per_request(),
        false,
    )
}

/// Figure 9: DRAM row-buffer hit ratio per static policy.
#[must_use]
pub fn fig9(sweep: &[Vec<RunResult>]) -> FigureData {
    sweep_series(
        "Figure 9: DRAM row buffer hit ratio",
        sweep,
        |r| r.metrics.row_hit_ratio(),
        false,
    )
}

fn ladder_figure(
    title: &str,
    ladders: &[LadderResult],
    metric: impl Fn(&RunResult) -> f64,
    normalize: impl Fn(&LadderResult) -> f64,
) -> FigureData {
    let workloads = ladders.iter().map(|l| l.workload.clone()).collect();
    let mut series: Vec<(String, Vec<f64>)> = vec![
        ("StaticBest".to_string(), Vec::new()),
        ("StaticWorst".to_string(), Vec::new()),
        ("CacheRW-AB".to_string(), Vec::new()),
        ("CacheRW-CR".to_string(), Vec::new()),
        ("CacheRW-PCby".to_string(), Vec::new()),
    ];
    for l in ladders {
        let base = normalize(l);
        let norm = |v: f64| if base == 0.0 { 0.0 } else { v / base };
        series[0].1.push(norm(metric(l.static_best())));
        series[1].1.push(norm(metric(l.static_worst())));
        for (i, run) in l.ladder.iter().enumerate() {
            series[2 + i].1.push(norm(metric(run)));
        }
    }
    FigureData {
        title: title.to_string(),
        workloads,
        series,
    }
}

/// Figure 10: ladder execution time normalized to the static best.
#[must_use]
pub fn fig10(ladders: &[LadderResult]) -> FigureData {
    ladder_figure(
        "Figure 10: Execution time (normalized to StaticBest)",
        ladders,
        |r| r.metrics.cycles as f64,
        |l| l.static_best().metrics.cycles as f64,
    )
}

/// Figure 11: ladder DRAM accesses normalized to Uncached.
#[must_use]
pub fn fig11(ladders: &[LadderResult]) -> FigureData {
    ladder_figure(
        "Figure 11: DRAM accesses (normalized to Uncached)",
        ladders,
        |r| r.metrics.dram_accesses() as f64,
        |l| l.uncached().metrics.dram_accesses() as f64,
    )
}

/// Figure 12: ladder cache stalls per memory request.
#[must_use]
pub fn fig12(ladders: &[LadderResult]) -> FigureData {
    ladder_figure(
        "Figure 12: Cache stalls per memory request",
        ladders,
        |r| r.metrics.stalls_per_request(),
        |_| 1.0,
    )
}

/// Figure 13: ladder DRAM row hit ratio.
#[must_use]
pub fn fig13(ladders: &[LadderResult]) -> FigureData {
    ladder_figure(
        "Figure 13: DRAM row hit ratio",
        ladders,
        |r| r.metrics.row_hit_ratio(),
        |_| 1.0,
    )
}

/// Reads the figures `--csv DIR` writes from `dir`, as `(stem, figure)`
/// in [`FIGURE_FILES`] order, each titled with its path. An error names
/// the file.
fn load_figures(dir: &Path) -> Result<Vec<(&'static str, FigureData)>, String> {
    let load = |stem: &'static str| {
        let path = dir.join(format!("{stem}.csv"));
        let title = path.display().to_string();
        let csv = std::fs::read_to_string(&path).map_err(|e| format!("{title}: {e}"))?;
        let fig = FigureData::from_csv(&title, &csv).map_err(|e| format!("{title}: {e}"))?;
        Ok((stem, fig))
    };
    FIGURE_FILES.iter().map(|&(_, stem)| load(stem)).collect()
}

/// Where a shape check puts its value: above, at or above, below, at
/// or below, or strictly between its thresholds.
enum Bound {
    Over(f64),
    AtLeast(f64),
    Under(f64),
    AtMost(f64),
    Between(f64, f64),
}
use Bound::{AtLeast, AtMost, Between, Over, Under};

/// One of the paper's qualitative claims, measured on the figures.
struct Check {
    name: String,
    value: f64,
    bound: Bound,
}

impl Check {
    /// How far the value lies inside the bound: positive inside,
    /// negative outside, zero on an edge.
    fn margin(&self) -> f64 {
        match self.bound {
            Over(t) | AtLeast(t) => self.value - t,
            Under(t) | AtMost(t) => t - self.value,
            Between(lo, hi) => (self.value - lo).min(hi - self.value),
        }
    }

    /// The verdict the gate accepts (`pass`, or `deviation N` for a
    /// check that fails for known deviation N), or why it fails the gate.
    fn verdict(&self) -> Result<String, String> {
        let holds = match self.bound {
            AtLeast(_) | AtMost(_) => self.margin() >= 0.0,
            _ => self.margin() > 0.0,
        };
        let known = EXPECTED_DEVIATIONS
            .iter()
            .find(|(name, _)| *name == self.name);
        match (holds, known.map(|&(_, cluster)| cluster)) {
            (true, None) => Ok("pass".into()),
            (false, Some(cluster)) => Ok(format!("deviation {cluster}")),
            (false, None) => Err("fails".into()),
            (true, Some(cluster)) => Err(format!(
                "passes, but deviation {cluster} expects it to fail"
            )),
        }
    }

    /// The check's line of the report: verdict, name, value, threshold
    /// and signed margin.
    fn line(&self) -> String {
        let threshold = match self.bound {
            Over(t) => format!("> {t:.4}"),
            AtLeast(t) => format!(">= {t:.4}"),
            Under(t) => format!("< {t:.4}"),
            AtMost(t) => format!("<= {t:.4}"),
            Between(lo, hi) => format!("in ({lo}, {hi})"),
        };
        let verdict = self.verdict().unwrap_or_else(|_| "FAIL".into());
        let (name, value, margin) = (&self.name, self.value, self.margin());
        format!("{verdict:<12} {name:<50} {value:>9.4} {threshold:<16} {margin:+.4}")
    }
}

/// The checks the committed figures fail, each with the cluster of
/// EXPERIMENTS.md's "Known deviations" that explains it. The gate
/// expects each to fail, so a deviation that starts passing fails the
/// gate, just as a pass that starts failing does.
const EXPECTED_DEVIATIONS: [(&str, u8); 19] = [
    ("fig6 DGEMM insensitive (<7% spread)", 1),
    ("fig6 SGEMM insensitive (<7% spread)", 1),
    ("fig7 SGEMM read caching cuts DRAM to 8-45%", 1),
    ("fig7 DGEMM read caching cuts DRAM to 8-45%", 1),
    ("fig6 FwAct caching hurts", 2),
    ("fig6 FwLRN caching hurts", 2),
    ("fig6 BwAct caching hurts", 2),
    ("fig6 max slowdown in 5-60% band", 2),
    ("fig9 FwAct caching hurts row hits", 2),
    ("fig9 FwLRN caching hurts row hits", 2),
    ("fig9 BwAct caching hurts row hits", 2),
    ("fig9 FwPool caching hurts row hits", 2),
    ("fig10 optimizations recover FwLRN vs StaticWorst", 2),
    ("fig10 optimizations recover FwAct vs StaticWorst", 2),
    ("fig6 FwGRU caching helps", 3),
    ("fig6 FwLSTM caching helps", 3),
    ("fig6 FwBwGRU caching helps", 3),
    ("fig6 FwBwLSTM caching helps", 3),
    ("fig7 BwBN write caching helps further", 4),
];

/// The workloads the paper's Figure 6 finds insensitive to the policy.
const INSENSITIVE: [&str; 3] = ["DGEMM", "SGEMM", "CM"];
/// The workloads caching slows down (Figure 6).
const THROUGHPUT: [&str; 3] = ["FwAct", "FwLRN", "BwAct"];
/// The workloads caching speeds up (Figure 6).
const REUSE: [&str; 11] = [
    "FwBN", "FwPool", "FwSoft", "BwSoft", "BwPool", "FwGRU", "FwLSTM", "FwBwGRU", "FwBwLSTM",
    "BwBN", "FwFc",
];

/// The paper's qualitative claims (DESIGN.md's acceptance criteria),
/// measured on `figs` as [`load_figures`] returns them. An error names
/// a figure that lacks a value a check needs.
#[rustfmt::skip]
fn shape_checks(figs: &[(&str, FigureData)]) -> Result<Vec<Check>, String> {
    let fig = |stem: &str| {
        let found = figs.iter().find(|(s, _)| *s == stem);
        found.map(|(_, f)| f).ok_or(format!("no figure {stem}"))
    };
    let (f6, f7, f8) = (fig("fig6_exec_time")?, fig("fig7_dram_accesses")?, fig("fig8_cache_stalls")?);
    let (f9, f10, f13) = (fig("fig9_row_hits")?, fig("fig10_opt_exec_time")?, fig("fig13_opt_rows")?);
    let cached = |f: &FigureData, w: &str| Ok::<_, String>((f.at(w, "CacheR")?, f.at(w, "CacheRW")?));
    let best6 = |w: &str| cached(f6, w).map(|(r, rw)| r.min(rw));
    let mut checks = Vec::new();
    let mut check = |name: String, value: f64, bound: Bound| checks.push(Check { name, value, bound });

    // Figure 6: the three categories and the size of the effects.
    for w in INSENSITIVE {
        let (r, rw) = cached(f6, w)?;
        let spread = (r - 1.0).abs().max((rw - 1.0).abs());
        check(format!("fig6 {w} insensitive (<7% spread)"), spread, Under(0.07));
    }
    for w in THROUGHPUT {
        check(format!("fig6 {w} caching hurts"), best6(w)?, Over(1.02));
    }
    for w in REUSE {
        check(format!("fig6 {w} caching helps"), best6(w)?, Under(0.98));
    }
    let gain = REUSE.iter().try_fold(f64::INFINITY, |min, w| Ok::<_, String>(min.min(best6(w)?)))?;
    check("fig6 max speedup in 12-45% band".into(), gain, Between(0.55, 0.88));
    let loss = THROUGHPUT.iter().try_fold(f64::NEG_INFINITY, |max, w| Ok::<_, String>(max.max(best6(w)?)))?;
    check("fig6 max slowdown in 5-60% band".into(), loss, Between(1.05, 1.60));

    // Figure 7: how much DRAM demand each policy removes.
    for (w, lo, hi) in [("SGEMM", 0.08, 0.40), ("DGEMM", 0.10, 0.45)] {
        check(format!("fig7 {w} read caching cuts DRAM to 8-45%"), f7.at(w, "CacheR")?, Between(lo, hi));
    }
    check("fig7 FwFc reduction >=80%".into(), f7.at("FwFc", "CacheR")?, Under(0.20));
    for w in THROUGHPUT {
        check(format!("fig7 {w} ~no reduction (>85%)"), f7.at(w, "CacheR")?, Over(0.85));
    }
    for w in ["BwPool", "BwBN"] {
        let (r, rw) = cached(f7, w)?;
        check(format!("fig7 {w} write caching helps further"), rw, Under(r - 0.03));
    }

    // Figure 8: caching stalls the streaming layers; Uncached never stalls.
    for w in THROUGHPUT.into_iter().chain(["FwPool"]) {
        let (r, rw) = cached(f8, w)?;
        check(format!("fig8 {w} cached stalls >= 0.5/req"), r.max(rw), Over(0.5));
    }
    for w in &f8.workloads {
        check(format!("fig8 {w} uncached ~0 stalls"), f8.at(w, "Uncached")?, Under(0.01));
    }

    // Figure 9: caching moves the DRAM row-buffer hit ratio.
    for w in ["FwAct", "FwLRN", "BwAct", "FwPool"] {
        let ((r, rw), unc) = (cached(f9, w)?, f9.at(w, "Uncached")?);
        check(format!("fig9 {w} caching hurts row hits"), r.min(rw), Under(unc - 0.02));
    }
    for w in ["BwBN", "FwFc"] {
        let ((r, rw), unc) = (cached(f9, w)?, f9.at(w, "Uncached")?);
        check(format!("fig9 {w} caching improves row hits"), r.max(rw), Over(unc + 0.02));
    }

    // Figures 10-13: the optimization ladder.
    let mut matched = 0;
    for w in &f10.workloads {
        matched += u32::from(f10.at(w, "CacheRW-PCby")? <= 1.08);
    }
    check("fig10 PCby within 8% of static best for >=14/17".into(), matched.into(), AtLeast(14.0));
    for w in ["FwLRN", "FwAct"] {
        let (pcby, worst) = (f10.at(w, "CacheRW-PCby")?, f10.at(w, "StaticWorst")?);
        check(format!("fig10 optimizations recover {w} vs StaticWorst"), pcby, AtMost(worst + 0.01));
    }
    for w in ["BwAct", "FwAct"] {
        let (ab, cr) = (f13.at(w, "CacheRW-AB")?, f13.at(w, "CacheRW-CR")?);
        check(format!("fig13 CR restores {w} row locality"), cr, AtLeast(ab - 0.01));
    }
    Ok(checks)
}

/// What fails the gate: each check whose verdict the gate does not
/// accept, and each known deviation that names no check.
fn gate_failures(checks: &[Check]) -> Vec<String> {
    let wrong = checks.iter().filter_map(|c| {
        let why = c.verdict().err()?;
        Some(format!("{} {why} (margin {:+.4})", c.name, c.margin()))
    });
    let unknown = (EXPECTED_DEVIATIONS.iter())
        .filter(|(name, _)| !checks.iter().any(|c| c.name == *name))
        .map(|(name, _)| format!("known deviation {name:?} names no check"));
    wrong.chain(unknown).collect()
}

/// How many checks have each verdict (`FAIL` for one the gate does not
/// accept).
fn tally(checks: &[Check]) -> BTreeMap<String, usize> {
    let mut tally = BTreeMap::new();
    for c in checks {
        *tally
            .entry(c.verdict().unwrap_or_else(|_| "FAIL".into()))
            .or_default() += 1;
    }
    tally
}

/// Parsed `check` subcommand options.
#[derive(Default)]
pub struct CheckArgs {
    /// The directory of figure CSVs to check.
    pub dir: PathBuf,
}

impl Command for CheckArgs {
    const NAME: &'static str = "check";

    #[rustfmt::skip]
    fn flags() -> Vec<Flag<CheckArgs>> {
        vec![("--dir <DIR>", "results", "the figure CSVs to check (as --csv DIR writes them)", |a, v| put(&mut a.dir, v.into()))]
    }
}

/// Runs the reproduction gate on `--dir`: prints one line per check and
/// a summary. Returns 0 when every verdict is the expected one, 1
/// otherwise or when a figure cannot be read (after `error: <path>: …`).
#[must_use]
pub fn run_check(args: &CheckArgs) -> i32 {
    let checks = match load_figures(&args.dir).and_then(|figs| shape_checks(&figs)) {
        Ok(checks) => checks,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "{:<12} {:<50} {:>9} {:<16} margin",
        "verdict", "check", "value", "threshold"
    );
    for c in &checks {
        println!("{}", c.line());
    }
    let tally: Vec<String> = tally(&checks)
        .iter()
        .map(|(v, n)| format!("{v}: {n}"))
        .collect();
    println!("{} checks; {}", checks.len(), tally.join(", "));
    let failures = gate_failures(&checks);
    for failure in &failures {
        eprintln!("FAIL: {failure}");
    }
    i32::from(!failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_sweep, SweepOptions};
    use miopt::runner::SweepSpec;
    use miopt::SystemConfig;
    use miopt_engine::prop;
    use miopt_workloads::{by_name, SuiteConfig};

    /// The FwSoft grid on the small test system, run through the pool.
    fn tiny_grid(
        grid: fn(SystemConfig, Vec<miopt_workloads::Workload>) -> SweepSpec,
    ) -> (SweepSpec, Vec<RunResult>) {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let spec = grid(SystemConfig::small_test(), vec![w]);
        let results = run_sweep(&spec, "tiny", &SweepOptions::default())
            .results(&spec)
            .expect("sweep finishes");
        (spec, results)
    }

    fn tiny_sweep() -> Vec<Vec<RunResult>> {
        let (spec, results) = tiny_grid(SweepSpec::statics);
        spec.assemble_statics(&results)
    }

    /// The committed `results/` directory.
    fn committed_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    /// The committed figure CSVs, as `(stem, text)`.
    fn committed_csvs() -> Vec<(&'static str, String)> {
        let read = |stem| std::fs::read_to_string(committed_dir().join(format!("{stem}.csv")));
        (FIGURE_FILES.iter())
            .map(|&(_, stem)| (stem, read(stem).expect("committed CSV")))
            .collect()
    }

    #[test]
    fn committed_csvs_round_trip_byte_for_byte() {
        for (stem, csv) in committed_csvs() {
            let fig = FigureData::from_csv(stem, &csv).expect("committed CSV parses");
            assert_eq!(fig.to_csv(), csv, "{stem}");
        }
    }

    /// What fails the gate on `figs`.
    fn gate_on(figs: &[(&str, FigureData)]) -> Vec<String> {
        gate_failures(&shape_checks(figs).expect("every check has its values"))
    }

    /// Sets `workload`'s `series` value in figure `stem` of `figs`.
    fn set(figs: &mut [(&str, FigureData)], stem: &str, workload: &str, series: &str, v: f64) {
        let fig = &mut figs.iter_mut().find(|(s, _)| *s == stem).unwrap().1;
        let row = fig.workloads.iter().position(|w| w == workload).unwrap();
        let column = fig.series.iter_mut().find(|(l, _)| l == series).unwrap();
        column.1[row] = v;
    }

    #[test]
    fn committed_figures_pass_the_reproduction_gate() {
        let figs = load_figures(&committed_dir()).expect("committed figures load");
        let checks = shape_checks(&figs).unwrap();
        assert_eq!(gate_on(&figs), Vec::<String>::new());
        let verdicts: Vec<(String, usize)> = tally(&checks).into_iter().collect();
        let want = [
            ("deviation 1", 4),
            ("deviation 2", 10),
            ("deviation 3", 4),
            ("deviation 4", 1),
            ("pass", 40),
        ];
        assert_eq!(verdicts, want.map(|(v, n)| (v.to_string(), n)));

        // Drift either way fails the gate, naming the check: the
        // knife-edge BwBN row-hit pass (margin +0.0002) starts failing...
        let mut drifted = figs.clone();
        let fig9 = &figs.iter().find(|(s, _)| *s == "fig9_row_hits").unwrap().1;
        let rw = fig9.at("BwBN", "CacheRW").unwrap();
        set(&mut drifted, "fig9_row_hits", "BwBN", "CacheRW", rw - 0.001);
        let failures = gate_on(&drifted);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("fig9 BwBN caching improves row hits fails"));
        // ... and a known deviation starts passing.
        let mut drifted = figs.clone();
        for series in ["CacheR", "CacheRW"] {
            set(&mut drifted, "fig6_exec_time", "DGEMM", series, 1.0);
        }
        let failures = gate_on(&drifted);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with(
            "fig6 DGEMM insensitive (<7% spread) passes, but deviation 1 expects it to fail"
        ));

        // The command: 0 on the committed figures, 1 when one is missing.
        let dir = committed_dir().display().to_string();
        assert_eq!(crate::main(["check".into(), "--dir".into(), dir]), 0);
        assert_eq!(
            crate::main(["check", "--dir", "/nonexistent"].map(String::from)),
            1
        );
        let missing = std::env::temp_dir().join(format!("miopt-check-test-{}", std::process::id()));
        std::fs::create_dir_all(&missing).unwrap();
        for (stem, csv) in committed_csvs()
            .iter()
            .filter(|(s, _)| *s != "fig9_row_hits")
        {
            std::fs::write(missing.join(format!("{stem}.csv")), csv).unwrap();
        }
        let error = load_figures(&missing).expect_err("fig9 is missing");
        assert!(error.starts_with(&format!(
            "{}: ",
            missing.join("fig9_row_hits.csv").display()
        )));
        let args = CheckArgs {
            dir: missing.clone(),
        };
        assert_eq!(run_check(&args), 1);
        std::fs::remove_dir_all(&missing).unwrap();
    }

    #[test]
    fn corrupted_csvs_are_refused_or_load_well_formed() {
        let csvs = committed_csvs();
        let figs = load_figures(&committed_dir()).unwrap();
        prop::check("corrupted_csvs_are_refused_or_load_well_formed", 256, |c| {
            let file = c.below(csvs.len() as u64) as usize;
            let mut bytes = csvs[file].1.clone().into_bytes();
            for _ in 0..c.steps(1..6) {
                let at = c.below(bytes.len() as u64 + 1) as usize;
                match c.below(4) {
                    // A truncation.
                    0 => bytes.truncate(at),
                    // A bit flip.
                    1 if at < bytes.len() => bytes[at] ^= 1 << c.below(8),
                    // A splice of a stretch of any committed CSV.
                    2 => {
                        let from = csvs[c.below(csvs.len() as u64) as usize].1.as_bytes();
                        let start = c.below(from.len() as u64) as usize;
                        let end = start + c.below((from.len() - start) as u64 + 1) as usize;
                        bytes.splice(at..at, from[start..end].iter().copied());
                    }
                    // A duplicated line.
                    _ => {
                        let start = bytes[..at]
                            .iter()
                            .rposition(|&b| b == b'\n')
                            .map_or(0, |i| i + 1);
                        let end = bytes[at..]
                            .iter()
                            .position(|&b| b == b'\n')
                            .map_or(bytes.len(), |i| at + i + 1);
                        let line = bytes[start..end].to_vec();
                        bytes.splice(start..start, line);
                    }
                }
            }
            // `load_figures` refuses bytes that are not UTF-8 as it reads.
            let Ok(csv) = String::from_utf8(bytes) else {
                return;
            };
            let Ok(fig) = FigureData::from_csv("mutant", &csv) else {
                return;
            };
            for (label, vals) in &fig.series {
                assert_eq!(vals.len(), fig.workloads.len(), "series {label}");
                assert!(vals.iter().all(|v| v.is_finite()), "series {label}");
            }
            let again = FigureData::from_csv("mutant", &fig.to_csv()).expect("its own CSV loads");
            assert_eq!(again.to_csv(), fig.to_csv());
            // The gate takes the mutant in place of the committed figure.
            let mut mutated = figs.clone();
            mutated[file].1 = fig;
            drop(shape_checks(&mutated).map(|checks| gate_failures(&checks)));
        });
    }

    #[test]
    fn fig6_normalizes_uncached_to_one() {
        let f = fig6(&tiny_sweep());
        assert_eq!(f.series[0].0, "Uncached");
        assert!((f.series[0].1[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig7_cached_below_one_for_reuse() {
        let f = fig7(&tiny_sweep());
        let cacher = &f.series[1];
        assert!(
            cacher.1[0] < 1.0,
            "FwSoft re-reads must reduce DRAM traffic"
        );
    }

    #[test]
    fn tables_and_csv_render() {
        let f = fig6(&tiny_sweep());
        let t = f.to_table();
        assert!(t.contains("FwSoft"));
        assert!(t.contains("CacheRW"));
        let c = f.to_csv();
        assert!(c.starts_with("workload,Uncached,CacheR,CacheRW"));
        assert_eq!(c.lines().count(), 2);
    }

    #[test]
    fn ladder_figures_have_five_series() {
        let (spec, results) = tiny_grid(SweepSpec::figures);
        let ladder = spec.assemble_ladders(&results);
        for f in [
            fig10(&ladder),
            fig11(&ladder),
            fig12(&ladder),
            fig13(&ladder),
        ] {
            assert_eq!(f.series.len(), 5, "{}", f.title);
            assert_eq!(f.series[4].0, "CacheRW-PCby");
        }
        // Fig 10 static best is exactly 1.0 by construction.
        let f10 = fig10(&ladder);
        assert!((f10.series[0].1[0] - 1.0).abs() < 1e-12);
    }
}
