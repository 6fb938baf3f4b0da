//! The `miopt-harness query` subcommand: filter and aggregate the
//! sweep reports under a runs directory without leaving the terminal.
//!
//! A run directory accumulates figure-sweep and serve-sweep reports
//! (plus, after a crash, journal stores). `query` answers the two
//! questions that otherwise need ad-hoc scripts: *"what do the numbers
//! say?"* — filter job rows by workload/policy/status and aggregate any
//! dotted metric key — and *"what state is this run directory in?"* —
//! `--journals` inspects every journal store read-only and reports
//! clean/torn/corrupt per store, which is the first step of diagnosing
//! an interrupted or damaged run.
//!
//! Its flags are the rows of `QueryArgs`'s flag table; a refused command
//! line prints the usage generated from them (see [`crate::flags`]).
//!
//! Figure-sweep reports contribute one row per job; serve reports
//! contribute one row per job × tenant (the tenant's workload becomes
//! the row's workload). Metric keys are the reports' own dotted names
//! (`cycles`, `l2.load_hits`, `dram.row_conflicts`, `p99`, …).

use crate::flags::{list, put, Command, Flag};
use crate::json::Json;
use miopt_store::Wal;
use std::path::PathBuf;

/// Parsed `query` subcommand options.
#[derive(Default)]
pub struct QueryArgs {
    /// Directory scanned for `*.json` reports and `*.journal` stores.
    pub runs_dir: PathBuf,
    /// Keep only the report whose `sweep` name equals this.
    pub run: Option<String>,
    /// Keep only rows whose workload name equals this.
    pub workload: Option<String>,
    /// Keep only rows whose policy label equals this.
    pub policy: Option<String>,
    /// Keep only rows whose status equals this (`ok`, or a failure
    /// text; the special value `failed` matches every non-`ok` row).
    pub status: Option<String>,
    /// Metric keys to aggregate (dotted names from the reports).
    pub metrics: Vec<String>,
    /// Aggregations to compute per metric.
    pub aggs: Vec<Agg>,
    /// Emit machine-readable JSON instead of the table.
    pub json: bool,
    /// Inspect journal stores instead of aggregating reports.
    pub journals: bool,
}

/// One aggregation over a metric's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Number of rows carrying the metric.
    Count,
    /// Sum of the values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean.
    Mean,
    /// Nearest-rank percentile (50/95/99).
    Percentile(u32),
}

impl Agg {
    fn parse(name: &str) -> Result<Agg, String> {
        let named = [Agg::Count, Agg::Sum, Agg::Min, Agg::Max, Agg::Mean];
        let mut all = named.into_iter().chain([50, 95, 99].map(Agg::Percentile));
        all.find(|agg| agg.label() == name)
            .ok_or(format!("unknown aggregation {name:?}"))
    }

    fn label(self) -> String {
        match self {
            Agg::Count => "count".to_string(),
            Agg::Sum => "sum".to_string(),
            Agg::Min => "min".to_string(),
            Agg::Max => "max".to_string(),
            Agg::Mean => "mean".to_string(),
            Agg::Percentile(p) => format!("p{p}"),
        }
    }

    /// The aggregate of `sorted` (ascending). `None` on empty input
    /// except for `Count`, which is 0.
    fn apply(self, sorted: &[f64]) -> Option<f64> {
        match self {
            Agg::Count => Some(sorted.len() as f64),
            _ if sorted.is_empty() => None,
            Agg::Sum => Some(sorted.iter().sum()),
            Agg::Min => Some(sorted[0]),
            Agg::Max => Some(sorted[sorted.len() - 1]),
            Agg::Mean => Some(sorted.iter().sum::<f64>() / sorted.len() as f64),
            Agg::Percentile(p) => {
                // Nearest-rank: the smallest value with at least p% of
                // the sample at or below it.
                let rank = (u64::from(p) * sorted.len() as u64).div_ceil(100);
                Some(sorted[(rank.max(1) as usize) - 1])
            }
        }
    }
}

impl Command for QueryArgs {
    const NAME: &'static str = "query";

    #[rustfmt::skip]
    fn flags() -> Vec<Flag<QueryArgs>> {
        let rows: &[Flag<QueryArgs>] = &[
            ("--dir <DIR>", "results/runs", "directory of reports and journals", |a, v| put(&mut a.runs_dir, v.into())),
            ("--run <NAME>", "", "only the report (or journals) of run NAME", |a, v| put(&mut a.run, Some(v.into()))),
            ("--workload <W>", "", "only rows of workload W", |a, v| put(&mut a.workload, Some(v.into()))),
            ("--policy <P>", "", "only rows of policy P", |a, v| put(&mut a.policy, Some(v.into()))),
            ("--status <S>", "", "only rows of status S (failed: every row not ok)", |a, v| put(&mut a.status, Some(v.into()))),
            ("--metric <K,...>", "cycles", "dotted metric keys to aggregate", |a, v| put(&mut a.metrics, v.split(',').map(str::to_string).collect())),
            ("--agg <A,...>", "count,min,mean,p99", "count | sum | min | max | mean | p50 | p95 | p99", |a, v| put(&mut a.aggs, list(v, Agg::parse)?)),
            ("--json", "", "print JSON instead of a table", |a, _| put(&mut a.json, true)),
            ("--journals", "", "inspect journal stores instead of reports", |a, _| put(&mut a.journals, true)),
        ];
        rows.to_vec()
    }
}

/// One flattened job (or job × tenant) row from a report.
struct Row {
    run: String,
    workload: String,
    policy: String,
    status: String,
    values: Vec<(String, f64)>,
}

impl Row {
    fn value(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Reads every number off a JSON object as `(key, f64)` pairs.
fn numeric_fields(doc: &Json, out: &mut Vec<(String, f64)>) {
    if let Json::Obj(pairs) = doc {
        for (k, v) in pairs {
            if let Some(n) = v.as_f64() {
                out.push((k.clone(), n));
            }
        }
    }
}

/// Flattens one report document into rows. Returns `None` when the
/// document is not a sweep report (no `sweep` + `jobs` keys), so stray
/// JSON files in the run directory are skipped, not errors.
fn report_rows(doc: &Json) -> Option<Vec<Row>> {
    let run = doc.get("sweep")?.as_str()?.to_string();
    let jobs = doc.get("jobs")?.as_arr()?;
    let serve = doc.get("kind").and_then(Json::as_str) == Some("serve");
    let text = |doc: &Json, key| {
        doc.get(key)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut rows = Vec::new();
    for job in jobs {
        let mut values = Vec::new();
        numeric_fields(job, &mut values);
        let row = |workload, values| Row {
            run: run.clone(),
            workload,
            policy: text(job, "policy"),
            status: text(job, "status"),
            values,
        };
        if serve {
            for tenant in job.get("tenants").and_then(Json::as_arr).unwrap_or(&[]) {
                let mut values = values.clone();
                numeric_fields(tenant, &mut values);
                rows.push(row(text(tenant, "workload"), values));
            }
        } else {
            if let Some(metrics) = job.get("metrics") {
                numeric_fields(metrics, &mut values);
            }
            rows.push(row(text(job, "workload"), values));
        }
    }
    Some(rows)
}

fn keep(args: &QueryArgs, row: &Row) -> bool {
    let status = match args.status.as_deref() {
        Some("failed") => row.status != "ok",
        Some(s) => row.status == s,
        None => true,
    };
    status
        && args.workload.as_ref().is_none_or(|w| &row.workload == w)
        && args.policy.as_ref().is_none_or(|p| &row.policy == p)
}

/// Loads and flattens every report under `runs_dir`, honouring the
/// `--run` filter. Returns `(reports seen, rows)`.
fn collect_rows(args: &QueryArgs) -> Result<(usize, Vec<Row>), String> {
    let entries = std::fs::read_dir(&args.runs_dir)
        .map_err(|e| format!("cannot read {}: {e}", args.runs_dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut reports = 0;
    let mut rows = Vec::new();
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(doc) = Json::parse(&text) else {
            continue;
        };
        let Some(report_rows) = report_rows(&doc) else {
            continue;
        };
        let first_run = report_rows.first().map(|r| &r.run);
        if args.run.is_some() && first_run != args.run.as_ref() {
            continue;
        }
        reports += 1;
        rows.extend(report_rows.into_iter().filter(|r| keep(args, r)));
    }
    Ok((reports, rows))
}

/// Aggregates `rows` into one JSON object per metric key.
fn aggregate(args: &QueryArgs, rows: &[Row]) -> Json {
    let metrics = args
        .metrics
        .iter()
        .map(|key| {
            let mut values: Vec<f64> = rows.iter().filter_map(|r| r.value(key)).collect();
            values.sort_by(f64::total_cmp);
            let stats = args
                .aggs
                .iter()
                .filter_map(|agg| agg.apply(&values).map(|v| (agg.label(), Json::F64(v))))
                .collect();
            (key.clone(), Json::Obj(stats))
        })
        .collect();
    Json::Obj(metrics)
}

/// Runs the report-aggregation mode. Returns the process exit code.
fn run_reports(args: &QueryArgs) -> i32 {
    let (reports, rows) = match collect_rows(args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let summary = aggregate(args, &rows);
    if args.json {
        let doc = Json::obj([
            ("reports", Json::U64(reports as u64)),
            ("rows", Json::U64(rows.len() as u64)),
            ("metrics", summary),
        ]);
        println!("{}", doc.to_pretty());
        return 0;
    }
    println!("{} row(s) from {reports} report(s)", rows.len());
    let width = args.metrics.iter().map(String::len).fold(6, usize::max);
    print!("{:width$}", "metric");
    for agg in &args.aggs {
        print!(" {:>14}", agg.label());
    }
    println!();
    if let Json::Obj(metrics) = &summary {
        for (key, stats) in metrics {
            print!("{key:width$}");
            for agg in &args.aggs {
                match stats.get(&agg.label()).and_then(Json::as_f64) {
                    Some(v) => print!(" {v:>14.2}"),
                    None => print!(" {:>14}", "-"),
                }
            }
            println!();
        }
    }
    0
}

/// Runs the `--journals` diagnosis mode: a read-only
/// [`Wal::inspect`] over every journal store under the run directory.
/// Returns the process exit code (1 when any store is unhealthy, so the
/// mode doubles as a scriptable health check).
fn run_journals(args: &QueryArgs) -> i32 {
    let entries = match std::fs::read_dir(&args.runs_dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.runs_dir.display());
            return 1;
        }
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    let mut unhealthy = 0;
    let mut seen = 0;
    let mut docs = Vec::new();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        if args
            .run
            .as_ref()
            .is_some_and(|run| !name.starts_with(run.as_str()))
        {
            continue;
        }
        if path.is_dir() && name.ends_with(".journal") {
            seen += 1;
            match Wal::inspect(&path) {
                Ok(info) => {
                    if !info.healthy {
                        unhealthy += 1;
                    }
                    if args.json {
                        docs.push(Json::obj([
                            ("journal", Json::str(name)),
                            ("records", Json::U64(info.records.len() as u64)),
                            ("last_seq", Json::U64(info.last_seq)),
                            ("state", Json::str(&info.state)),
                            ("healthy", Json::Bool(info.healthy)),
                        ]));
                    } else {
                        println!(
                            "{name}: {} record(s), last seq {}, state: {}",
                            info.records.len(),
                            info.last_seq,
                            info.state
                        );
                    }
                }
                Err(e) => {
                    unhealthy += 1;
                    if args.json {
                        docs.push(Json::obj([
                            ("journal", Json::str(name)),
                            ("state", Json::str(format!("unreadable: {e}"))),
                            ("healthy", Json::Bool(false)),
                        ]));
                    } else {
                        println!("{name}: unreadable: {e}");
                    }
                }
            }
        }
    }
    if args.json {
        println!("{}", Json::Arr(docs).to_pretty());
    } else if seen == 0 {
        println!(
            "no journals under {} (all runs completed cleanly)",
            args.runs_dir.display()
        );
    }
    i32::from(unhealthy > 0)
}

/// Runs the `query` subcommand. Returns the process exit code.
#[must_use]
pub fn run_query(args: &QueryArgs) -> i32 {
    if args.journals {
        run_journals(args)
    } else {
        run_reports(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "miopt-query-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn args_for(dir: &Path) -> QueryArgs {
        let mut args = crate::flags::parse::<QueryArgs>(&[]).unwrap();
        args.runs_dir = dir.to_path_buf();
        args
    }

    fn write_figure_report(dir: &Path) {
        let report = r#"{
            "sweep": "fig-test", "schema_version": 3,
            "jobs": [
                {"id": 0, "workload": "FwSoft", "policy": "CacheR",
                 "status": "ok", "elapsed_ms": 5,
                 "metrics": {"cycles": 100, "l2.load_hits": 40}},
                {"id": 1, "workload": "FwSoft", "policy": "CacheRW",
                 "status": "ok", "elapsed_ms": 7,
                 "metrics": {"cycles": 300, "l2.load_hits": 80}},
                {"id": 2, "workload": "FwPool", "policy": "CacheR",
                 "status": "timed out", "elapsed_ms": 9}
            ]
        }"#;
        std::fs::write(dir.join("fig-test.json"), report).unwrap();
        // Non-report JSON files are skipped, not errors.
        std::fs::write(dir.join("notes.json"), r#"{"hello": 1}"#).unwrap();
    }

    fn write_serve_report(dir: &Path) {
        let report = r#"{
            "sweep": "serve-test", "kind": "serve", "schema_version": 3,
            "jobs": [
                {"id": 0, "policy": "CacheR", "load": 30000, "status": "ok",
                 "cycles": 900,
                 "tenants": [
                    {"name": "t0", "workload": "FwSoft", "p99": 50, "completed": 3},
                    {"name": "t1", "workload": "FwPool", "p99": 70, "completed": 3}
                 ]}
            ]
        }"#;
        std::fs::write(dir.join("serve-test.json"), report).unwrap();
    }

    #[test]
    fn aggregates_metrics_across_reports_with_filters() {
        let dir = temp_dir("agg");
        write_figure_report(&dir);
        write_serve_report(&dir);
        let mut args = args_for(&dir);
        args.metrics = vec!["cycles".to_string()];
        args.aggs = vec![Agg::Count, Agg::Min, Agg::Max, Agg::Mean];
        let (reports, rows) = collect_rows(&args).unwrap();
        assert_eq!(reports, 2);
        // 3 figure jobs + 1 serve job x 2 tenants.
        assert_eq!(rows.len(), 5);
        let summary = aggregate(&args, &rows);
        let cycles = summary.get("cycles").unwrap();
        // The timed-out job has no metrics; serve rows carry the job's
        // cycles: values are 100, 300, 900, 900.
        assert_eq!(cycles.get("count").unwrap().as_f64(), Some(4.0));
        assert_eq!(cycles.get("min").unwrap().as_f64(), Some(100.0));
        assert_eq!(cycles.get("max").unwrap().as_f64(), Some(900.0));
        assert_eq!(cycles.get("mean").unwrap().as_f64(), Some(550.0));

        args.workload = Some("FwSoft".to_string());
        args.metrics = vec!["l2.load_hits".to_string(), "p99".to_string()];
        let (_, rows) = collect_rows(&args).unwrap();
        assert_eq!(rows.len(), 3, "two figure rows and one tenant row");
        let summary = aggregate(&args, &rows);
        let hits = summary.get("l2.load_hits").unwrap();
        assert_eq!(hits.get("count").unwrap().as_f64(), Some(2.0));
        let p99 = summary.get("p99").unwrap();
        assert_eq!(p99.get("count").unwrap().as_f64(), Some(1.0));

        args.workload = None;
        args.status = Some("failed".to_string());
        let (_, rows) = collect_rows(&args).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].workload, "FwPool");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_nested_past_the_parser_bound_is_skipped() {
        let dir = temp_dir("deep");
        write_figure_report(&dir);
        // Unbounded recursion would overflow the stack on this file.
        std::fs::write(dir.join("deep.json"), "[".repeat(1_000_000)).unwrap();
        let mut args = args_for(&dir);
        args.metrics = vec!["cycles".to_string()];
        let (reports, rows) = collect_rows(&args).unwrap();
        assert_eq!(reports, 1, "the report beside the deep file still reads");
        assert_eq!(rows.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Agg::Percentile(50).apply(&values), Some(50.0));
        assert_eq!(Agg::Percentile(99).apply(&values), Some(99.0));
        assert_eq!(Agg::Percentile(99).apply(&[7.0]), Some(7.0));
        assert_eq!(Agg::Percentile(99).apply(&[]), None);
        assert_eq!(Agg::Count.apply(&[]), Some(0.0));
    }

    #[test]
    fn journals_mode_reports_store_health() {
        let dir = temp_dir("journals");
        let store = dir.join("crashed.journal");
        let opened = miopt_store::Wal::open(&store, miopt_store::StoreOptions::default()).unwrap();
        opened.wal.append(b"{\"header\":true}").unwrap();
        opened.wal.append(b"{\"id\":0}").unwrap();
        drop(opened);
        let mut args = args_for(&dir);
        args.journals = true;
        assert_eq!(run_query(&args), 0, "clean stores exit 0");

        // Tear the active segment: still healthy=false? No — torn tails
        // are repairable, inspect flags them but the store stays
        // usable; corruption is what trips the exit code.
        let seg = std::fs::read_dir(&store)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() - 5;
        bytes[mid] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();
        assert_eq!(run_query(&args), 1, "a corrupt store exits 1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_rejects_unknown_flags() {
        let refusal = |list: &[&str]| {
            let argv: Vec<String> = list.iter().map(|s| (*s).to_string()).collect();
            crate::flags::parse::<QueryArgs>(&argv)
                .err()
                .expect("refused")
                .message
        };
        assert_eq!(
            refusal(&["--frobnicate"]),
            "unexpected argument \"--frobnicate\""
        );
        assert!(
            refusal(&["--agg", "mean,median"]).starts_with("--agg: unknown aggregation \"median\"")
        );
    }
}
