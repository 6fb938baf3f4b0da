//! `--compare A [B]`: reads result sets and applies the bounds of
//! `BENCHMARK.json`.
//!
//! A result set is a run file or a directory searched for run files
//! (the `<workload>.json` / `<workload>.trace.json` every run writes),
//! any number per workload. With one set, prints each end-to-end
//! metric's run-to-run spread the way the acceptance rule computes it.
//! With two, A is the parent and B the change.

use crate::estimator::{iqr_share, median, quartiles};
use crate::metric::{Better, EndToEndDef, END_TO_END, PER_LAYER, WORKLOADS};
use miopt_harness::Json;
use std::collections::BTreeMap;
use std::path::Path;

pub const RUN_SCHEMA: &str = "miopt-benchmark-run-v1";

#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub metrics: BTreeMap<String, f64>,
}

impl RunFile {
    pub fn from_json(doc: &Json) -> Option<RunFile> {
        if doc.get("schema")?.as_str()? != RUN_SCHEMA {
            return None;
        }
        let Json::Obj(pairs) = doc.get("metrics")? else {
            return None;
        };
        Some(RunFile {
            workload: doc.get("workload")?.as_str()?.to_string(),
            seed: doc.get("seed")?.as_u64()?,
            trace: doc.get("trace")?.as_bool()?,
            metrics: pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
        })
    }
}

/// Every run file at or below `path`, in path order.
pub fn load_set(path: &Path) -> Result<Vec<RunFile>, String> {
    let mut runs = Vec::new();
    let mut stack = vec![path.to_path_buf()];
    while let Some(p) = stack.pop() {
        if p.is_dir() {
            let entries = std::fs::read_dir(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            let mut children: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
            children.sort();
            stack.extend(children.into_iter().rev());
        } else if p.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            if let Some(run) = Json::parse(&text)
                .ok()
                .as_ref()
                .and_then(RunFile::from_json)
            {
                runs.push(run);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("no run files under {}", path.display()));
    }
    Ok(runs)
}

fn values(set: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| !r.trace && r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Within,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The section-8 rule of the metrics guide for one metric on one
/// workload: parent runs `a`, change runs `b`.
pub fn verdict(def: &EndToEndDef, a: &[f64], b: &[f64]) -> Verdict {
    // Orient so that smaller is better.
    let sign = if def.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let a: Vec<f64> = a.iter().map(|v| v * sign).collect();
    let b: Vec<f64> = b.iter().map(|v| v * sign).collect();
    let (ma, mb) = (median(&a), median(&b));
    let worse = (mb - ma) / ma.abs();
    let every_run_better =
        b.iter().copied().fold(f64::MIN, f64::max) < a.iter().copied().fold(f64::MAX, f64::min);
    let spread = iqr_share(&a).abs().max(iqr_share(&b).abs());
    // A gain must exceed the parent's own run-to-run spread; with too few
    // runs to know that spread, it must exceed the bound.
    let yardstick = if a.len() >= 2 && b.len() >= 2 {
        iqr_share(&a).abs()
    } else {
        def.bound
    };
    if every_run_better && -worse > yardstick {
        Verdict::Improved
    } else if spread > def.bound {
        Verdict::Unresolved
    } else if worse > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// Spread table of one set. Returns whether every spread is in bound.
fn spreads(set: &[RunFile]) -> bool {
    let mut ok = true;
    println!(
        "{:13} {:18} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "n", "median", "q1", "q3", "iqr/med", "bound"
    );
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let v = values(set, w.name, def.name);
            if v.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&v).unwrap_or((v[0], v[0]));
            let share = iqr_share(&v);
            // The acceptance rule does not bound the spread of setup_s.
            let note = if share <= def.bound / 3.0 {
                "steady"
            } else if share <= def.bound || def.name == "setup_s" {
                "in bound"
            } else {
                ok = false;
                "TOO WIDE"
            };
            println!(
                "{:13} {:18} {:>3} {:>12.6} {:>12.6} {:>12.6} {:>7.2}% {:>5.0}% {note} [{}]",
                w.name,
                def.name,
                v.len(),
                median(&v),
                q1,
                q3,
                share * 100.0,
                def.bound * 100.0,
                def.unit
            );
        }
    }
    ok
}

/// Traced runs of one workload and seed in both sets: how many such
/// pairs there are, and every exact layer metric that differs between
/// them, as `workload seed metric: a != b` lines.
pub fn exact_differences(a: &[RunFile], b: &[RunFile]) -> (usize, Vec<String>) {
    let mut pairs = 0;
    let mut out = Vec::new();
    for ra in a.iter().filter(|r| r.trace) {
        for rb in b
            .iter()
            .filter(|r| r.trace && r.workload == ra.workload && r.seed == ra.seed)
        {
            pairs += 1;
            for def in PER_LAYER.iter().filter(|d| d.exact) {
                let (va, vb) = (ra.metrics.get(def.name), rb.metrics.get(def.name));
                if va != vb {
                    out.push(format!(
                        "{} seed {} {}: {va:?} != {vb:?}",
                        ra.workload, ra.seed, def.name
                    ));
                }
            }
        }
    }
    (pairs, out)
}

fn compare(a: &[RunFile], b: &[RunFile]) -> bool {
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cells = Vec::new();
        for def in &END_TO_END {
            let (va, vb) = (values(a, w.name, def.name), values(b, w.name, def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(def, &va, &vb);
            ok &= matches!(v, Verdict::Improved | Verdict::Within);
            let (ma, mb) = (median(&va), median(&vb));
            cells.push(format!(
                "{} {}: {:+.2}% of {:.6} {} (n={}/{}, bound {:.0}%)",
                def.name,
                v.as_str(),
                (mb - ma) / ma * 100.0,
                ma,
                def.unit,
                va.len(),
                vb.len(),
                def.bound * 100.0
            ));
        }
        if !cells.is_empty() {
            println!("{:13} {}", w.name, cells.join(" | "));
        }
    }
    let (pairs, diffs) = exact_differences(a, b);
    println!(
        "exact layer metrics: {pairs} traced run pair(s) compared, {} difference(s)",
        diffs.len()
    );
    for d in &diffs {
        println!("  {d}");
    }
    ok && diffs.is_empty()
}

/// Entry point; returns the process exit code.
pub fn main(paths: &[String]) -> i32 {
    let sets: Result<Vec<_>, _> = paths.iter().map(|p| load_set(Path::new(p))).collect();
    match sets.as_deref() {
        Ok([a]) => i32::from(!spreads(a)),
        Ok([a, b]) => i32::from(!compare(a, b)),
        Ok(_) => {
            eprintln!("usage: --compare <set-a> [<set-b>]");
            2
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: &EndToEndDef = &END_TO_END[0];
    const RATE: &EndToEndDef = &END_TO_END[1];

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(HOST, &a, &[10.3, 10.4, 10.2, 10.3]),
            Verdict::Within
        );
        assert_eq!(
            verdict(HOST, &a, &[12.5, 12.6, 12.4, 12.5]),
            Verdict::Regressed
        );
        assert_eq!(verdict(HOST, &a, &[8.0, 8.1, 7.9, 8.0]), Verdict::Improved);
        // Spread wider than the 20 % bound and the runs overlap.
        assert_eq!(
            verdict(HOST, &[6.0, 10.0, 14.0, 18.0], &[7.0, 11.0, 15.0, 19.0]),
            Verdict::Unresolved
        );
        // Higher is better: a drop is the regression.
        assert_eq!(verdict(RATE, &[100.0], &[70.0]), Verdict::Regressed);
        assert_eq!(verdict(RATE, &[100.0], &[130.0]), Verdict::Improved);
        assert_eq!(verdict(RATE, &[100.0], &[95.0]), Verdict::Within);
    }

    fn run(workload: &str, trace: bool, metrics: &[(&str, f64)]) -> RunFile {
        RunFile {
            workload: workload.to_string(),
            seed: 1,
            trace,
            metrics: metrics
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
        }
    }

    #[test]
    fn exact_metrics_are_compared_for_equality_only_when_exact() {
        let a = [run(
            "rnn_latency",
            true,
            &[("core.events", 5.0), ("core.run_ms", 1.0)],
        )];
        let same = [run(
            "rnn_latency",
            true,
            &[("core.events", 5.0), ("core.run_ms", 2.0)],
        )];
        let moved = [run(
            "rnn_latency",
            true,
            &[("core.events", 6.0), ("core.run_ms", 1.0)],
        )];
        assert_eq!(exact_differences(&a, &same), (1, Vec::new()));
        let (_, d) = exact_differences(&a, &moved);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("core.events"), "{d:?}");
    }

    #[test]
    fn run_files_round_trip_and_foreign_json_is_skipped() {
        let doc = Json::obj([
            ("schema", Json::str(RUN_SCHEMA)),
            ("workload", Json::str("serve_tail")),
            ("seed", Json::U64(7)),
            ("trace", Json::Bool(false)),
            (
                "metrics",
                Json::obj([(
                    "host_s",
                    Json::obj([("value", Json::F64(6.5)), ("unit", Json::str("s"))]),
                )]),
            ),
        ]);
        let run = RunFile::from_json(&Json::parse(&doc.to_pretty()).unwrap()).unwrap();
        assert_eq!(run.seed, 7);
        assert_eq!(run.metrics["host_s"], 6.5);
        assert_eq!(
            RunFile::from_json(&Json::obj([("schema", Json::str("other"))])),
            None
        );
    }
}
