//! Figure extraction and table formatting.
//!
//! Turns raw sweep results into the normalized series each paper figure
//! plots, and renders them as aligned text tables or CSV, for the
//! `miopt-harness` CLI's parallel sweeps.

use miopt::runner::{LadderResult, RunResult};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_sweep, SweepOptions};
    use miopt::runner::SweepSpec;
    use miopt::SystemConfig;
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
