//! Golden-results regression tests: Figure 6 and Figure 10 series
//! compared against checked-in CSVs, tolerance-free. The full quick suite
//! also pins the DRAM figures (7, 9, 11 and 13: DRAM accesses and row-hit
//! ratios) from the same results.
//!
//! The simulator is deterministic and the results layer round-trips
//! bit-exactly, so the figures must reproduce **character for
//! character** — any diff here is a behaviour change that needs either a
//! fix or a deliberate golden update. To regenerate after an intentional
//! change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p miopt-harness --test golden
//! ```
//!
//! and commit the rewritten files under `tests/golden/`.

use miopt::runner::SweepSpec;
use miopt::SystemConfig;
use miopt_harness::figures::{fig10, fig11, fig13, fig6, fig7, fig9};
use miopt_harness::sweep::{run_sweep, SweepOptions};
use miopt_workloads::{by_name, suite, SuiteConfig, Workload};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` with the checked-in golden, or rewrites the golden
/// when `GOLDEN_REGEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with GOLDEN_REGEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} diverged from the checked-in golden (tolerance-free comparison); \
         if the change is intentional, regenerate with GOLDEN_REGEN=1"
    );
}

/// Runs the figures grid for `workloads` and checks fig6/fig10 CSVs, plus
/// the DRAM figures 7, 9, 11 and 13 when `dram` is set.
fn check_fig6_fig10(workloads: Vec<Workload>, tag: &str, dram: bool) {
    let spec = SweepSpec::figures(SystemConfig::small_test(), workloads);
    let run = run_sweep(&spec, &format!("golden-{tag}"), &SweepOptions::default());
    let results = run.results(&spec).expect("golden sweep jobs succeed");
    let statics = spec.assemble_statics(&results);
    let ladders = spec.assemble_ladders(&results);
    check_golden(&format!("fig6_{tag}.csv"), &fig6(&statics).to_csv());
    check_golden(&format!("fig10_{tag}.csv"), &fig10(&ladders).to_csv());
    if dram {
        check_golden(&format!("fig7_{tag}.csv"), &fig7(&statics).to_csv());
        check_golden(&format!("fig9_{tag}.csv"), &fig9(&statics).to_csv());
        check_golden(&format!("fig11_{tag}.csv"), &fig11(&ladders).to_csv());
        check_golden(&format!("fig13_{tag}.csv"), &fig13(&ladders).to_csv());
    }
}

/// A category-spanning subset, cheap enough for debug-mode `cargo test`.
#[test]
fn fig6_and_fig10_match_goldens_subset() {
    let s = SuiteConfig::quick();
    let workloads = ["FwSoft", "BwSoft", "FwPool"]
        .iter()
        .map(|n| by_name(&s, n).expect("suite workload"))
        .collect();
    check_fig6_fig10(workloads, "subset", false);
}

/// The full quick-scale suite.
#[test]
fn fig6_and_fig10_match_goldens_full_quick_suite() {
    check_fig6_fig10(suite(&SuiteConfig::quick()), "quick", true);
}
