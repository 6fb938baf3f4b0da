//! The load-bearing guarantee of `miopt-harness`: a parallel sweep is
//! byte-identical to a serial one.
//!
//! Runs the full quick-scale workload suite (17 workloads, all six
//! policy configurations) once on one worker and once on four, and
//! requires bit-equal [`Metrics`] per job plus identical figure CSV
//! rows. The small test machine keeps the 102 simulations fast; the
//! determinism argument is scale-independent because results are
//! assembled by job id, never by completion order.

use miopt::runner::SweepSpec;
use miopt::SystemConfig;
use miopt_harness::figures::{fig10, fig6};
use miopt_harness::pool::PoolOptions;
use miopt_harness::sweep::{run_sweep, SweepOptions, SweepRun};
use miopt_workloads::{suite, SuiteConfig};

fn run_with(spec: &SweepSpec, workers: usize, name: &str) -> SweepRun {
    let opts = SweepOptions {
        pool: PoolOptions {
            workers,
            ..PoolOptions::default()
        },
        cache: None,
    };
    run_sweep(spec, name, &opts)
}

fn assert_byte_identical(spec: &SweepSpec) {
    let serial = run_with(spec, 1, "det-serial");
    let parallel = run_with(spec, 4, "det-parallel");

    // Per-job: same job in the same slot, bit-equal metrics.
    assert_eq!(serial.outcomes.len(), spec.job_count());
    assert_eq!(parallel.outcomes.len(), spec.job_count());
    for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(a.job, b.job, "outcome slots must follow job ids");
        let (ra, rb) = (
            a.result.as_ref().expect("serial job ok"),
            b.result.as_ref().expect("parallel job ok"),
        );
        assert_eq!(
            ra.metrics,
            rb.metrics,
            "metrics must be bit-identical for {}",
            spec.job_label(&a.job)
        );
    }

    // Figure-level: the rendered CSV rows are identical strings.
    let ra = serial.results(spec).unwrap();
    let rb = parallel.results(spec).unwrap();
    let (sa, sb) = (spec.assemble_statics(&ra), spec.assemble_statics(&rb));
    assert_eq!(fig6(&sa).to_csv(), fig6(&sb).to_csv());
    let (la, lb) = (spec.assemble_ladders(&ra), spec.assemble_ladders(&rb));
    assert_eq!(fig10(&la).to_csv(), fig10(&lb).to_csv());

    // And the reports carry matching cache keys (identity is execution-
    // independent) with honest worker counts.
    for (a, b) in serial.report.jobs.iter().zip(&parallel.report.jobs) {
        assert_eq!(a.cache_key, b.cache_key);
    }
    assert_eq!(serial.report.provenance.workers, 1);
    assert_eq!(parallel.report.provenance.workers, 4);
}

/// A category-spanning subset, cheap enough for debug-mode `cargo test`.
#[test]
fn parallel_sweep_is_byte_identical_to_serial_subset() {
    let s = SuiteConfig::quick();
    let workloads = ["FwSoft", "BwSoft", "FwPool"]
        .iter()
        .map(|n| miopt_workloads::by_name(&s, n).expect("suite workload"))
        .collect();
    let spec = SweepSpec::figures(SystemConfig::small_test(), workloads);
    assert_byte_identical(&spec);
}

/// The full quick-scale suite: 204 simulations, affordable in tier-1
/// because the test profile builds at `opt-level = 1`.
#[test]
fn parallel_sweep_is_byte_identical_to_serial_full_quick_suite() {
    let spec = SweepSpec::figures(SystemConfig::small_test(), suite(&SuiteConfig::quick()));
    assert_byte_identical(&spec);
}
