//! Cross-crate integration tests over the quick suite: the figure
//! goldens, serial ≡ parallel byte-identity, and the invariants that hold
//! regardless of calibration.
//!
//! Every test that reads a simulation reads it from one shared serial
//! (`workers: 1`) sweep of the Figs. 6–13 grid — the 17 quick-scale
//! workloads under the six policy configurations on the small test
//! machine, 102 jobs — so tier-1 simulates each job of that grid once,
//! plus once more in the 4-worker sweep the byte-identity test compares
//! it with. The harness crate owns this binary because the sweep runs
//! through its pool.
//!
//! The simulator is deterministic and the results layer round-trips
//! bit-exactly, so the golden figures must reproduce **character for
//! character**; any diff is a behaviour change that needs either a fix
//! or a deliberate golden update. To regenerate after an intentional
//! change, run
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p miopt-harness --test end_to_end
//! ```
//!
//! which rewrites the six `_quick` CSVs under
//! `crates/harness/tests/golden/` and then fails on purpose; rerun
//! without `GOLDEN_REGEN` and commit the files.

#[path = "../crates/harness/tests/common/mod.rs"]
mod common;

use miopt::runner::{run_one_with, RunOptions, RunResult, SimError, SweepSpec};
use miopt::{CachePolicy, OptimizationSet, PolicyConfig, SystemConfig};
use miopt_harness::figures::{fig10, fig11, fig13, fig6, fig7, fig9};
use miopt_harness::pool::PoolOptions;
use miopt_harness::sweep::{run_sweep, SweepOptions, SweepRun};
use miopt_workloads::{by_name, suite, SuiteConfig};
use std::sync::OnceLock;

/// The quick suite's full figures grid on the small test machine.
fn spec() -> &'static SweepSpec {
    static SPEC: OnceLock<SweepSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        SweepSpec::figures(SystemConfig::small_test(), suite(&SuiteConfig::quick()))
    })
}

fn sweep(workers: usize, name: &str) -> SweepRun {
    let opts = SweepOptions {
        pool: PoolOptions {
            workers,
            ..PoolOptions::default()
        },
        cache: None,
    };
    run_sweep(spec(), name, &opts)
}

/// The grid swept twice: serially, which every test here reads, and
/// on four workers, which only the byte-identity test reads.
struct Sweeps {
    serial: SweepRun,
    parallel: SweepRun,
}

/// Both sweeps of [`spec`], run side by side on first use. libtest
/// starts tests in name order, so a 4-worker sweep left to its own test
/// would start only once the serial sweep had finished.
fn sweeps() -> &'static Sweeps {
    static SWEEPS: OnceLock<Sweeps> = OnceLock::new();
    SWEEPS.get_or_init(|| {
        std::thread::scope(|s| {
            let parallel = s.spawn(|| sweep(4, "quick-parallel"));
            let serial = sweep(1, "quick-serial");
            Sweeps {
                serial,
                parallel: parallel.join().expect("the 4-worker sweep returns"),
            }
        })
    })
}

/// The serial sweep's result for `workload` under `policy`.
fn run(workload: &str, policy: PolicyConfig) -> &'static RunResult {
    let outcome = sweeps()
        .serial
        .outcomes
        .iter()
        .find(|o| spec().workloads[o.job.workload].name == workload && o.job.policy == policy)
        .unwrap_or_else(|| panic!("{workload}/{policy} is not a job of the quick grid"));
    outcome
        .result
        .as_ref()
        .unwrap_or_else(|e| panic!("{workload}/{policy}: {e}"))
}

fn workload_names() -> impl Iterator<Item = &'static str> {
    spec().workloads.iter().map(|w| w.name.as_str())
}

fn ladder(opts: OptimizationSet) -> PolicyConfig {
    PolicyConfig::new(CachePolicy::CacheRW, opts).expect("CacheRW admits the ladder sets")
}

/// The Fig. 6, 7, 9, 10, 11 and 13 series of the quick suite, compared
/// against their checked-in CSVs.
#[test]
fn fig6_and_fig10_match_goldens_full_quick_suite() {
    let results = sweeps()
        .serial
        .results(spec())
        .expect("golden sweep jobs succeed");
    let statics = spec().assemble_statics(&results);
    let ladders = spec().assemble_ladders(&results);
    common::check_goldens(&[
        ("fig6_quick.csv", fig6(&statics).to_csv()),
        ("fig10_quick.csv", fig10(&ladders).to_csv()),
        ("fig7_quick.csv", fig7(&statics).to_csv()),
        ("fig9_quick.csv", fig9(&statics).to_csv()),
        ("fig11_quick.csv", fig11(&ladders).to_csv()),
        ("fig13_quick.csv", fig13(&ladders).to_csv()),
    ]);
}

/// The load-bearing guarantee of `miopt-harness`: a parallel sweep is
/// byte-identical to a serial one. Requires bit-equal metrics per job
/// plus identical figure CSV rows; the argument is scale-independent
/// because results are assembled by job id, never by completion order.
#[test]
fn parallel_sweep_is_byte_identical_to_serial_full_quick_suite() {
    let Sweeps { serial, parallel } = sweeps();
    let spec = spec();

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

#[test]
fn every_workload_completes_under_every_static_policy() {
    for name in workload_names() {
        for p in CachePolicy::ALL {
            let r = run(name, PolicyConfig::of(p));
            assert!(r.metrics.cycles > 0, "{name}/{p}");
            assert!(
                r.metrics.gpu.retired_wavefronts > 0,
                "{name}/{p}: no wavefronts retired"
            );
        }
    }
}

#[test]
fn exhausted_cycle_budgets_are_errors_not_panics() {
    // The public entry points must never panic on a timeout: a 10-cycle
    // budget cannot finish any workload, and the failure surfaces as a
    // typed `SimError` carrying the run's identity.
    let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
    let opts = RunOptions {
        max_cycles: 10,
        ..RunOptions::default()
    };
    let err = run_one_with(
        &SystemConfig::small_test(),
        &w,
        PolicyConfig::of(CachePolicy::CacheR),
        &opts,
    )
    .expect_err("a 10-cycle budget must be exhausted");
    match &err {
        SimError::Halted { diagnostic, .. } => assert_eq!(diagnostic.budget, 10),
        other => panic!("expected a timeout, got {other}"),
    }
    assert!(err.to_string().contains("FwSoft/CacheR"), "{err}");
}

#[test]
fn uncached_never_counts_cache_stalls() {
    for name in workload_names() {
        let r = run(name, PolicyConfig::of(CachePolicy::Uncached));
        assert_eq!(r.metrics.cache_stalls(), 0, "{name}");
    }
}

#[test]
fn gpu_request_counts_are_policy_independent() {
    // The CU issues the same coalesced request stream whatever the caches
    // do with it.
    for name in workload_names() {
        let counts: Vec<u64> = spec()
            .policies
            .iter()
            .map(|&p| run(name, p).metrics.gpu.memory_requests())
            .collect();
        assert!(counts.iter().all(|&c| c == counts[0]), "{name}: {counts:?}");
    }
}

#[test]
fn dram_accesses_never_exceed_gpu_requests_plus_writebacks() {
    for name in workload_names() {
        for &p in &spec().policies {
            let m = &run(name, p).metrics;
            let upper = m.gpu.memory_requests()
                + m.l2.writebacks.get()
                + m.l2.rinse_writebacks.get()
                + m.l2.flush_writebacks.get();
            assert!(
                m.dram_accesses() <= upper,
                "{name}/{p}: dram {} > upper bound {upper}",
                m.dram_accesses()
            );
        }
    }
}

#[test]
fn reuse_workloads_cut_dram_traffic_with_caching() {
    for name in ["FwSoft", "BwBN", "FwFc"] {
        let unc = run(name, PolicyConfig::of(CachePolicy::Uncached));
        let r = run(name, PolicyConfig::of(CachePolicy::CacheR));
        assert!(
            (r.metrics.dram_accesses() as f64) < 0.9 * unc.metrics.dram_accesses() as f64,
            "{name}: CacheR {} vs Uncached {}",
            r.metrics.dram_accesses(),
            unc.metrics.dram_accesses()
        );
    }
}

#[test]
fn optimized_configs_complete_and_bound_stalls() {
    for name in workload_names() {
        let pcby = run(name, ladder(OptimizationSet::ab_cr_pcby()));
        assert!(pcby.metrics.cycles > 0, "{name}");
    }
    // Allocation bypass exists to remove set-busy stalls. On the small
    // test machine no set ever fills with pending lines (set-busy is 0
    // for every quick workload), so the claim runs on a copy whose L1
    // has 2 ways per set and still 8 MSHRs, where CacheRW does block.
    let mut cfg = SystemConfig::small_test();
    cfg.l1.ways = 2;
    let suite = SuiteConfig::quick();
    for name in ["FwBN", "BwSoft", "SGEMM", "BwPool"] {
        let w = by_name(&suite, name).unwrap();
        let set_busy = |policy| {
            let r = run_one_with(&cfg, &w, policy, &RunOptions::default()).expect("it finishes");
            r.metrics.l1.stall_set_busy.get() + r.metrics.l2.stall_set_busy.get()
        };
        let plain = set_busy(PolicyConfig::of(CachePolicy::CacheRW));
        let ab = set_busy(ladder(OptimizationSet::ab()));
        assert!(plain > 0, "{name}: CacheRW must block on set busy here");
        assert!(
            ab < plain,
            "{name}: AB must reduce allocation blocking ({ab} vs CacheRW {plain})"
        );
    }
}

#[test]
fn rinsing_never_loses_dirty_data() {
    // Rinsing is *eager* writeback: it may add writes (a rinsed line that
    // is stored again is written back twice) but can never lose dirty
    // data, so DRAM writes are at least those of plain CacheRW-AB and the
    // rinse writebacks are accounted.
    for name in workload_names() {
        let ab = run(name, ladder(OptimizationSet::ab()));
        let cr = run(name, ladder(OptimizationSet::ab_cr()));
        assert!(
            cr.metrics.dram.writes.get() >= ab.metrics.dram.writes.get(),
            "{name}: eager writeback cannot reduce total writes: cr {} vs ab {}",
            cr.metrics.dram.writes.get(),
            ab.metrics.dram.writes.get()
        );
    }
    let cr = run("BwPool", ladder(OptimizationSet::ab_cr()));
    assert!(cr.metrics.l2.rinse_writebacks.get() > 0, "rinsing engaged");
}
