//! Telemetry export guarantees: worker-count byte-identity, golden
//! regression of the JSONL/Chrome-trace serializations, and the
//! telemetry/cache interaction.
//!
//! Golden files regenerate like the figure goldens:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p miopt-harness --test telemetry
//! ```

use miopt::runner::{run_one_with, RunOptions, SweepSpec};
use miopt::{CachePolicy, PolicyConfig, SystemConfig};
use miopt_harness::cache::ResultCache;
use miopt_harness::pool::PoolOptions;
use miopt_harness::sweep::{run_sweep, SweepOptions, SweepRun};
use miopt_harness::telemetry::{to_chrome_trace, to_jsonl};
use miopt_workloads::{by_name, SuiteConfig};
use std::path::PathBuf;

/// Interval used throughout: small enough to give the tiny FwSoft run
/// dozens of epochs, large enough to keep the goldens reviewable.
const INTERVAL: u64 = 20_000;

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
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

fn telemetry_spec() -> SweepSpec {
    let mut spec = SweepSpec::statics(
        SystemConfig::small_test(),
        vec![by_name(&SuiteConfig::quick(), "FwSoft").unwrap()],
    );
    spec.run_opts.telemetry_interval = Some(INTERVAL);
    spec
}

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

/// The exported strings — not just the in-memory series — must be
/// byte-identical at any worker count.
#[test]
fn telemetry_exports_are_byte_identical_across_worker_counts() {
    let spec = telemetry_spec();
    let serial = run_with(&spec, 1, "tel-serial");
    let parallel = run_with(&spec, 4, "tel-parallel");
    let ra = serial.results(&spec).expect("serial jobs succeed");
    let rb = parallel.results(&spec).expect("parallel jobs succeed");
    assert_eq!(ra.len(), rb.len());
    for (a, b) in ra.iter().zip(&rb) {
        let ta = a.telemetry.as_ref().expect("serial run has telemetry");
        let tb = b.telemetry.as_ref().expect("parallel run has telemetry");
        let clock = a.metrics.gpu_clock_hz();
        let policy = a.policy.label();
        assert_eq!(
            to_jsonl(ta, &a.workload, &policy, clock),
            to_jsonl(tb, &b.workload, &b.policy.label(), b.metrics.gpu_clock_hz()),
            "{}/{policy}: JSONL must not depend on worker count",
            a.workload
        );
        assert_eq!(
            to_chrome_trace(ta, &a.workload, &policy, clock),
            to_chrome_trace(tb, &b.workload, &b.policy.label(), b.metrics.gpu_clock_hz()),
            "{}/{policy}: Chrome trace must not depend on worker count",
            a.workload
        );
    }
    assert_eq!(
        serial.report.provenance.telemetry_interval,
        Some(INTERVAL),
        "the report must record the sampling interval"
    );
}

/// Checked-in goldens for one small run: any byte change to the export
/// formats (or the simulation itself) must be deliberate.
#[test]
fn telemetry_exports_match_goldens() {
    let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
    let opts = RunOptions {
        telemetry_interval: Some(INTERVAL),
        ..RunOptions::default()
    };
    let r = run_one_with(
        &SystemConfig::small_test(),
        &w,
        PolicyConfig::of(CachePolicy::CacheR),
        &opts,
    )
    .expect("run finishes");
    let run = r.telemetry.as_ref().expect("telemetry enabled");
    assert!(!run.epochs.is_empty(), "the run must span several epochs");
    let clock = r.metrics.gpu_clock_hz();
    check_golden(
        "telemetry_fwsoft_cacher.jsonl",
        &to_jsonl(run, &r.workload, &r.policy.label(), clock),
    );
    check_golden(
        "telemetry_fwsoft_cacher.trace.json",
        &to_chrome_trace(run, &r.workload, &r.policy.label(), clock),
    );
}

/// Telemetry-enabled sweeps must bypass the cache: a cached hit carries
/// no time series, so serving one would silently drop telemetry.
#[test]
fn telemetry_sweeps_bypass_the_result_cache() {
    let dir = std::env::temp_dir().join(format!("miopt-telemetry-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions {
        cache: Some(ResultCache::new(&dir)),
        ..SweepOptions::default()
    };
    let spec = telemetry_spec();
    // Twice: even a warm cache must not serve hits while telemetry is on.
    for name in ["tel-cache-cold", "tel-cache-warm"] {
        let run = run_sweep(&spec, name, &opts);
        assert!(
            run.outcomes.iter().all(|o| !o.cached),
            "{name}: telemetry jobs must simulate, not hit the cache"
        );
        for r in run.results(&spec).expect("jobs succeed") {
            assert!(r.telemetry.is_some(), "{name}: every job carries a series");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
