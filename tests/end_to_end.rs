//! Cross-crate integration tests: whole-suite runs at quick scale on the
//! small test system, checking the invariants that hold regardless of
//! calibration.

use miopt::runner::{run_one, run_one_with, RunOptions, SimError, SweepSpec};
use miopt::{CachePolicy, PolicyConfig, SystemConfig};
use miopt_workloads::{by_name, suite, SuiteConfig};

fn cfg() -> SystemConfig {
    SystemConfig::small_test()
}

#[test]
fn every_workload_completes_under_every_static_policy() {
    let workloads = suite(&SuiteConfig::quick());
    // The big streaming workloads are slow even at quick scale on debug
    // builds; sample across categories instead of running all 17 x 3.
    let names = ["CM", "FwBN", "FwSoft", "BwPool", "FwGRU", "BwBN", "FwFc"];
    for w in workloads
        .iter()
        .filter(|w| names.contains(&w.name.as_str()))
    {
        for p in CachePolicy::ALL {
            let r = run_one(&cfg(), w, PolicyConfig::of(p)).expect("run finishes");
            assert!(r.metrics.cycles > 0, "{}/{p}", w.name);
            assert!(
                r.metrics.gpu.retired_wavefronts > 0,
                "{}/{p}: no wavefronts retired",
                w.name
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
    let err = run_one_with(&cfg(), &w, PolicyConfig::of(CachePolicy::CacheR), &opts)
        .expect_err("a 10-cycle budget must be exhausted");
    match &err {
        SimError::Halted { diagnostic, .. } => assert_eq!(diagnostic.budget, 10),
        other => panic!("expected a timeout, got {other}"),
    }
    assert!(err.to_string().contains("FwSoft/CacheR"), "{err}");
}

#[test]
fn uncached_never_counts_cache_stalls() {
    for name in ["FwSoft", "BwBN", "FwGRU"] {
        let w = by_name(&SuiteConfig::quick(), name).unwrap();
        let r = run_one(&cfg(), &w, PolicyConfig::of(CachePolicy::Uncached)).expect("run finishes");
        assert_eq!(r.metrics.cache_stalls(), 0, "{name}");
    }
}

#[test]
fn gpu_request_counts_are_policy_independent() {
    // The CU issues the same coalesced request stream whatever the caches
    // do with it.
    let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
    let counts: Vec<u64> = CachePolicy::ALL
        .iter()
        .map(|&p| {
            run_one(&cfg(), &w, PolicyConfig::of(p))
                .expect("run finishes")
                .metrics
                .gpu
                .memory_requests()
        })
        .collect();
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
}

#[test]
fn dram_accesses_never_exceed_gpu_requests_plus_writebacks() {
    for name in ["FwSoft", "BwBN", "FwFc"] {
        let w = by_name(&SuiteConfig::quick(), name).unwrap();
        for p in CachePolicy::ALL {
            let r = run_one(&cfg(), &w, PolicyConfig::of(p)).expect("run finishes");
            let m = &r.metrics;
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
        let w = by_name(&SuiteConfig::quick(), name).unwrap();
        let unc =
            run_one(&cfg(), &w, PolicyConfig::of(CachePolicy::Uncached)).expect("run finishes");
        let r = run_one(&cfg(), &w, PolicyConfig::of(CachePolicy::CacheR)).expect("run finishes");
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
    use miopt::OptimizationSet;
    let w = by_name(&SuiteConfig::quick(), "BwBN").unwrap();
    let plain = run_one(&cfg(), &w, PolicyConfig::of(CachePolicy::CacheRW)).expect("run finishes");
    let ab_policy =
        PolicyConfig::new(CachePolicy::CacheRW, OptimizationSet::ab()).expect("CacheRW admits AB");
    let ab = run_one(&cfg(), &w, ab_policy).expect("run finishes");
    // Allocation bypass exists to remove set-busy stalls.
    assert!(
        ab.metrics.l1.stall_set_busy.get() + ab.metrics.l2.stall_set_busy.get()
            <= plain.metrics.l1.stall_set_busy.get() + plain.metrics.l2.stall_set_busy.get(),
        "AB must not increase allocation blocking"
    );
    let pcby_policy = PolicyConfig::new(CachePolicy::CacheRW, OptimizationSet::ab_cr_pcby())
        .expect("CacheRW admits AB+CR+PCby");
    let pcby = run_one(&cfg(), &w, pcby_policy).expect("run finishes");
    assert!(pcby.metrics.cycles > 0);
}

#[test]
fn rinsing_never_loses_dirty_data() {
    use miopt::OptimizationSet;
    // Rinsing is *eager* writeback: it may add writes (a rinsed line that
    // is stored again is written back twice) but can never lose dirty
    // data, so DRAM writes are at least those of plain CacheRW-AB and the
    // rinse writebacks are accounted.
    let w = by_name(&SuiteConfig::quick(), "BwPool").unwrap();
    let ab_policy =
        PolicyConfig::new(CachePolicy::CacheRW, OptimizationSet::ab()).expect("CacheRW admits AB");
    let ab = run_one(&cfg(), &w, ab_policy).expect("run finishes");
    let cr_policy = PolicyConfig::new(CachePolicy::CacheRW, OptimizationSet::ab_cr())
        .expect("CacheRW admits AB+CR");
    let cr = run_one(&cfg(), &w, cr_policy).expect("run finishes");
    assert!(
        cr.metrics.dram.writes.get() >= ab.metrics.dram.writes.get(),
        "eager writeback cannot reduce total writes: cr {} vs ab {}",
        cr.metrics.dram.writes.get(),
        ab.metrics.dram.writes.get()
    );
    assert!(cr.metrics.l2.rinse_writebacks.get() > 0, "rinsing engaged");
}

#[test]
fn static_sweep_is_reproducible() {
    let w = by_name(&SuiteConfig::quick(), "FwGRU").unwrap();
    let spec = SweepSpec::statics(cfg(), vec![w]);
    for job in spec.jobs() {
        let x = spec.run_job(&job).expect("job finishes");
        let y = spec.run_job(&job).expect("job finishes");
        assert_eq!(x.metrics.cycles, y.metrics.cycles);
        assert_eq!(x.metrics.dram_accesses(), y.metrics.dram_accesses());
    }
}
