//! Property tests on the sentinel: across randomized (valid)
//! system configurations, policies, and workloads, a healthy simulation
//! run with invariant checking and the forward-progress watchdog enabled
//! never trips — the invariant catalog holds for every machine shape the
//! builder accepts, not just the two hand-picked test configs.

use miopt::{ApuSystem, CachePolicy, PolicyConfig, SystemConfig};
use miopt_engine::prop;
use miopt_workloads::{by_name, SuiteConfig};

#[test]
fn randomized_configs_run_checked_without_tripping() {
    // Each case is a full end-to-end simulation; keep the case count
    // modest so the suite stays in seconds.
    prop::check("randomized_configs_run_checked_without_tripping", 24, |c| {
        // Randomize around the small test machine, keeping the couplings
        // validate() demands (queue capacity above the merge caps, the
        // L2 slice-selector bit matching the slice count). Some random
        // combinations are legitimately rejected (e.g. a merge cap at
        // the queue capacity); only valid machines must also be
        // invariant-clean.
        let sliced = c.bool();
        let (l1_sets, l1_ways) = (c.pick(&[4, 8, 16]), c.pick(&[2, 4]));
        let (l1_mshrs, l1_merge) = (c.pick(&[4, 8, 16]), c.pick(&[2, 4, 8]));
        let l2_dbi_rows = c.pick(&[0, 8, 32]);
        let Ok(cfg) = miopt::SystemConfigBuilder::from_base(SystemConfig::small_test())
            .n_cus(c.range(1..5) as usize)
            .l2_slices(if sliced { 2 } else { 1 })
            .queue_capacity(c.range(9..24) as usize)
            .xbar_per_output(c.range(1..4) as u32)
            .launch_overhead(c.range(20..200))
            .map_l1(|l1| {
                l1.sets = l1_sets;
                l1.ways = l1_ways;
                l1.mshr_entries = l1_mshrs;
                l1.mshr_merge_cap = l1_merge;
            })
            .map_l2(|l2| {
                l2.dbi_rows = l2_dbi_rows;
                l2.index_skip_bits = if sliced { 1 } else { 0 };
            })
            .build()
        else {
            return;
        };

        let policy = PolicyConfig::of(c.pick(&CachePolicy::ALL));
        let workload = c.pick(&["FwSoft", "FwPool"]);
        let w = by_name(&SuiteConfig::quick(), workload).expect("quick suite workload");
        let mut sys = ApuSystem::new(cfg, policy, &w);
        // Tight cadence, aggressive watchdog: any conservation slip or
        // wedge in this machine shape would surface here.
        sys.enable_sentinel(64, 500_000);
        let m = sys
            .run_to_completion(2_000_000_000)
            .expect("checked run completes without tripping an invariant");
        assert!(m.cycles > 0);
        assert!(sys.check_invariants_now().is_empty());
    });
}
