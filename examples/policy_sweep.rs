//! Sweep every caching policy — the three static policies plus the paper's
//! optimization ladder — over one benchmark and report the comparison the
//! paper makes in Figures 6 and 10.
//!
//! The six runs go through the `miopt-harness` worker pool, so they use
//! every available core and still produce exactly the numbers a serial
//! sweep would.
//!
//! ```text
//! cargo run --release -p miopt-harness --example policy_sweep -- [workload]
//! ```

use miopt::runner::SweepSpec;
use miopt::SystemConfig;
use miopt_harness::sweep::{run_sweep, SweepOptions};
use miopt_workloads::{by_name, SuiteConfig};

fn main() {
    let workload_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "FwPool".to_string());
    let scale = SuiteConfig::quick();
    let workload = by_name(&scale, &workload_name)
        .unwrap_or_else(|| panic!("unknown workload {workload_name:?}"));
    let cfg = SystemConfig::paper_table1();

    println!(
        "policy sweep for {} (paper category: {:?})",
        workload.name, workload.category
    );
    println!(
        "{:14} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "config", "cycles", "vs Unc", "DRAM", "rowhit%", "stalls/rq"
    );

    let spec = SweepSpec::figures(cfg, vec![workload.clone()]);
    let run = run_sweep(&spec, "example-policy-sweep", &SweepOptions::default());
    let results = run.results(&spec).expect("sweep jobs succeed");
    let ladder = spec.assemble_ladders(&results).remove(0);
    let base = ladder.uncached().metrics.cycles as f64;

    for run in ladder.statics.iter().chain(ladder.ladder.iter()) {
        let m = &run.metrics;
        println!(
            "{:14} {:>12} {:>9.3}x {:>10} {:>9.1}% {:>10.3}",
            run.policy.label(),
            m.cycles,
            m.cycles as f64 / base,
            m.dram_accesses(),
            m.row_hit_ratio() * 100.0,
            m.stalls_per_request(),
        );
    }

    let best = ladder.static_best();
    let pcby = &ladder.ladder[2];
    println!(
        "\nCacheRW-PCby vs static best ({}): {:.3}x",
        best.policy.label(),
        pcby.metrics.cycles as f64 / best.metrics.cycles as f64
    );
}
