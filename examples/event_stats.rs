//! Event-core effectiveness: how many events the discrete-event engine
//! dispatched versus the cycles it simulated, per workload and policy —
//! the ratio that explains the speedup over the `--no-skip` per-cycle
//! oracle (which dispatches all ten stages every cycle, busy or not).
//!
//! ```text
//! cargo run --release --example event_stats
//! cargo run --release --example event_stats -- FwGRU Uncached
//! cargo run --release --example event_stats -- FwGRU Uncached latency4x
//! cargo run --release --example event_stats -- BwAct CacheRW-CR paper 64
//! ```
//!
//! The policy is any Figure 6/10 label; the optional fourth argument is
//! the footprint divisor (256 = quick, the default; 16 = paper scale).
//! Each report ends with the exact host-side workload counters: the CU
//! ticks of the `phase` actor (executed, and how many found nothing to
//! do) and, per cache level, the `service` calls executed, how many of
//! them were blocked retries, and how many blocked retries the units
//! slept through instead (`ApuSystem::service_stats`).

use miopt::{optimization_ladder, ApuSystem, CachePolicy, PolicyConfig, SystemConfig};
use miopt_workloads::{by_name, SuiteConfig};

/// `paper` is the Table 1 machine: its realistic interconnect/DRAM
/// latencies and 3000-cycle launch overhead are what make MI workloads
/// latency-bound (and event-driven execution effective). `latency4x` is
/// the same memory system seen from a 4x-clocked GPU — every latency in
/// core cycles scaled by 4.
fn config(name: &str) -> SystemConfig {
    let mut cfg = SystemConfig::paper_table1();
    match name {
        "paper" => {}
        "latency4x" => {
            cfg.lat_cu_l1 *= 4;
            cfg.lat_l1_resp *= 4;
            cfg.lat_l1_l2 *= 4;
            cfg.lat_l2_resp *= 4;
            cfg.lat_l2_dram *= 4;
            cfg.lat_dram_resp *= 4;
        }
        other => panic!("unknown config {other:?} (paper|latency4x)"),
    }
    cfg.validate().expect("config is valid");
    cfg
}

fn policy(label: &str) -> PolicyConfig {
    CachePolicy::ALL
        .into_iter()
        .map(PolicyConfig::of)
        .chain(optimization_ladder())
        .find(|p| p.label() == label)
        .unwrap_or_else(|| panic!("unknown policy {label:?} (a Figure 6 or Figure 10 label)"))
}

fn report(name: &str, policy: PolicyConfig, cfg_name: &str, suite: &SuiteConfig) {
    let w = by_name(suite, name).expect("suite workload");
    let mut sys = ApuSystem::new(config(cfg_name), policy, &w);
    let m = sys.run_to_completion(20_000_000_000).expect("run finished");
    let (events, active) = sys.event_stats();
    let quiet = 100.0 * (1.0 - active as f64 / m.cycles as f64);
    println!(
        "{name:8} {:12} {:>10} cycles  {:>10} events  {:>9} active ({:>5.1}% event-free, {:.2} events/active cycle)",
        policy.label(),
        m.cycles,
        events,
        active,
        quiet,
        events as f64 / active.max(1) as f64,
    );
    let mut by_actor = sys.event_stats_by_actor();
    by_actor.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    print!("         dispatches by stage:");
    for (stage, n) in by_actor.iter().filter(|&&(_, n)| n > 0) {
        print!("  {stage}={:.1}%", 100.0 * *n as f64 / events.max(1) as f64);
    }
    println!();
    let (cu_ticks, idle) = sys.cu_tick_stats();
    println!(
        "         CU ticks: {cu_ticks} executed, {idle} idle ({:.1}%)",
        100.0 * idle as f64 / cu_ticks.max(1) as f64
    );
    let (l1, l2) = sys.service_stats();
    for (level, s) in [("L1", l1), ("L2", l2)] {
        let retries = s.blocked + s.settled;
        println!(
            "         {level} service: {} calls, {} acted or idle, {} blocked retries executed, \
             {} slept through ({:.1}% of {retries} retries executed)",
            s.executed,
            s.executed - s.blocked,
            s.blocked,
            s.settled,
            100.0 * s.blocked as f64 / retries.max(1) as f64
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    match (args.next(), args.next()) {
        (Some(w), Some(p)) => {
            let cfg_name = args.next().unwrap_or_else(|| "paper".to_string());
            let suite = args
                .next()
                .map_or_else(SuiteConfig::quick, |d| SuiteConfig {
                    footprint_divisor: d.parse().expect("footprint divisor is an integer"),
                });
            report(&w, policy(&p), &cfg_name, &suite);
        }
        _ => {
            for (w, p) in [
                ("FwGRU", "Uncached"),
                ("FwGRU", "CacheRW"),
                ("FwLSTM", "Uncached"),
                ("FwSoft", "Uncached"),
                ("BwBN", "CacheRW"),
                ("FwAct", "Uncached"),
            ] {
                report(w, policy(p), "paper", &SuiteConfig::quick());
            }
        }
    }
}
