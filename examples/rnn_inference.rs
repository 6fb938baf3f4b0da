//! The paper's motivating multi-kernel scenario: RNN inference
//! (DeepBench LSTM/GRU, batch 1, sequence length 16, hidden size 128 — the
//! English-Vietnamese translation configuration).
//!
//! Batch-1 RNNs launch hundreds of tiny kernels; execution is dominated by
//! kernel-launch overhead and memory latency rather than bandwidth, which
//! is exactly where a coherent, cached CPU-GPU memory system earns its
//! keep. This example compares LSTM and GRU, forward and forward+backward,
//! under uncached and cached policies.
//!
//! ```text
//! cargo run --release --example rnn_inference
//! ```

use miopt::runner::run_one;
use miopt::{CachePolicy, PolicyConfig, SystemConfig};
use miopt_workloads::{by_name, SuiteConfig};

fn main() {
    let scale = SuiteConfig::paper(); // RNN footprints are absolute: cheap at any scale
    let cfg = SystemConfig::paper_table1();

    println!("RNN inference and training under GPU caching policies");
    println!(
        "{:10} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "network", "kernels", "Uncached", "CacheR", "speedup", "DRAM ratio"
    );

    for name in ["FwLSTM", "FwGRU", "FwBwLSTM", "FwBwGRU"] {
        let w = by_name(&scale, name).expect("suite workload");
        let unc = run_one(&cfg, &w, PolicyConfig::of(CachePolicy::Uncached)).expect("run finishes");
        let r = run_one(&cfg, &w, PolicyConfig::of(CachePolicy::CacheR)).expect("run finishes");
        println!(
            "{:10} {:>8} {:>12} {:>12} {:>9.3}x {:>9.1}%",
            name,
            w.total_kernels(),
            unc.metrics.cycles,
            r.metrics.cycles,
            unc.metrics.cycles as f64 / r.metrics.cycles as f64,
            r.metrics.dram_accesses() as f64 / unc.metrics.dram_accesses() as f64 * 100.0,
        );
    }

    // Launch overhead sensitivity: the paper's Section IX warns that MI
    // workloads launch kernels ever more frequently — here is why that
    // matters.
    println!("\nlaunch-overhead sensitivity (FwLSTM, CacheR):");
    for overhead in [500u64, 3000, 10000] {
        let cfg = SystemConfig::builder()
            .map(|c| c.launch_overhead = overhead)
            .build()
            .expect("sensitivity config is valid");
        let w = by_name(&scale, "FwLSTM").expect("suite workload");
        let r = run_one(&cfg, &w, PolicyConfig::of(CachePolicy::CacheR)).expect("run finishes");
        println!(
            "  launch overhead {:>6} cycles -> total {:>12} cycles",
            overhead, r.metrics.cycles
        );
    }
}
