//! Sweep RNN input sizes, as the paper's Section V.C invites: "As hidden
//! layer size, sequence length, and batch size increase, the number of
//! kernels and GPU footprint also increase. Thus, these workloads are
//! useful for examining the behavior of a variety of different RNN
//! training and inference sizes."
//!
//! This example varies the hidden-layer size and the sequence length of
//! an LSTM forward pass and reports how the Uncached/CacheR trade-off
//! moves: bigger hidden layers shift the bottleneck from launch overhead
//! and latency toward weight bandwidth, where caching earns more. Each
//! size sweep is expressed as one `SweepSpec` grid and executed through
//! the `miopt-harness` worker pool.
//!
//! ```text
//! cargo run --release -p miopt-harness --example rnn_sweep
//! ```

use miopt::runner::{RunOptions, RunResult, SweepSpec};
use miopt::{CachePolicy, PolicyConfig, SystemConfig};
use miopt_harness::sweep::{run_sweep, SweepOptions};
use miopt_workloads::rnn::{rnn_with_config, RnnConfig};
use miopt_workloads::Workload;

/// Runs `workloads` under Uncached and CacheR through the pool and
/// returns one `[Uncached, CacheR]` row per workload.
fn sweep_two_policies(
    cfg: &SystemConfig,
    workloads: Vec<Workload>,
    name: &str,
) -> Vec<Vec<RunResult>> {
    let spec = SweepSpec {
        cfg: cfg.clone(),
        workloads,
        policies: vec![
            PolicyConfig::of(CachePolicy::Uncached),
            PolicyConfig::of(CachePolicy::CacheR),
        ],
        n_static: 2,
        run_opts: RunOptions::default(),
        faults: Vec::new(),
    };
    let run = run_sweep(&spec, name, &SweepOptions::default());
    let results = run.results(&spec).expect("sweep jobs succeed");
    spec.assemble_statics(&results)
}

fn main() {
    let cfg = SystemConfig::paper_table1();

    println!("LSTM forward: hidden-size sweep (sequence length 16)");
    println!(
        "{:>8} {:>9} {:>12} {:>12} {:>12} {:>10}",
        "hidden", "kernels", "footprint", "Uncached", "CacheR", "speedup"
    );
    let hiddens = [64u64, 128, 256, 512];
    let workloads: Vec<Workload> = hiddens
        .iter()
        .map(|&hidden| {
            rnn_with_config(
                "FwLSTM",
                9,
                &RnnConfig {
                    gates: 4,
                    hidden,
                    seq_len: 16,
                    backward: false,
                },
            )
        })
        .collect();
    let rows = sweep_two_policies(&cfg, workloads.clone(), "example-rnn-hidden");
    for ((hidden, w), row) in hiddens.iter().zip(&workloads).zip(&rows) {
        let (unc, r) = (&row[0], &row[1]);
        println!(
            "{:>8} {:>9} {:>10}KB {:>12} {:>12} {:>9.3}x",
            hidden,
            w.total_kernels(),
            w.footprint_bytes() / 1024,
            unc.metrics.cycles,
            r.metrics.cycles,
            unc.metrics.cycles as f64 / r.metrics.cycles as f64,
        );
    }

    println!("\nLSTM forward: sequence-length sweep (hidden 128)");
    println!(
        "{:>8} {:>9} {:>12} {:>12} {:>10}",
        "seq", "kernels", "Uncached", "CacheR", "speedup"
    );
    let seqs = [4u32, 8, 16, 32];
    let workloads: Vec<Workload> = seqs
        .iter()
        .map(|&seq_len| {
            rnn_with_config(
                "FwLSTM",
                9,
                &RnnConfig {
                    gates: 4,
                    hidden: 128,
                    seq_len,
                    backward: false,
                },
            )
        })
        .collect();
    let rows = sweep_two_policies(&cfg, workloads.clone(), "example-rnn-seq");
    for ((seq_len, w), row) in seqs.iter().zip(&workloads).zip(&rows) {
        let (unc, r) = (&row[0], &row[1]);
        println!(
            "{:>8} {:>9} {:>12} {:>12} {:>9.3}x",
            seq_len,
            w.total_kernels(),
            unc.metrics.cycles,
            r.metrics.cycles,
            unc.metrics.cycles as f64 / r.metrics.cycles as f64,
        );
    }
}
