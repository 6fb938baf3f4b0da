//! DeepBench / MIOpen-benchmark recurrent networks: LSTM and GRU, forward
//! and forward+backward (batch 1, sequence length 16, hidden size 128 —
//! the English-Vietnamese translation configuration the paper uses).
//!
//! These are the paper's many-kernel latency-bound applications: 150
//! launches (forward) / 363 launches (forward+backward) of 4 / 6 unique
//! templates, with a 0.38–0.48 MB footprint. The input-weight GEMM is
//! batched over all timesteps (weights reused 16x within one kernel); the
//! recurrent GEMVs run per step with tiny grids, so execution is dominated
//! by memory latency and launch overhead — caching shortens the critical
//! path even where bandwidth is ample.

use crate::patterns::{PatternKind, PatternSpec, Region};
use crate::{kernel, Category, RegionAlloc, SuiteConfig, Workload};
use miopt_gpu::{KernelDesc, Op};
use std::sync::Arc;

/// Configuration of a DeepBench-style RNN workload, mirroring the knobs
/// the paper calls out ("sequence lengths, hidden layer sizes, and batch
/// sizes"). The Table 2 entries use [`RnnConfig::paper`]; the
/// `rnn_sweep` example explores the rest of the space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnnConfig {
    /// Gate count (4 for LSTM, 3 for GRU).
    pub gates: u64,
    /// Hidden layer size (paper: 128).
    pub hidden: u64,
    /// Sequence length (paper: 16).
    pub seq_len: u32,
    /// Whether the backward pass runs too.
    pub backward: bool,
}

impl RnnConfig {
    /// The paper's configuration: hidden 128, sequence length 16,
    /// batch 1 (the English-Vietnamese translation RNN).
    #[must_use]
    pub fn paper(gates: u64, backward: bool) -> RnnConfig {
        RnnConfig {
            gates,
            hidden: 128,
            seq_len: 16,
            backward,
        }
    }
}

/// The input-weight GEMM, batched across all timesteps: every work-group
/// sweeps the whole `W` (reuse across distant work items), and the grid
/// scales with gates x sequence length.
fn gemm_x(tid: u16, w: Region, x: Region, gates: u64, seq_len: u32) -> Arc<KernelDesc> {
    let wgs = (seq_len * gates as u32).max(8);
    let iters = (w.bytes / (64 * 4)).max(1) as u32;
    kernel(
        "rnn_gemm_x",
        tid,
        wgs,
        1,
        iters,
        vec![
            Op::Load { pattern: 0 },
            Op::Load { pattern: 1 },
            Op::WaitCnt { max: 2 },
            Op::Valu { count: 4 },
        ],
        vec![
            PatternSpec {
                region: w,
                elem_bytes: 4,
                kind: PatternKind::SharedSweep {
                    phase_bytes: w.bytes / 16,
                },
                seq_stride_bytes: 0,
            },
            PatternSpec {
                region: x,
                elem_bytes: 4,
                kind: PatternKind::SharedSweep { phase_bytes: 512 },
                seq_stride_bytes: 0,
            },
        ],
    )
}

/// The per-timestep recurrent GEMV: streams the recurrent weights once
/// with a tiny grid (latency bound, little reuse).
fn gemv_h(tid: u16, wh: Region, h: Region) -> Arc<KernelDesc> {
    let wgs = 8;
    let iters = (wh.bytes / (64 * 4 * wgs as u64)).max(1) as u32;
    kernel(
        "rnn_gemv_h",
        tid,
        wgs,
        1,
        iters,
        vec![
            Op::Load { pattern: 0 },
            Op::Load { pattern: 1 },
            Op::WaitCnt { max: 1 },
            Op::Valu { count: 4 },
        ],
        vec![
            PatternSpec {
                region: wh,
                elem_bytes: 4,
                kind: PatternKind::Stream,
                seq_stride_bytes: 0,
            },
            PatternSpec {
                region: h,
                elem_bytes: 4,
                kind: PatternKind::SharedSweep { phase_bytes: 256 },
                seq_stride_bytes: 0,
            },
        ],
    )
}

/// Per-timestep elementwise gate math over the tiny state vectors.
fn elementwise(tid: u16, name: &str, state: Region, loads: usize) -> Arc<KernelDesc> {
    let mut body = Vec::new();
    let mut pats = Vec::new();
    for l in 0..loads {
        body.push(Op::Load {
            pattern: pats.len() as u16,
        });
        pats.push(PatternSpec {
            region: state,
            elem_bytes: 4,
            kind: if l == 0 {
                PatternKind::Stream
            } else {
                PatternKind::LaggedStream {
                    lag_bytes: 2048 * l as u64,
                }
            },
            // Each timestep works on its own slice of the state.
            seq_stride_bytes: 2048,
        });
    }
    body.push(Op::WaitCnt { max: 0 });
    body.push(Op::Valu { count: 2 });
    body.push(Op::Store {
        pattern: pats.len() as u16,
    });
    pats.push(PatternSpec {
        region: state,
        elem_bytes: 4,
        kind: PatternKind::LaggedStream { lag_bytes: 8192 },
        seq_stride_bytes: 2048,
    });
    kernel(name, tid, 2, 1, 4, body, pats)
}

/// The time-batched backward GEMM accumulating `dW`: sweeps activations
/// and weights with high intra-kernel reuse and revisited gradient stores.
fn gemm_bw(tid: u16, w: Region, acts: Region, dw: Region) -> Arc<KernelDesc> {
    let wgs = 32;
    let iters = (w.bytes / (64 * 4)).max(1) as u32;
    kernel(
        "rnn_gemm_bw",
        tid,
        wgs,
        1,
        iters,
        vec![
            Op::Load { pattern: 0 },
            Op::Load { pattern: 1 },
            Op::WaitCnt { max: 2 },
            Op::Valu { count: 4 },
            Op::Store { pattern: 2 },
        ],
        vec![
            PatternSpec {
                region: w,
                elem_bytes: 4,
                kind: PatternKind::SharedSweep {
                    phase_bytes: w.bytes / 8,
                },
                seq_stride_bytes: 0,
            },
            PatternSpec {
                region: acts,
                elem_bytes: 4,
                kind: PatternKind::SharedSweep {
                    phase_bytes: acts.bytes / 8,
                },
                seq_stride_bytes: 0,
            },
            PatternSpec {
                region: dw,
                elem_bytes: 4,
                kind: PatternKind::Revisit { times: 4 },
                seq_stride_bytes: 0,
            },
        ],
    )
}

/// Builds a custom-size LSTM/GRU workload (see [`RnnConfig`]). Kernel
/// counts scale with the sequence length exactly as the Table 2 entries
/// do at length 16.
#[must_use]
pub fn rnn_with_config(name: &str, index: u64, config: &RnnConfig) -> Workload {
    let mut alloc = RegionAlloc::for_workload(index);
    let hidden = config.hidden;
    let seq_len = config.seq_len;
    // W_x and W_h are gates x hidden x hidden floats.
    let w_bytes = config.gates * hidden * hidden * 4;
    let wx = alloc.region(w_bytes);
    let wh = alloc.region(w_bytes);
    let state = alloc.region(64 * 1024);
    let base = (index * 8) as u16;

    let k_gemm_x = gemm_x(base, wx, state, config.gates, seq_len);
    let k_gemv_h = gemv_h(base + 1, wh, state);
    let k_ew_gate = elementwise(base + 2, "rnn_ew_gate", state, 2);
    let k_ew_state = elementwise(base + 3, "rnn_ew_state", state, 1);

    // Forward: 1 batched input GEMM + per step (1 recurrent GEMV + gate +
    // state elementwise x ~3) = 150 launches of 4 templates at the
    // paper's sequence length of 16.
    let mut launches: Vec<Arc<KernelDesc>> = vec![Arc::clone(&k_gemm_x)];
    for _ in 0..seq_len {
        launches.push(Arc::clone(&k_gemv_h));
        launches.push(Arc::clone(&k_ew_gate));
        for _ in 0..6 {
            launches.push(Arc::clone(&k_ew_state));
        }
        launches.push(Arc::clone(&k_ew_gate));
    }
    // 1 + 16 * 9 = 145 at the paper's length; pad with state updates to
    // the paper's 150 (proportionally at other lengths).
    let fw_target = 1 + seq_len as usize * 9 + 5;
    while launches.len() < fw_target {
        launches.push(Arc::clone(&k_ew_state));
    }

    if config.backward {
        let dw = alloc.region(w_bytes);
        let k_gemm_bw = gemm_bw(base + 4, wx, state, dw);
        let k_ew_bw = elementwise(base + 5, "rnn_ew_bw", state, 3);
        // Backward: per step ~12 elementwise/GEMV launches + the batched
        // dW GEMM at the end: 363 total of 6 templates at length 16.
        for _ in 0..seq_len {
            launches.push(Arc::clone(&k_gemv_h));
            for _ in 0..11 {
                launches.push(Arc::clone(&k_ew_bw));
            }
        }
        launches.push(Arc::clone(&k_gemm_bw));
        let bw_target = fw_target + seq_len as usize * 12 + 21;
        while launches.len() < bw_target {
            launches.push(Arc::clone(&k_ew_bw));
        }
    }

    Workload {
        name: name.to_string(),
        category: Category::ReuseSensitive,
        launches,
        footprint: alloc.allocated(),
    }
}

/// Forward LSTM (batch 1, seq 16, hidden 128). Paper: 4/150 kernels,
/// 0.38 MB.
pub(crate) fn fw_lstm(_cfg: &SuiteConfig, index: u64) -> Workload {
    rnn_with_config("FwLSTM", index, &RnnConfig::paper(4, false))
}

/// Forward GRU. Paper: 4/150 kernels.
pub(crate) fn fw_gru(_cfg: &SuiteConfig, index: u64) -> Workload {
    rnn_with_config("FwGRU", index, &RnnConfig::paper(3, false))
}

/// Forward+backward LSTM. Paper: 6/363 kernels, 0.48 MB.
pub(crate) fn fwbw_lstm(_cfg: &SuiteConfig, index: u64) -> Workload {
    rnn_with_config("FwBwLSTM", index, &RnnConfig::paper(4, true))
}

/// Forward+backward GRU. Paper: 6/363 kernels.
pub(crate) fn fwbw_gru(_cfg: &SuiteConfig, index: u64) -> Workload {
    rnn_with_config("FwBwGRU", index, &RnnConfig::paper(3, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_counts_match_table_2() {
        let cfg = SuiteConfig::paper();
        assert_eq!(fw_lstm(&cfg, 9).total_kernels(), 150);
        assert_eq!(fw_gru(&cfg, 8).total_kernels(), 150);
        assert_eq!(fwbw_lstm(&cfg, 11).total_kernels(), 363);
        assert_eq!(fwbw_gru(&cfg, 10).total_kernels(), 363);
    }

    #[test]
    fn gru_is_smaller_than_lstm() {
        let cfg = SuiteConfig::paper();
        assert!(fw_gru(&cfg, 8).footprint < fw_lstm(&cfg, 9).footprint);
    }

    #[test]
    fn repeated_launches_share_templates_and_pcs() {
        let w = fw_lstm(&SuiteConfig::paper(), 9);
        let a = &w.launches[1];
        let b = &w.launches[10];
        assert_eq!(a.template_id, b.template_id);
        assert_eq!(a.pc_of(0), b.pc_of(0));
    }

    /// The batched input GEMM's grid follows the configured sequence
    /// length, not the paper's 16.
    #[test]
    fn input_gemm_grid_scales_with_the_sequence_length() {
        for (seq_len, gates) in [(8, 3), (32, 4)] {
            let config = RnnConfig {
                seq_len,
                ..RnnConfig::paper(gates, false)
            };
            let w = rnn_with_config("rnn", 0, &config);
            let gemm = &w.launches[0];
            assert_eq!(gemm.name, "rnn_gemm_x");
            assert_eq!(gemm.wgs, seq_len * gates as u32, "{config:?}");
        }
    }

    #[test]
    fn grids_are_tiny() {
        let w = fw_lstm(&SuiteConfig::paper(), 9);
        for k in &w.launches {
            assert!(
                k.total_wavefronts() <= 64,
                "{}: batch-1 RNNs are small",
                k.name
            );
        }
    }
}
