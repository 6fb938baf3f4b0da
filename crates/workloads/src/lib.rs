//! The 17 MI benchmarks of the paper's Table 2, as synthetic workload
//! generators for the `miopt` simulator.
//!
//! Each benchmark is modeled by the properties the caching study depends
//! on — footprint relative to cache capacity, reuse pattern and distance,
//! load/store ratio, arithmetic intensity, kernel count and grid shape —
//! assembled from the layer-level address patterns in [`patterns`]. The
//! numerical content of the kernels is irrelevant to the paper's questions
//! and is not modeled.
//!
//! Paper footprints are scaled down by [`SuiteConfig::footprint_divisor`]
//! (default 16) so runs finish in seconds rather than days; the scaling
//! preserves each footprint's ratio to the 4 MB L2 where that ratio
//! determines behaviour, and keeps the tiny benchmarks (softmax, RNNs) at
//! their natural absolute sizes.
//!
//! # Examples
//!
//! ```
//! use miopt_workloads::{suite, SuiteConfig};
//!
//! let all = suite(&SuiteConfig::default());
//! assert_eq!(all.len(), 17);
//! let names: Vec<&str> = all.iter().map(|w| w.name.as_str()).collect();
//! assert!(names.contains(&"FwAct"));
//! assert!(names.contains(&"FwBwLSTM"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod patterns;

mod composed;
mod elementwise;
mod fc;
mod gemm;
mod norm;
mod pool;
pub mod rnn;
mod softmax;

use miopt_gpu::{KernelDesc, KernelProgram, Op};
use patterns::{LayerGen, PatternSpec};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The paper's Figure 6 behavioural categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Cache policy barely changes execution time (CM, SGEMM, DGEMM;
    /// `miopt-harness check` holds the bound).
    Insensitive,
    /// Caching consistently improves performance.
    ReuseSensitive,
    /// Caching consistently hurts performance (FwAct, FwLRN, BwAct).
    ThroughputSensitive,
}

/// Scaling and sizing knobs for the benchmark suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteConfig {
    /// Paper footprints are divided by this. 16 is the calibrated default;
    /// larger values give faster, smaller runs with the same qualitative
    /// behaviour.
    pub footprint_divisor: u64,
}

impl SuiteConfig {
    /// The calibrated reproduction scale (1/16 of paper footprints).
    #[must_use]
    pub fn paper() -> SuiteConfig {
        SuiteConfig {
            footprint_divisor: 16,
        }
    }

    /// A much smaller scale for unit tests and smoke benchmarks
    /// (1/256 of paper footprints).
    #[must_use]
    pub fn quick() -> SuiteConfig {
        SuiteConfig {
            footprint_divisor: 256,
        }
    }

    /// Scales a paper footprint, with a floor that keeps patterns
    /// meaningful.
    #[must_use]
    pub fn scaled(&self, paper_bytes: u64) -> u64 {
        (paper_bytes / self.footprint_divisor).max(64 * 1024)
    }
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig::paper()
    }
}

/// One Table 2 benchmark: a named sequence of kernel launches.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name as in the paper (e.g. `"FwAct"`).
    pub name: String,
    /// The category the paper assigns it (used for report ordering and as
    /// the acceptance criterion for Figure 6).
    pub category: Category,
    /// Kernel launches, in order. Repeated launches share their
    /// [`KernelDesc`] template (and therefore their PCs).
    pub launches: Vec<Arc<KernelDesc>>,
    /// Total bytes of the distinct arrays the workload touches
    /// (Table 2 "GPU Footprint"), recorded at construction.
    pub footprint: u64,
}

impl Workload {
    /// Number of distinct kernel templates (Table 2 "Unique Kernels").
    #[must_use]
    pub fn unique_kernels(&self) -> usize {
        self.launches
            .iter()
            .map(|k| k.template_id)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Total kernel launches (Table 2 "Total Kernels").
    #[must_use]
    pub fn total_kernels(&self) -> usize {
        self.launches.len()
    }

    /// The footprint in bytes (Table 2 "GPU Footprint").
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    /// A stable identity string for this workload instance, usable as a
    /// persistent experiment-cache key.
    ///
    /// The id is `<name>-<fnv64 hex>` where the digest covers the
    /// workload's name, footprint, and every launch's static geometry
    /// (template id, grid shape, program length and iteration count) —
    /// everything that determines the generated address stream. Two
    /// workloads built from different [`SuiteConfig`] scales therefore get
    /// different ids, while rebuilding the same suite reproduces the same
    /// id byte for byte.
    ///
    /// # Examples
    ///
    /// ```
    /// use miopt_workloads::{by_name, SuiteConfig};
    ///
    /// let a = by_name(&SuiteConfig::quick(), "FwPool").unwrap();
    /// let b = by_name(&SuiteConfig::quick(), "FwPool").unwrap();
    /// assert_eq!(a.stable_id(), b.stable_id());
    /// let c = by_name(&SuiteConfig::paper(), "FwPool").unwrap();
    /// assert_ne!(a.stable_id(), c.stable_id());
    /// ```
    #[must_use]
    pub fn stable_id(&self) -> String {
        let mut h = miopt_engine::hash::Fnv1a::new();
        h.write(self.name.as_bytes());
        h.write_u64(self.footprint);
        h.write_u64(self.launches.len() as u64);
        for k in &self.launches {
            h.write_u64(u64::from(k.template_id));
            h.write_u64(u64::from(k.wgs));
            h.write_u64(u64::from(k.wfs_per_wg));
            h.write_u64(u64::from(k.program.iters));
            h.write_u64(k.program.body.len() as u64);
        }
        format!("{}-{:016x}", self.name, h.finish())
    }
}

/// Allocates non-overlapping regions for a workload's arrays.
///
/// Consecutive regions are offset by one DRAM bank stride (one row x all
/// channels = 32 KiB on the Table 1 system) so that equal-rate streams
/// over different arrays occupy *different* banks instead of ping-ponging
/// rows within one bank — the placement a real allocator's page
/// interleaving produces.
#[derive(Debug)]
pub(crate) struct RegionAlloc {
    next: u64,
    count: u64,
    footprint: u64,
}

/// One DRAM row across all channels: lines_per_row x channels x 64 B.
const BANK_STRIDE: u64 = 32 * 1024;

impl RegionAlloc {
    /// Workload `index`'s allocator; workloads are 64 GiB apart so their
    /// address spaces never collide.
    pub(crate) fn for_workload(index: u64) -> RegionAlloc {
        RegionAlloc {
            next: index << 36,
            count: 0,
            footprint: 0,
        }
    }

    pub(crate) fn region(&mut self, bytes: u64) -> patterns::Region {
        // Round the start up to a bank-stride boundary, then skew by one
        // bank per region allocated so far.
        let aligned = self.next.div_ceil(BANK_STRIDE) * BANK_STRIDE;
        let base = aligned + (self.count % 16) * BANK_STRIDE;
        self.next = base + bytes;
        self.count += 1;
        self.footprint += bytes;
        patterns::Region::new(base, bytes)
    }

    /// Total bytes allocated so far (the workload footprint).
    pub(crate) fn allocated(&self) -> u64 {
        self.footprint
    }
}

/// Picks `(wgs, iters)` so that `wgs * wfs_per_wg * 64 * iters` covers
/// `total_elems`, aiming for `target_wgs` work-groups but keeping at least
/// 8 loop iterations per wavefront (iteration-indexed patterns such as
/// [`patterns::PatternKind::Revisit`] need several iterations to mean
/// anything).
pub(crate) fn grid(total_elems: u64, wfs_per_wg: u32, target_wgs: u32) -> (u32, u32) {
    let per_iter = u64::from(wfs_per_wg) * 64;
    let iters = (total_elems.div_ceil(per_iter * u64::from(target_wgs))).max(8);
    let wgs = total_elems.div_ceil(per_iter * iters).max(1);
    (wgs as u32, iters as u32)
}

/// Assembles a kernel from its pieces.
pub(crate) fn kernel(
    name: &str,
    template_id: u16,
    wgs: u32,
    wfs_per_wg: u32,
    iters: u32,
    body: Vec<Op>,
    pats: Vec<PatternSpec>,
) -> Arc<KernelDesc> {
    Arc::new(KernelDesc {
        name: name.to_string(),
        template_id,
        wgs,
        wfs_per_wg,
        program: KernelProgram::new(body, iters),
        gen: Arc::new(LayerGen::new(pats, wfs_per_wg, iters)),
    })
}

/// Builds all 17 benchmarks in the paper's figure order: the insensitive
/// group, the reuse-sensitive group, then the throughput-sensitive group.
#[must_use]
pub fn suite(cfg: &SuiteConfig) -> Vec<Workload> {
    vec![
        gemm::dgemm(cfg, 0),
        gemm::sgemm(cfg, 1),
        composed::cm(cfg, 2),
        norm::fw_bn(cfg, 3),
        pool::fw_pool(cfg, 4),
        softmax::fw_soft(cfg, 5),
        softmax::bw_soft(cfg, 6),
        pool::bw_pool(cfg, 7),
        rnn::fw_gru(cfg, 8),
        rnn::fw_lstm(cfg, 9),
        rnn::fwbw_gru(cfg, 10),
        rnn::fwbw_lstm(cfg, 11),
        norm::bw_bn(cfg, 12),
        fc::fw_fc(cfg, 13),
        elementwise::fw_act(cfg, 14),
        elementwise::fw_lrn(cfg, 15),
        elementwise::bw_act(cfg, 16),
    ]
}

/// Looks a benchmark up by its paper name (case-insensitive).
#[must_use]
pub fn by_name(cfg: &SuiteConfig, name: &str) -> Option<Workload> {
    suite(cfg)
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_17_benchmarks_in_paper_order() {
        let s = suite(&SuiteConfig::quick());
        let names: Vec<&str> = s.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "DGEMM", "SGEMM", "CM", "FwBN", "FwPool", "FwSoft", "BwSoft", "BwPool", "FwGRU",
                "FwLSTM", "FwBwGRU", "FwBwLSTM", "BwBN", "FwFc", "FwAct", "FwLRN", "BwAct",
            ]
        );
    }

    #[test]
    fn categories_match_the_paper() {
        use Category::*;
        for w in suite(&SuiteConfig::quick()) {
            let expected = match w.name.as_str() {
                "DGEMM" | "SGEMM" | "CM" => Insensitive,
                "FwAct" | "FwLRN" | "BwAct" => ThroughputSensitive,
                _ => ReuseSensitive,
            };
            assert_eq!(w.category, expected, "{}", w.name);
        }
    }

    #[test]
    fn kernel_counts_match_table_2() {
        let s = suite(&SuiteConfig::quick());
        let get = |n: &str| s.iter().find(|w| w.name == n).unwrap();
        // Single-kernel layers.
        for n in [
            "FwAct", "BwAct", "FwBN", "BwBN", "FwPool", "BwPool", "FwSoft", "BwSoft", "FwLRN",
            "FwFc", "SGEMM", "DGEMM",
        ] {
            assert_eq!(get(n).total_kernels(), 1, "{n}");
            assert_eq!(get(n).unique_kernels(), 1, "{n}");
        }
        // Multi-kernel applications (Table 2: CM 4/130, RNN Fw 4/150,
        // RNN FwBw 6/363).
        assert_eq!(get("CM").unique_kernels(), 4);
        assert_eq!(get("CM").total_kernels(), 130);
        for n in ["FwGRU", "FwLSTM"] {
            assert_eq!(get(n).unique_kernels(), 4, "{n}");
            assert_eq!(get(n).total_kernels(), 150, "{n}");
        }
        for n in ["FwBwGRU", "FwBwLSTM"] {
            assert_eq!(get(n).unique_kernels(), 6, "{n}");
            assert_eq!(get(n).total_kernels(), 363, "{n}");
        }
    }

    #[test]
    fn footprints_are_ordered_like_table_2() {
        // The giant activation layers dwarf the RNNs at any scale.
        let s = suite(&SuiteConfig::paper());
        let fp = |n: &str| s.iter().find(|w| w.name == n).unwrap().footprint_bytes();
        assert!(fp("FwAct") > 32 * 1024 * 1024);
        assert!(fp("BwAct") >= fp("FwAct")); // both 2.4 GB in the paper
        assert!(fp("FwLSTM") < 4 * 1024 * 1024);
        assert!(fp("FwSoft") < 1024 * 1024);
        assert!(
            fp("BwBN") < 8 * 1024 * 1024,
            "BwBN stays near its paper size"
        );
        assert!(fp("FwPool") > 8 * 1024 * 1024, "FwPool must exceed the L2");
    }

    #[test]
    fn region_allocator_never_overlaps_and_skews_banks() {
        let mut a = RegionAlloc::for_workload(3);
        let r1 = a.region(5000);
        let r2 = a.region(100);
        let r3 = a.region(4096);
        assert!(r1.base + r1.bytes <= r2.base);
        assert!(r2.base + r2.bytes <= r3.base);
        assert_eq!(a.allocated(), 5000 + 100 + 4096);
        // Consecutive regions land in different DRAM banks: their bank
        // offsets (address / 32 KiB mod 16) differ.
        let bank = |base: u64| (base / (32 * 1024)) % 16;
        assert_ne!(bank(r1.base), bank(r2.base));
        assert_ne!(bank(r2.base), bank(r3.base));
        // Different workload indices are far apart.
        let mut b = RegionAlloc::for_workload(4);
        assert!(b.region(64).base >= 4 << 36);
    }

    #[test]
    fn grid_covers_requested_elements() {
        for total in [64u64, 1000, 1 << 20, (1 << 24) + 7] {
            let (wgs, iters) = grid(total, 4, 640);
            let covered = u64::from(wgs) * 4 * 64 * u64::from(iters);
            assert!(covered >= total, "{total}: covered {covered}");
            assert!(
                covered < total + (4 * 64 * u64::from(iters) * 2),
                "{total}: overshoot"
            );
        }
    }

    #[test]
    fn stable_ids_are_unique_reproducible_and_scale_sensitive() {
        let quick: Vec<String> = suite(&SuiteConfig::quick())
            .iter()
            .map(Workload::stable_id)
            .collect();
        // Unique within a suite.
        assert_eq!(quick.iter().collect::<BTreeSet<_>>().len(), quick.len());
        // Rebuilding reproduces identical ids.
        let again: Vec<String> = suite(&SuiteConfig::quick())
            .iter()
            .map(Workload::stable_id)
            .collect();
        assert_eq!(quick, again);
        // Footprint-scaled workloads get a different id at a different
        // scale (tiny natural-size workloads legitimately keep theirs).
        let q = by_name(&SuiteConfig::quick(), "FwPool").unwrap();
        let p = by_name(&SuiteConfig::paper(), "FwPool").unwrap();
        assert_ne!(q.stable_id(), p.stable_id());
    }

    /// The closed-form coalescer on the address streams the figures are
    /// made of: every memory instruction of every launch of every Table 2
    /// workload, at the first, middle and last work-group, wavefront and
    /// iteration (the seeded test in `patterns.rs` covers the edges these
    /// well-formed kernels rarely reach).
    #[test]
    fn table_2_kernels_coalesce_like_the_lane_by_lane_default() {
        use miopt_gpu::{lines_by_lane, AccessCtx, Op};
        let ends = |n: u32| [0, n / 2, n - 1];
        let (mut closed, mut by_lane) = (Vec::new(), Vec::new());
        for w in suite(&SuiteConfig::quick()) {
            for (seq, k) in w.launches.iter().enumerate() {
                for op in &k.program.body {
                    let (Op::Load { pattern } | Op::Store { pattern }) = *op else {
                        continue;
                    };
                    for wg in ends(k.wgs) {
                        for wf in ends(k.wfs_per_wg) {
                            for iter in ends(k.program.iters) {
                                let ctx = AccessCtx {
                                    kernel_seq: seq as u32,
                                    wg,
                                    wf,
                                    lane: 0,
                                    iter,
                                    pattern,
                                };
                                k.gen.lines_into(&ctx, &mut closed);
                                lines_by_lane(&*k.gen, &ctx, &mut by_lane);
                                assert_eq!(closed, by_lane, "{} {}: {ctx:?}", w.name, k.name);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn by_name_is_case_insensitive() {
        let cfg = SuiteConfig::quick();
        assert!(by_name(&cfg, "fwact").is_some());
        assert!(by_name(&cfg, "FWACT").is_some());
        assert!(by_name(&cfg, "nope").is_none());
    }
}
