//! Parametric address-pattern primitives.
//!
//! Every Table 2 benchmark is assembled from a handful of layer-level
//! memory patterns. Each pattern describes how a memory instruction's lane
//! addresses advance with the wavefront's position in the grid and its loop
//! iteration; together with the cache geometry this determines the reuse
//! the caches can (or cannot) capture — the property the paper's
//! characterization hinges on.

use miopt_engine::{Addr, LineAddr, LINE_BYTES};
use miopt_gpu::{lines_by_lane, AccessCtx, AddrGen};

/// A byte range of the unified address space owned by one array
/// (activations, weights, gradients, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte.
    pub base: u64,
    /// Size in bytes.
    pub bytes: u64,
}

impl Region {
    /// Creates a region.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    #[must_use]
    pub fn new(base: u64, bytes: u64) -> Region {
        assert!(bytes > 0, "region must be nonempty");
        Region { base, bytes }
    }

    fn wrap(&self, offset: u64) -> Addr {
        Addr(self.base + offset % self.bytes)
    }
}

/// How a pattern's position evolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Dense partitioned streaming: each wavefront walks its own
    /// contiguous chunk of the region, one 64-lane block per iteration.
    /// No reuse (the activation-layer pattern).
    Stream,
    /// Like [`PatternKind::Stream`] but trailing the stream position by
    /// `lag_bytes`: re-reads data touched `lag_bytes` earlier. The reuse
    /// is captured by any cache level whose capacity exceeds the lag
    /// (the multi-pass normalization / softmax pattern).
    LaggedStream {
        /// Reuse distance in bytes.
        lag_bytes: u64,
    },
    /// Like [`PatternKind::Stream`] but the position advances only every
    /// `times` iterations: the same lines are touched `times` times in a
    /// row. For stores this is the overlapping-window scatter of backward
    /// pooling, collapsed by L2 write coalescing.
    Revisit {
        /// Consecutive touches per position.
        times: u32,
    },
    /// Streaming with an additive plane offset: `pos + plane * plane_bytes`
    /// (the cross-channel window of LRN).
    Planes {
        /// Distance between planes in bytes.
        plane_bytes: u64,
        /// Which plane this instruction reads.
        plane: u32,
    },
    /// Every work-group cyclically sweeps the *whole* region, starting at
    /// a per-work-group phase: reuse between distant work items that only
    /// a shared cache can capture (the weight-tile pattern of FC/GEMM).
    SharedSweep {
        /// Phase offset between consecutive work-groups, in bytes.
        phase_bytes: u64,
    },
    /// Re-reads the wavefront's *own* chunk `lag_bytes` behind its stream
    /// position (circularly within the chunk): the two-pass pattern of
    /// normalization layers and the vertical window overlap of pooling.
    /// Unlike [`PatternKind::LaggedStream`], the reuse distance is
    /// temporal within one wavefront — many concurrent wavefronts push the
    /// aggregate reuse window past the L1s while the shared L2 holds it.
    ChunkReread {
        /// Reuse distance within the wavefront's chunk, in bytes.
        lag_bytes: u64,
    },
}

/// One memory instruction's addressing: a region, an element size, and a
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternSpec {
    /// The array accessed.
    pub region: Region,
    /// Bytes per lane element (4 for float32, 8 for float64).
    pub elem_bytes: u32,
    /// Address evolution.
    pub kind: PatternKind,
    /// Bytes added per kernel launch sequence number (0 for weights that
    /// every launch re-reads; nonzero for per-timestep activations).
    pub seq_stride_bytes: u64,
}

impl PatternSpec {
    /// Dense float32 stream over `region`.
    #[must_use]
    pub fn stream(region: Region) -> PatternSpec {
        PatternSpec {
            region,
            elem_bytes: 4,
            kind: PatternKind::Stream,
            seq_stride_bytes: 0,
        }
    }
}

/// The address generator backing one kernel: a list of [`PatternSpec`]s
/// indexed by the program's pattern slots, plus the grid geometry needed to
/// linearize wavefront positions.
#[derive(Debug, Clone)]
pub struct LayerGen {
    patterns: Vec<PatternSpec>,
    wfs_per_wg: u32,
    iters: u32,
}

impl LayerGen {
    /// Builds a generator.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty or the geometry is degenerate.
    #[must_use]
    pub fn new(patterns: Vec<PatternSpec>, wfs_per_wg: u32, iters: u32) -> LayerGen {
        assert!(!patterns.is_empty(), "need at least one pattern");
        assert!(wfs_per_wg > 0 && iters > 0, "degenerate geometry");
        LayerGen {
            patterns,
            wfs_per_wg,
            iters,
        }
    }

    /// The patterns (for footprint reporting).
    #[must_use]
    pub fn patterns(&self) -> &[PatternSpec] {
        &self.patterns
    }

    fn position(&self, spec: &PatternSpec, ctx: &AccessCtx) -> u64 {
        let lin_wf = u64::from(ctx.wg) * u64::from(self.wfs_per_wg) + u64::from(ctx.wf);
        let eb = u64::from(spec.elem_bytes);
        let seq = u64::from(ctx.kernel_seq) * spec.seq_stride_bytes;
        match spec.kind {
            PatternKind::Stream => {
                let elem = (lin_wf * u64::from(self.iters) + u64::from(ctx.iter)) * 64
                    + u64::from(ctx.lane);
                elem * eb + seq
            }
            PatternKind::LaggedStream { lag_bytes } => {
                let elem = (lin_wf * u64::from(self.iters) + u64::from(ctx.iter)) * 64
                    + u64::from(ctx.lane);
                (elem * eb + seq + spec.region.bytes).saturating_sub(lag_bytes)
            }
            PatternKind::Revisit { times } => {
                let eff_iter = u64::from(ctx.iter) / u64::from(times.max(1));
                let eff_iters = u64::from(self.iters) / u64::from(times.max(1));
                let elem = (lin_wf * eff_iters.max(1) + eff_iter) * 64 + u64::from(ctx.lane);
                elem * eb + seq
            }
            PatternKind::Planes { plane_bytes, plane } => {
                let elem = (lin_wf * u64::from(self.iters) + u64::from(ctx.iter)) * 64
                    + u64::from(ctx.lane);
                elem * eb + u64::from(plane) * plane_bytes + seq
            }
            PatternKind::SharedSweep { phase_bytes } => {
                let elem = u64::from(ctx.iter) * 64 + u64::from(ctx.lane);
                elem * eb + u64::from(ctx.wg) * phase_bytes + seq
            }
            PatternKind::ChunkReread { lag_bytes } => {
                let chunk_bytes = u64::from(self.iters) * 64 * eb;
                let chunk_start = lin_wf * chunk_bytes;
                let own = (u64::from(ctx.iter) * 64 + u64::from(ctx.lane)) * eb;
                let lag = lag_bytes.min(chunk_bytes.saturating_sub(1)).max(1);
                chunk_start + (own + chunk_bytes - lag) % chunk_bytes + seq
            }
        }
    }

    fn spec(&self, pattern: u16) -> &PatternSpec {
        self.patterns
            .get(usize::from(pattern))
            .unwrap_or_else(|| panic!("pattern slot {pattern} out of range"))
    }
}

impl AddrGen for LayerGen {
    fn lane_addr(&self, ctx: &AccessCtx) -> Option<Addr> {
        let spec = self.spec(ctx.pattern);
        Some(spec.region.wrap(self.position(spec, ctx)))
    }

    /// Closed form of the lane-by-lane default. Every [`PatternKind`]
    /// places lane `l` at `position(lane 0) + l * elem_bytes` except
    /// across a [`PatternKind::ChunkReread`] chunk wrap or a saturated
    /// [`PatternKind::LaggedStream`] lag, and either exception changes
    /// the lane-63 position, so two `position` evaluations decide it.
    /// When the block also stays below the region's modulo boundary and
    /// elements are no wider than a line, the 64 addresses ascend in
    /// steps of at most one line: the lines touched are the contiguous
    /// range from lane 0's to lane 63's, already in first-touch order.
    fn lines_into(&self, ctx: &AccessCtx, out: &mut Vec<LineAddr>) {
        let spec = self.spec(ctx.pattern);
        let eb = u64::from(spec.elem_bytes);
        let span = 63 * eb;
        let p0 = self.position(spec, &AccessCtx { lane: 0, ..*ctx });
        let p63 = self.position(spec, &AccessCtx { lane: 63, ..*ctx });
        let off = p0 % spec.region.bytes;
        let affine = p63.checked_sub(p0) == Some(span);
        if eb <= LINE_BYTES && affine && span < spec.region.bytes - off {
            let first = Addr(spec.region.base + off).line().0;
            let last = Addr(spec.region.base + off + span).line().0;
            out.clear();
            out.extend((first..=last).map(LineAddr));
        } else {
            lines_by_lane(self, ctx, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miopt_engine::rng::SplitMix64;

    fn ctx(wg: u32, wf: u32, lane: u32, iter: u32, pattern: u16) -> AccessCtx {
        AccessCtx {
            kernel_seq: 0,
            wg,
            wf,
            lane,
            iter,
            pattern,
        }
    }

    fn gen_of(kind: PatternKind, region_bytes: u64, iters: u32) -> LayerGen {
        LayerGen::new(
            vec![PatternSpec {
                region: Region::new(0, region_bytes),
                elem_bytes: 4,
                kind,
                seq_stride_bytes: 0,
            }],
            2,
            iters,
        )
    }

    #[test]
    fn stream_is_dense_and_partitioned() {
        let g = gen_of(PatternKind::Stream, 1 << 20, 4);
        // Lanes are contiguous within an iteration.
        let a0 = g.lane_addr(&ctx(0, 0, 0, 0, 0)).unwrap();
        let a1 = g.lane_addr(&ctx(0, 0, 1, 0, 0)).unwrap();
        assert_eq!(a1.0 - a0.0, 4);
        // Iterations advance by a full 64-lane block.
        let b = g.lane_addr(&ctx(0, 0, 0, 1, 0)).unwrap();
        assert_eq!(b.0 - a0.0, 256);
        // Different wavefronts own disjoint chunks.
        let c = g.lane_addr(&ctx(0, 1, 0, 0, 0)).unwrap();
        assert_eq!(c.0 - a0.0, 4 * 64 * 4); // iters * 64 lanes * 4 B
    }

    #[test]
    fn lagged_stream_trails_by_lag() {
        let lag = 1024;
        let fresh = gen_of(PatternKind::Stream, 1 << 20, 4);
        let lagged = gen_of(PatternKind::LaggedStream { lag_bytes: lag }, 1 << 20, 4);
        let f = fresh.lane_addr(&ctx(1, 1, 7, 3, 0)).unwrap();
        let l = lagged.lane_addr(&ctx(1, 1, 7, 3, 0)).unwrap();
        // Same position minus the lag (modulo region wrap).
        let region = 1u64 << 20;
        assert_eq!(l.0, (f.0 + region - lag) % region);
    }

    #[test]
    fn revisit_repeats_positions() {
        let g = gen_of(PatternKind::Revisit { times: 3 }, 1 << 20, 9);
        let a = g.lane_addr(&ctx(0, 0, 5, 0, 0)).unwrap();
        let b = g.lane_addr(&ctx(0, 0, 5, 1, 0)).unwrap();
        let c = g.lane_addr(&ctx(0, 0, 5, 2, 0)).unwrap();
        let d = g.lane_addr(&ctx(0, 0, 5, 3, 0)).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_ne!(c, d, "position advances after `times` touches");
    }

    #[test]
    fn planes_offset_by_plane_stride() {
        let near = gen_of(
            PatternKind::Planes {
                plane_bytes: 65536,
                plane: 0,
            },
            1 << 20,
            4,
        );
        let far = gen_of(
            PatternKind::Planes {
                plane_bytes: 65536,
                plane: 2,
            },
            1 << 20,
            4,
        );
        let a = near.lane_addr(&ctx(0, 0, 0, 0, 0)).unwrap();
        let b = far.lane_addr(&ctx(0, 0, 0, 0, 0)).unwrap();
        assert_eq!(b.0 - a.0, 131072);
    }

    #[test]
    fn shared_sweep_is_wg_phase_shifted() {
        let g = gen_of(PatternKind::SharedSweep { phase_bytes: 4096 }, 1 << 16, 4);
        let wg0 = g.lane_addr(&ctx(0, 0, 0, 2, 0)).unwrap();
        let wg1 = g.lane_addr(&ctx(1, 0, 0, 2, 0)).unwrap();
        assert_eq!((wg1.0 - wg0.0) % (1 << 16), 4096);
        // Wavefront index does not matter: all wfs of a wg share the sweep.
        let wf1 = g.lane_addr(&ctx(0, 1, 0, 2, 0)).unwrap();
        assert_eq!(wg0, wf1);
    }

    #[test]
    fn addresses_stay_inside_region() {
        let region = 4096;
        for kind in [
            PatternKind::Stream,
            PatternKind::LaggedStream { lag_bytes: 100 },
            PatternKind::Revisit { times: 2 },
            PatternKind::Planes {
                plane_bytes: 999,
                plane: 3,
            },
            PatternKind::SharedSweep { phase_bytes: 1000 },
        ] {
            let g = gen_of(kind, region, 64);
            for iter in 0..64 {
                for lane in [0u32, 13, 63] {
                    let a = g.lane_addr(&ctx(7, 1, lane, iter, 0)).unwrap();
                    assert!(a.0 < region, "{kind:?} escaped region: {a}");
                }
            }
        }
    }

    #[test]
    fn seq_stride_moves_with_launch() {
        let g = LayerGen::new(
            vec![PatternSpec {
                region: Region::new(0, 1 << 20),
                elem_bytes: 4,
                kind: PatternKind::Stream,
                seq_stride_bytes: 8192,
            }],
            1,
            1,
        );
        let mut c = ctx(0, 0, 0, 0, 0);
        let a = g.lane_addr(&c).unwrap();
        c.kernel_seq = 3;
        let b = g.lane_addr(&c).unwrap();
        assert_eq!(b.0 - a.0, 3 * 8192);
    }

    /// Picks `[lo, hi)` uniformly.
    fn between(r: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
        lo + r.next_below(hi - lo)
    }

    /// The closed form against its specification, lane by lane, on
    /// seeded cases built to sit on every edge the closed form has to
    /// decline: regions a few blocks (or less than one block) long with
    /// unaligned bases and sizes, so blocks straddle and wrap the modulo
    /// boundary; `ChunkReread` lags that are not block multiples, so the
    /// chunk wraps mid-block; `LaggedStream` lags aimed at the block's
    /// own position, so the lag saturates for some lanes and not others;
    /// nonzero launch strides. Order is part of the contract.
    #[test]
    fn closed_form_lines_match_lane_by_lane_on_seeded_cases() {
        const CASES: u64 = 12_000;
        let (mut contiguous, mut other) = (0u32, 0u32);
        for case in 0..CASES {
            let seed = 0x11E5_C0A1 ^ (case << 8);
            let r = &mut SplitMix64::new(seed);
            let eb = [4u64, 8][r.next_below(2) as usize];
            let block = 64 * eb;
            let iters = between(r, 1, 13);
            let wfs_per_wg = between(r, 1, 5);
            let ctx = AccessCtx {
                kernel_seq: r.next_below(5) as u32,
                wg: r.next_below(40) as u32,
                wf: r.next_below(wfs_per_wg) as u32,
                lane: r.next_below(64) as u32, // ignored by `lines_into`
                iter: r.next_below(iters) as u32,
                pattern: 0,
            };
            let seq_stride_bytes = if r.next_below(3) == 0 {
                0
            } else {
                r.next_below(10_000)
            };
            let region_bytes = match r.next_below(4) {
                0 => between(r, 1, block),         // shorter than one block
                1 => between(r, block, 6 * block), // a few blocks, unaligned
                2 => block * between(r, 1, 6),     // whole blocks
                _ => between(r, 1 << 16, 1 << 24), // wraps are rare
            };
            // The `Stream` position of this block, for aiming lags at it.
            let here = ((u64::from(ctx.wg) * wfs_per_wg + u64::from(ctx.wf)) * iters
                + u64::from(ctx.iter))
                * block
                + u64::from(ctx.kernel_seq) * seq_stride_bytes;
            let kind = match case % 6 {
                0 => PatternKind::Stream,
                1 => PatternKind::LaggedStream {
                    lag_bytes: match r.next_below(3) {
                        0 => between(r, 1, 4 * block),
                        // Saturates somewhere inside (or just around) the block.
                        1 => here + region_bytes + r.next_below(2 * block),
                        _ => r.next_below(4 * (here + region_bytes) + 2),
                    },
                },
                2 => PatternKind::Revisit {
                    times: r.next_below(5) as u32,
                },
                3 => PatternKind::Planes {
                    plane_bytes: between(r, 1, 3 * region_bytes + 2),
                    plane: r.next_below(4) as u32,
                },
                4 => PatternKind::SharedSweep {
                    phase_bytes: r.next_below(2 * region_bytes + 1),
                },
                _ => PatternKind::ChunkReread {
                    lag_bytes: r.next_below(2 * iters * block + 2),
                },
            };
            let g = LayerGen::new(
                vec![PatternSpec {
                    region: Region::new(r.next_below(1 << 20), region_bytes),
                    elem_bytes: eb as u32,
                    kind,
                    seq_stride_bytes,
                }],
                wfs_per_wg as u32,
                iters as u32,
            );
            let (mut closed, mut by_lane) = (vec![LineAddr(u64::MAX)], Vec::new());
            g.lines_into(&ctx, &mut closed);
            lines_by_lane(&g, &ctx, &mut by_lane);
            assert_eq!(
                closed, by_lane,
                "seed {seed:#x} (case {case}): {kind:?}, elem {eb} B, region {region_bytes} B, {ctx:?}"
            );
            if by_lane.windows(2).all(|w| w[1].0 == w[0].0 + 1) {
                contiguous += 1;
            } else {
                other += 1;
            }
        }
        // Both sides of the closed form's guard are exercised in bulk.
        assert!(
            contiguous > 2_000 && other > 2_000,
            "{contiguous} contiguous, {other} not"
        );
    }

    #[test]
    fn closed_form_declines_elements_wider_than_a_line() {
        // 128 B elements touch every other line; the range first..=last
        // would invent the lines in between.
        let g = LayerGen::new(
            vec![PatternSpec {
                region: Region::new(0, 1 << 20),
                elem_bytes: 128,
                kind: PatternKind::Stream,
                seq_stride_bytes: 0,
            }],
            1,
            1,
        );
        let mut lines = Vec::new();
        g.lines_into(&ctx(0, 0, 0, 0, 0), &mut lines);
        assert_eq!(lines.len(), 64);
        assert_eq!(lines[1], LineAddr(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_pattern_slot_panics() {
        let g = gen_of(PatternKind::Stream, 4096, 1);
        let _ = g.lane_addr(&ctx(0, 0, 0, 0, 9));
    }
}
