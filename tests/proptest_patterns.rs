//! Property tests on workload address patterns and the coalescer:
//! generated addresses stay inside their regions, and coalescing never
//! produces more requests than active lanes.

use miopt_engine::prop::{self, Case};
use miopt_engine::{Addr, LINE_BYTES};
use miopt_gpu::{coalesce, AccessCtx, AddrGen};
use miopt_workloads::patterns::{LayerGen, PatternKind, PatternSpec, Region};

fn kind(c: &mut Case) -> PatternKind {
    match c.below(5) {
        0 => PatternKind::Stream,
        1 => PatternKind::LaggedStream {
            lag_bytes: c.range(1..1 << 16),
        },
        2 => PatternKind::Revisit {
            times: c.range(1..8) as u32,
        },
        3 => PatternKind::Planes {
            plane_bytes: c.range(1..1 << 14),
            plane: c.below(8) as u32,
        },
        _ => PatternKind::SharedSweep {
            phase_bytes: c.range(1..1 << 14),
        },
    }
}

#[test]
fn addresses_stay_in_region() {
    prop::check("addresses_stay_in_region", 128, |c| {
        let kind = kind(c);
        let region = Region::new(4096, c.range(1..256) * 1024);
        let gen = LayerGen::new(
            vec![PatternSpec {
                region,
                elem_bytes: c.pick(&[4, 8, 16]),
                kind,
                seq_stride_bytes: c.below(8192),
            }],
            4,
            64,
        );
        let ctx = AccessCtx {
            kernel_seq: c.below(400) as u32,
            wg: c.below(1000) as u32,
            wf: c.below(4) as u32,
            lane: c.below(64) as u32,
            iter: c.below(64) as u32,
            pattern: 0,
        };
        let addr = gen.lane_addr(&ctx).expect("patterns are always active");
        assert!(addr.0 >= region.base);
        assert!(addr.0 < region.base + region.bytes);
    });
}

#[test]
fn dense_lanes_coalesce_tightly() {
    prop::check("dense_lanes_coalesce_tightly", 128, |c| {
        let base = c.below(1 << 30);
        let elem_bytes = c.pick(&[4u64, 8, 16]);
        // 64 dense lanes of elem_bytes each touch exactly
        // 64 * elem_bytes / 64 lines when base is line-aligned.
        let aligned = base / LINE_BYTES * LINE_BYTES;
        let lines = coalesce((0..64u64).map(|l| Some(Addr(aligned + l * elem_bytes))));
        assert_eq!(lines.len() as u64, 64 * elem_bytes / LINE_BYTES);
    });
}

#[test]
fn coalesced_count_bounded_by_active_lanes() {
    prop::check("coalesced_count_bounded_by_active_lanes", 128, |c| {
        let addrs: Vec<Option<u64>> = (0..64)
            .map(|_| c.bool().then(|| c.below(1 << 24)))
            .collect();
        let active = addrs.iter().filter(|a| a.is_some()).count();
        let lines = coalesce(addrs.into_iter().map(|a| a.map(Addr)));
        assert!(lines.len() <= active);
        // No duplicate lines.
        let mut sorted: Vec<_> = lines.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), lines.len());
    });
}

#[test]
fn revisit_touches_each_position_times_times() {
    prop::check("revisit_touches_each_position_times_times", 128, |c| {
        let times = c.range(1..6) as u32;
        let region = Region::new(0, 1 << 20);
        let iters = times * 8;
        let gen = LayerGen::new(
            vec![PatternSpec {
                region,
                elem_bytes: 4,
                kind: PatternKind::Revisit { times },
                seq_stride_bytes: 0,
            }],
            1,
            iters,
        );
        let mut positions = Vec::new();
        for iter in 0..iters {
            let ctx = AccessCtx {
                kernel_seq: 0,
                wg: 0,
                wf: 0,
                lane: 0,
                iter,
                pattern: 0,
            };
            positions.push(gen.lane_addr(&ctx).unwrap().0);
        }
        for chunk in positions.chunks(times as usize) {
            assert!(
                chunk.iter().all(|p| *p == chunk[0]),
                "chunk not constant: {chunk:?}"
            );
        }
    });
}
