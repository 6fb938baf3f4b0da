//! Property tests on the DRAM model: arbitrary request streams must
//! drain completely, answer every read exactly once, and keep row-buffer
//! accounting consistent.

use miopt_dram::{Dram, DramConfig};
use miopt_engine::prop::{self, Case};
use miopt_engine::{AccessKind, Cycle, LineAddr, MemReq, Origin, Pc, ReqId};
use std::collections::HashSet;

/// Up to `max` requests `(line below lines, is_store)`.
fn requests(c: &mut Case, lines: u64, max: usize) -> Vec<(u64, bool)> {
    (0..c.steps(1..max))
        .map(|_| (c.below(lines), c.bool()))
        .collect()
}

fn drive(cfg: DramConfig, reqs: Vec<(u64, bool)>) {
    let mut dram = Dram::new(cfg);
    let n_reads = reqs.iter().filter(|(_, s)| !s).count() as u64;
    let n_writes = reqs.len() as u64 - n_reads;
    let mut pending: std::collections::VecDeque<MemReq> = reqs
        .into_iter()
        .enumerate()
        .map(|(i, (line, is_store))| MemReq {
            id: ReqId(i as u64),
            line: LineAddr(line),
            is_store,
            kind: AccessKind::Bypass,
            pc: Pc(0),
            origin: if is_store {
                Origin::Internal
            } else {
                Origin::Wavefront { cu: 0, slot: 0 }
            },
            issue_cycle: Cycle(0),
        })
        .collect();

    let mut answered: HashSet<u64> = HashSet::new();
    let mut now = Cycle(0);
    while !pending.is_empty() || dram.busy() {
        if let Some(&front) = pending.front() {
            if dram.push(now, front).is_ok() {
                pending.pop_front();
            }
        }
        dram.tick(now);
        while let Some(resp) = dram.pop_response(now) {
            assert!(answered.insert(resp.id.0), "duplicate response {resp:?}");
        }
        now += 1;
        assert!(now.0 < 10_000_000, "dram did not drain");
    }

    assert_eq!(answered.len() as u64, n_reads, "every read answered once");
    let s = dram.stats();
    assert_eq!(s.reads.get(), n_reads);
    assert_eq!(s.writes.get(), n_writes);
    assert_eq!(
        s.row_hits.total(),
        n_reads + n_writes,
        "every burst classified"
    );
    assert_eq!(
        s.row_hits.total() - s.row_hits.hits(),
        s.row_closed.get() + s.row_conflicts.get(),
        "misses split into closed and conflict"
    );
    let r = s.row_hits.value();
    assert!((0.0..=1.0).contains(&r));
}

#[test]
fn random_traffic_drains() {
    prop::check("random_traffic_drains", 48, |c| {
        drive(DramConfig::tiny_test(), requests(c, 4096, 300));
    });
}

#[test]
fn single_bank_hammering_drains() {
    prop::check("single_bank_hammering_drains", 48, |c| {
        // All requests to channel 0, alternating a handful of rows.
        let cfg = DramConfig::tiny_test();
        let stride = u64::from(cfg.channels) * cfg.lines_per_row * u64::from(cfg.banks);
        let mapped = requests(c, 4, 200)
            .into_iter()
            .map(|(r, s)| (r * stride, s))
            .collect();
        drive(cfg, mapped);
    });
}

#[test]
fn sequential_streams_hit_rows() {
    prop::check("sequential_streams_hit_rows", 48, |c| {
        let n = c.range(64..512);
        let mut dram = Dram::new(DramConfig::tiny_test());
        let mut pushed = 0u64;
        let mut now = Cycle(0);
        while pushed < n || dram.busy() {
            if pushed < n {
                let req = MemReq::writeback(ReqId(pushed), LineAddr(pushed), now);
                if dram.push(now, req).is_ok() {
                    pushed += 1;
                }
            }
            dram.tick(now);
            while dram.pop_response(now).is_some() {}
            now += 1;
            assert!(now.0 < 1_000_000);
        }
        // A pure sequential stream must be row-hit dominated.
        assert!(
            dram.stats().row_hits.value() > 0.7,
            "row hit ratio {} too low",
            dram.stats().row_hits.value()
        );
    });
}
