//! Property tests on the cache model: for arbitrary request
//! sequences and policies, the cache must answer every load exactly once,
//! never lose a store, and keep its statistics consistent.

use miopt_cache::{Blocked, CacheConfig, CacheUnit, LevelPolicy, Outcome, PredictorConfig, RowMap};
use miopt_engine::prop::{self, Case};
use miopt_engine::{AccessKind, Cycle, LineAddr, MemReq, MemResp, Origin, Pc, ReqId, TimedQueue};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Req {
    line: u64,
    is_store: bool,
    pc: u32,
}

/// Up to `max` requests, each `Req` drawn by `req`.
fn requests(c: &mut Case, max: usize, req: impl Fn(&mut Case) -> Req) -> Vec<Req> {
    (0..c.steps(1..max)).map(|_| req(c)).collect()
}

fn policy(c: &mut Case) -> LevelPolicy {
    let (enabled, stores, ab, rinse, pcby) = (c.bool(), c.bool(), c.bool(), c.bool(), c.bool());
    LevelPolicy {
        enabled,
        cache_loads: enabled,
        cache_stores: enabled && stores,
        allocation_bypass: ab,
        rinse: enabled && stores && rinse,
        pc_bypass: pcby.then(PredictorConfig::paper),
        row_map: (enabled && stores && rinse).then(|| RowMap::new(2)),
        partition: None,
    }
}

/// Drives a request sequence through a cache with an "ideal memory" below
/// it (every forwarded load is answered after a fixed delay), and checks
/// end-to-end invariants.
fn drive(policy: LevelPolicy, reqs: Vec<Req>) {
    let mut cache = CacheUnit::new(CacheConfig::tiny_test(), policy, 0);
    let mut down: TimedQueue<MemReq> = TimedQueue::new(16, 1);
    let mut up: TimedQueue<MemResp> = TimedQueue::new(16, 1);
    let mut memory: Vec<(Cycle, MemResp)> = Vec::new(); // pending "DRAM" responses
    let mut outstanding: HashMap<u64, u64> = HashMap::new(); // load id -> count
    let mut answered: HashMap<u64, u64> = HashMap::new();
    let mut loads_issued = 0u64;

    let mut pending: std::collections::VecDeque<(u64, Req)> = reqs
        .into_iter()
        .enumerate()
        .map(|(i, r)| (i as u64, r))
        .collect();
    let mut now = Cycle(0);
    let mut idle_cycles = 0;
    loop {
        // Feed one request per cycle if the cache accepts it.
        if let Some((id, r)) = pending.front().cloned() {
            let mem_req = MemReq {
                id: ReqId(id),
                line: LineAddr(r.line),
                is_store: r.is_store,
                kind: AccessKind::Cached,
                pc: Pc(r.pc),
                origin: Origin::Wavefront { cu: 0, slot: 0 },
                issue_cycle: now,
            };
            match cache.access(now, mem_req, &mut down, &mut up) {
                Ok(outcome) => {
                    pending.pop_front();
                    if !r.is_store {
                        loads_issued += 1;
                        *outstanding.entry(id).or_default() += 1;
                    }
                    // Hits answer immediately via `up`; everything else via
                    // fills or silently (stores).
                    match outcome {
                        Outcome::Hit
                        | Outcome::Merged
                        | Outcome::MissForwarded
                        | Outcome::BypassForwarded
                        | Outcome::StoreAbsorbed
                        | Outcome::StoreForwarded => {}
                    }
                }
                Err(
                    Blocked::MshrFull
                    | Blocked::SetBusy
                    | Blocked::MergeFull
                    | Blocked::OutQueueFull
                    | Blocked::RespQueueFull
                    | Blocked::PortBusy,
                ) => {}
            }
        }

        // "DRAM": consume forwarded requests, schedule responses for loads.
        while let Some(fwd) = down.pop_ready(now) {
            if fwd.wants_response() {
                memory.push((now + 20, MemResp::for_req(&fwd)));
            }
        }
        // Deliver due memory responses as fills (up may be full: retry
        // next cycle).
        let mut i = 0;
        while i < memory.len() {
            if memory[i].0 <= now {
                let (_, resp) = memory[i];
                if cache.fill(now, resp, &mut up).is_ok() {
                    memory.swap_remove(i);
                    continue;
                }
            }
            i += 1;
        }
        // Collect answers.
        while let Some(resp) = up.pop_ready(now) {
            *answered.entry(resp.id.0).or_default() += 1;
        }

        let done = pending.is_empty()
            && memory.is_empty()
            && !cache.busy()
            && down.is_empty()
            && up.is_empty();
        if done {
            idle_cycles += 1;
            if idle_cycles > 64 {
                break;
            }
        } else {
            idle_cycles = 0;
        }
        now += 1;
        assert!(now.0 < 1_000_000, "cache test did not converge");
    }

    // Every load answered exactly once.
    assert_eq!(answered.len() as u64, loads_issued, "missing/extra answers");
    for (id, n) in &answered {
        assert_eq!(*n, 1, "load {id} answered {n} times");
        assert!(outstanding.contains_key(id));
    }
    // Stats consistency.
    let s = cache.stats();
    let load_events =
        s.load_hits.get() + s.load_merges.get() + s.load_misses.get() + s.load_bypasses.get();
    assert_eq!(load_events, loads_issued, "load accounting");
}

#[test]
fn all_loads_answered_exactly_once() {
    prop::check("all_loads_answered_exactly_once", 64, |c| {
        let policy = policy(c);
        let reqs = requests(c, 200, |c| Req {
            line: c.below(32),
            is_store: c.bool(),
            pc: c.below(8) as u32,
        });
        drive(policy, reqs);
    });
}

#[test]
fn hot_set_conflicts_never_lose_requests() {
    prop::check("hot_set_conflicts_never_lose_requests", 64, |c| {
        let policy = policy(c);
        // All lines map to set 0 of the 4-set tiny cache: maximal
        // allocation blocking.
        let reqs = requests(c, 150, |c| Req {
            line: c.below(8) * 4,
            is_store: c.bool(),
            pc: 1,
        });
        drive(policy, reqs);
    });
}

#[test]
fn single_line_hammering_is_stable() {
    prop::check("single_line_hammering_is_stable", 64, |c| {
        let policy = policy(c);
        let reqs = requests(c, 100, |c| Req {
            line: 7,
            is_store: c.bool(),
            pc: 2,
        });
        drive(policy, reqs);
    });
}
