//! Component micro-kernels: each times a seeded loop of at least 10^5
//! calls into one layer's public functions, from outside, and reports
//! the cost of one call. Every kernel runs three times and keeps the
//! fastest, for the same reason `host_s` keeps the minimum.
//!
//! They run in every traced run, whatever the workload: a layer's unit
//! cost does not depend on which workload asked for the trace, and one
//! list is simpler than four.

use crate::estimator::min;
use crate::metric::Layers;
use miopt::runner::{run_one_with, RunOptions};
use miopt::{CachePolicy, OptimizationSet, PolicyConfig, SystemConfig};
use miopt_cache::{CacheUnit, DirtyBlockIndex, LevelPolicy, PcPredictor, PredictorConfig};
use miopt_dram::{Dram, DramLoc};
use miopt_engine::rng::SplitMix64;
use miopt_engine::{
    AccessKind, Addr, Arena, Cycle, EventWheel, HandleFifo, LineAddr, MemReq, MemResp, Origin, Pc,
    ReqId, TimedQueue,
};
use miopt_gpu::{coalesce_into, AccessCtx, CuConfig, Gpu, KernelDesc, KernelProgram, Op};
use miopt_harness::{run_sweep, JournalWriter, Json, ResultCache, SweepOptions};
use miopt_noc::Crossbar;
use miopt_serve::ArrivalSchedule;
use miopt_store::{Durability, StoreOptions, Wal};
use miopt_telemetry::LatencyHistogram;
use miopt_workloads::{by_name, SuiteConfig};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const CALLS: u64 = 100_000;

/// Fastest of three runs of `f`, which returns `(nanoseconds, calls)`.
fn fastest(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let per_call: Vec<f64> = (0..3)
        .map(|_| {
            let (ns, calls) = f();
            ns / calls as f64
        })
        .collect();
    min(&per_call)
}

/// Times `f` as a whole, in nanoseconds.
fn nanos(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// Cost of one clock read, measured the way the in-tree profiler pays
/// it twice per dispatch: `Instant::now()`, then `elapsed()` on it.
pub fn timer_ns() -> f64 {
    fastest(|| {
        let ns = nanos(|| {
            for _ in 0..CALLS {
                let clock = Instant::now();
                black_box(clock.elapsed().as_nanos());
            }
        });
        (ns, 2 * CALLS)
    })
}

fn load(id: u64, line: u64) -> MemReq {
    MemReq {
        id: ReqId(id),
        line: LineAddr(line),
        is_store: false,
        kind: AccessKind::Cached,
        pc: Pc((id % 13) as u32),
        origin: Origin::Wavefront { cu: 0, slot: 0 },
        issue_cycle: Cycle(0),
    }
}

fn engine(seed: u64, l: &mut Layers) {
    // Insert + pop pairs with a handful of wakeups pending, as in a
    // running system. `far` places every wakeup beyond the ring window,
    // on the ordered-map overflow path.
    let wheel = |far: bool| {
        fastest(|| {
            let mut rng = SplitMix64::new(seed);
            let gap = |rng: &mut SplitMix64| {
                if far {
                    EventWheel::WINDOW + rng.next_below(1 << 16)
                } else {
                    1 + rng.next_below(256)
                }
            };
            let mut w = EventWheel::new();
            for id in 0..8 {
                w.insert(Cycle(gap(&mut rng)), id);
            }
            let mut inserted = 0;
            let ns = nanos(|| {
                while inserted < CALLS {
                    let (t, mut ids) = w.pop_next().expect("wakeups stay pending");
                    while ids != 0 {
                        let id = ids.trailing_zeros() as u8;
                        ids &= ids - 1;
                        w.insert(Cycle(t.0 + gap(&mut rng)), id);
                        inserted += 1;
                    }
                }
            });
            (ns, inserted)
        })
    };
    l.set("engine.wheel_near_ns", wheel(false));
    l.set("engine.wheel_far_ns", wheel(true));

    l.set(
        "engine.arena_ns",
        fastest(|| {
            let mut rng = SplitMix64::new(seed);
            let mut arena = Arena::with_capacity(64);
            let mut live: Vec<_> = (0..64u64).map(|v| arena.insert(v)).collect();
            let ns = nanos(|| {
                for _ in 0..CALLS {
                    let slot = rng.next_below(64) as usize;
                    let v = arena.remove(live[slot]);
                    live[slot] = arena.insert(v + 1);
                }
            });
            black_box(&arena);
            (ns, CALLS)
        }),
    );

    l.set(
        "engine.fifo_ns",
        fastest(|| {
            let mut arena = Arena::with_capacity(32);
            let mut fifo = HandleFifo::new();
            for i in 0..16 {
                let h = arena.insert(load(i, i));
                fifo.push_back(&mut arena, h);
            }
            let ns = nanos(|| {
                for i in 0..CALLS {
                    let h = arena.insert(load(i, i ^ seed));
                    fifo.push_back(&mut arena, h);
                    black_box(fifo.pop_value(&mut arena));
                }
            });
            (ns, CALLS)
        }),
    );

    l.set(
        "engine.timedqueue_ns",
        fastest(|| {
            let mut q = TimedQueue::new(64, 4);
            let ns = nanos(|| {
                for now in 0..CALLS {
                    q.push(Cycle(now), load(now, now ^ seed))
                        .expect("one in, one out");
                    black_box(q.pop_ready(Cycle(now)));
                }
            });
            (ns, CALLS)
        }),
    );
}

fn gpu(seed: u64, l: &mut Layers) {
    // A streaming kernel on the paper's 64 CUs against an ideal memory:
    // every load is answered a fixed 100 cycles after it was issued.
    const BODY: [Op; 4] = [
        Op::Load { pattern: 0 },
        Op::Valu { count: 4 },
        Op::WaitCnt { max: 0 },
        Op::Store { pattern: 1 },
    ];
    const ITERS: u32 = 8;
    const WGS: u32 = 1024;
    const WFS_PER_WG: u32 = 4;
    l.set(
        "gpu.tick_ns_per_wf_op",
        fastest(|| {
            let base = SplitMix64::new(seed).next_below(1 << 20) << 12;
            let desc = KernelDesc {
                name: "micro-stream".to_string(),
                template_id: 1,
                wgs: WGS,
                wfs_per_wg: WFS_PER_WG,
                program: KernelProgram::new(BODY.to_vec(), ITERS),
                gen: Arc::new(move |c: &AccessCtx| {
                    let wf = u64::from(c.wg * WFS_PER_WG + c.wf);
                    let row =
                        (wf * u64::from(ITERS) + u64::from(c.iter)) * 2 + u64::from(c.pattern);
                    Some(Addr(base + row * 256 + u64::from(c.lane) * 4))
                }),
            };
            let mut gpu = Gpu::new(64, CuConfig::paper());
            let mut l1_ins: Vec<TimedQueue<MemReq>> =
                (0..64).map(|_| TimedQueue::new(64, 100)).collect();
            gpu.start_kernel(Arc::new(desc), 0);
            let mut now = Cycle(0);
            let mut nonempty = 0u64;
            let ns = nanos(|| {
                while !gpu.kernel_done() || nonempty != 0 {
                    let (_, acted) = gpu.tick_tracked(now, &mut l1_ins);
                    nonempty |= acted;
                    let mut scan = nonempty;
                    while scan != 0 {
                        let cu = scan.trailing_zeros() as usize;
                        scan &= scan - 1;
                        while let Some(req) = l1_ins[cu].pop_ready(now) {
                            if !req.is_store {
                                gpu.on_response(MemResp::for_req(&req));
                            }
                        }
                        if l1_ins[cu].is_empty() {
                            nonempty &= !(1 << cu);
                        }
                    }
                    now += 1;
                }
            });
            let wf_ops = u64::from(WGS * WFS_PER_WG) * u64::from(ITERS) * BODY.len() as u64;
            (ns, wf_ops)
        }),
    );

    l.set(
        "gpu.coalesce_ns",
        fastest(|| {
            let mut rng = SplitMix64::new(seed);
            let mut out = Vec::with_capacity(64);
            let ns = nanos(|| {
                for i in 0..CALLS {
                    let base = rng.next_below(1 << 30) << 6;
                    let stride = [4, 64, 256][(i % 3) as usize];
                    coalesce_into(
                        (0..64u64).map(|lane| Some(Addr(base + lane * stride))),
                        &mut out,
                    );
                    black_box(&out);
                }
            });
            (ns, CALLS)
        }),
    );
}

/// A cache unit with its queues: `access` a load, pop what it forwarded,
/// answer it, drain the responses.
struct CacheRig {
    unit: CacheUnit,
    down: TimedQueue<MemReq>,
    up: TimedQueue<MemResp>,
    now: Cycle,
}

impl CacheRig {
    fn new(cfg: miopt_cache::CacheConfig, policy: LevelPolicy) -> CacheRig {
        CacheRig {
            unit: CacheUnit::new(cfg, policy, 0),
            down: TimedQueue::new(64, 0),
            up: TimedQueue::new(64, 0),
            now: Cycle(0),
        }
    }

    /// One load, start to finish: a miss or bypass is answered at once.
    fn load(&mut self, id: u64, line: u64) {
        self.now += 1;
        self.unit
            .access(self.now, load(id, line), &mut self.down, &mut self.up)
            .expect("an idle cache accepts a load");
        while let Some(fwd) = self.down.pop_ready(self.now) {
            if fwd.wants_response() {
                self.unit
                    .fill(self.now, MemResp::for_req(&fwd), &mut self.up)
                    .expect("the response queue was drained");
            }
        }
        while let Some(resp) = self.up.pop_ready(self.now) {
            black_box(resp);
        }
    }
}

fn cache(seed: u64, l: &mut Layers) {
    let cfg = SystemConfig::paper_table1();
    let l2_policy = PolicyConfig::of(CachePolicy::CacheRW).l2_policy(cfg.row_map());

    l.set(
        "cache.access_hit_ns",
        fastest(|| {
            let mut rng = SplitMix64::new(seed);
            let mut rig = CacheRig::new(cfg.l2.clone(), l2_policy.clone());
            let resident = 1024;
            for line in 0..resident {
                rig.load(line, line);
            }
            let ns = nanos(|| {
                for i in 0..CALLS {
                    rig.load(i, rng.next_below(resident));
                }
            });
            assert_eq!(rig.unit.stats().load_hits.get(), CALLS, "every load hits");
            (ns, CALLS)
        }),
    );

    l.set(
        "cache.access_miss_fill_ns",
        fastest(|| {
            // Never the same line twice: every load misses, is filled,
            // and from the first full set on evicts a clean line.
            let mut rig = CacheRig::new(cfg.l2.clone(), l2_policy.clone());
            let base = SplitMix64::new(seed).next_below(1 << 20) << 20;
            let ns = nanos(|| {
                for i in 0..CALLS {
                    rig.load(i, base + i);
                }
            });
            assert_eq!(
                rig.unit.stats().load_misses.get(),
                CALLS,
                "every load misses"
            );
            (ns, CALLS)
        }),
    );

    l.set(
        "cache.access_bypass_ns",
        fastest(|| {
            let mut rng = SplitMix64::new(seed);
            let mut rig = CacheRig::new(cfg.l2.clone(), LevelPolicy::disabled());
            let ns = nanos(|| {
                for i in 0..CALLS {
                    rig.load(i, rng.next_below(1 << 30));
                }
            });
            (ns, CALLS)
        }),
    );

    l.set(
        "cache.dbi_insert_rinse_ns",
        fastest(|| {
            // Dirty lines scattered over four times as many rows as the
            // index tracks, so most inserts evict a row to rinse.
            let mut rng = SplitMix64::new(seed);
            let map = cfg.row_map();
            let mut dbi = DirtyBlockIndex::new(cfg.l2.dbi_rows.max(1), map);
            let span = (cfg.l2.dbi_rows.max(1) * 4 * map.lines_per_row()) as u64;
            let mut rinse = Vec::with_capacity(64);
            let ns = nanos(|| {
                for _ in 0..CALLS {
                    rinse.clear();
                    black_box(dbi.insert_into(LineAddr(rng.next_below(span)), &mut rinse));
                }
            });
            (ns, CALLS)
        }),
    );

    l.set(
        "cache.predictor_ns",
        fastest(|| {
            let mut rng = SplitMix64::new(seed);
            let mut p = PcPredictor::new(PredictorConfig::paper());
            let ns = nanos(|| {
                for _ in 0..CALLS {
                    let r = rng.next_u64();
                    let pc = Pc((r >> 8) as u32 & 0xFFFF);
                    black_box(p.should_cache(pc));
                    if r & 1 == 0 {
                        p.train_reuse(pc);
                    } else {
                        p.train_no_reuse(pc);
                    }
                }
            });
            (ns, CALLS)
        }),
    );

    l.set(
        "cache.self_invalidate_us",
        fastest(|| {
            // A full L1, flash-invalidated as at every kernel boundary.
            // Only the invalidation is timed; the refill is not.
            let l1_policy = PolicyConfig::of(CachePolicy::CacheR).l1_policy();
            let mut rig = CacheRig::new(cfg.l1.clone(), l1_policy);
            let lines = cfg.l1.lines() as u64;
            let rounds = 200;
            let mut ns = 0.0;
            for round in 0..rounds {
                for line in 0..lines {
                    rig.load(line, (round + seed % 7) * lines + line);
                }
                ns += nanos(|| rig.unit.self_invalidate());
            }
            (ns / 1e3, rounds)
        }),
    );
}

fn dram(seed: u64, l: &mut Layers) {
    let cfg = SystemConfig::paper_table1().dram;
    // Keeps every channel fed from `next_line` and ticks until `served`
    // responses have come back.
    let drive = |mut next_line: Box<dyn FnMut() -> LineAddr>, served: u64| {
        let mut dram = Dram::new(cfg.clone());
        let mut pending = MemReq {
            line: next_line(),
            ..load(0, 0)
        };
        let (mut now, mut done, mut id) = (Cycle(0), 0, 0);
        let ns = nanos(|| {
            while done < served {
                for _ in 0..4 {
                    if dram.push(now, pending).is_err() {
                        break;
                    }
                    id += 1;
                    pending = MemReq {
                        line: next_line(),
                        ..load(id, 0)
                    };
                }
                dram.tick(now);
                let mut cursor = 0;
                while let Some(resp) = dram.pop_response_from(now, &mut cursor) {
                    black_box(resp);
                    done += 1;
                }
                now += 1;
            }
        });
        (ns, done)
    };

    l.set(
        "dram.rowhit_ns_per_req",
        fastest(|| {
            // Consecutive lines: whole-row bursts, channel after channel.
            let mut line = SplitMix64::new(seed).next_below(1 << 20) << 10;
            drive(
                Box::new(move || {
                    line += 1;
                    LineAddr(line)
                }),
                CALLS,
            )
        }),
    );

    l.set(
        "dram.conflict_ns_per_req",
        fastest(|| {
            // A random row of a random bank every time: almost every
            // request closes one row and opens another.
            let mut rng = SplitMix64::new(seed);
            let map = Dram::new(cfg.clone()).map().clone();
            let (channels, banks) = (u64::from(cfg.channels), u64::from(cfg.banks));
            drive(
                Box::new(move || {
                    map.line_of(DramLoc {
                        channel: rng.next_below(channels) as u16,
                        bank: rng.next_below(banks) as u16,
                        row: rng.next_below(1 << 12),
                        column: 0,
                    })
                }),
                CALLS,
            )
        }),
    );

    l.set(
        "dram.idle_tick_ns",
        fastest(|| {
            let mut dram = Dram::new(cfg.clone());
            let ns = nanos(|| {
                for now in 0..CALLS {
                    black_box(dram.tick(Cycle(now)));
                }
            });
            (ns, CALLS)
        }),
    );
}

fn noc(seed: u64, l: &mut Layers) {
    let cfg = SystemConfig::paper_table1();
    let (inputs, outputs) = (cfg.n_cus, cfg.l2_slices);
    let route = move |r: &MemReq| (r.line.0 % outputs as u64) as usize;

    l.set(
        "noc.xbar_dense_tick_ns",
        fastest(|| {
            // Every input has a ready head on every tick; the outputs
            // never fill, so only their per-cycle budget blocks. Inputs
            // are refilled between timed stretches.
            let mut rng = SplitMix64::new(seed);
            let mut xbar = Crossbar::new(inputs, outputs, cfg.xbar_per_output);
            let depth = 256;
            let mut ins: Vec<TimedQueue<MemReq>> =
                (0..inputs).map(|_| TimedQueue::new(depth, 0)).collect();
            let mut outs: Vec<TimedQueue<MemReq>> =
                (0..outputs).map(|_| TimedQueue::new(1 << 20, 0)).collect();
            let (mut now, mut ticks, mut ns) = (0, 0, 0.0);
            while ticks < CALLS {
                for q in &mut ins {
                    while q.can_push() {
                        q.push(Cycle(now), load(now, rng.next_u64() >> 8))
                            .expect("checked can_push");
                    }
                }
                for q in &mut outs {
                    q.drain_all().for_each(drop);
                }
                let mut pending = u64::MAX;
                ns += nanos(|| {
                    // Stop while every input still has a head: the
                    // shallowest one loses at most one per tick.
                    for _ in 0..depth / 2 {
                        black_box(xbar.tick_tracked_masked(
                            Cycle(now),
                            &mut pending,
                            &mut ins,
                            &mut outs,
                            route,
                        ));
                        now += 1;
                        ticks += 1;
                    }
                });
            }
            (ns, ticks)
        }),
    );

    l.set(
        "noc.xbar_sparse_tick_ns",
        fastest(|| {
            // One of the 64 inputs has a message: the masked scan visits
            // that one queue.
            let mut rng = SplitMix64::new(seed);
            let mut xbar = Crossbar::new(inputs, outputs, cfg.xbar_per_output);
            let mut ins: Vec<TimedQueue<MemReq>> =
                (0..inputs).map(|_| TimedQueue::new(4, 0)).collect();
            let mut outs: Vec<TimedQueue<MemReq>> =
                (0..outputs).map(|_| TimedQueue::new(4, 0)).collect();
            let mut pending = 0u64;
            let ns = nanos(|| {
                for now in 0..CALLS {
                    let r = rng.next_u64();
                    let port = (r % inputs as u64) as usize;
                    let req = load(now, r >> 8);
                    let out = route(&req);
                    ins[port].push(Cycle(now), req).expect("input was drained");
                    pending |= 1 << port;
                    black_box(xbar.tick_tracked_masked(
                        Cycle(now),
                        &mut pending,
                        &mut ins,
                        &mut outs,
                        route,
                    ));
                    black_box(outs[out].pop_ready(Cycle(now)));
                }
            });
            (ns, CALLS)
        }),
    );
}

fn telemetry(seed: u64, smoke: bool, l: &mut Layers) {
    let filled = |seed: u64| {
        let mut rng = SplitMix64::new(seed);
        let mut h = LatencyHistogram::new();
        for _ in 0..10_000 {
            let magnitude = 8 + rng.next_below(16);
            h.record(rng.next_below(1 << magnitude));
        }
        h
    };
    l.set(
        "telemetry.hist_record_ns",
        fastest(|| {
            let mut rng = SplitMix64::new(seed);
            let mut h = LatencyHistogram::new();
            let ns = nanos(|| {
                for _ in 0..CALLS {
                    h.record(rng.next_u64() >> 40);
                }
            });
            black_box(h.count());
            (ns, CALLS)
        }),
    );
    let merges = CALLS / 10;
    l.set(
        "telemetry.hist_merge_ns",
        fastest(|| {
            let (mut whole, shard) = (filled(seed), filled(seed + 1));
            let ns = nanos(|| {
                for _ in 0..merges {
                    whole.merge(black_box(&shard));
                }
            });
            black_box(whole.count());
            (ns, merges)
        }),
    );
    l.set(
        "telemetry.hist_quantile_ns",
        fastest(|| {
            let h = filled(seed);
            let ns = nanos(|| {
                for i in 0..merges {
                    black_box(h.quantile([0.5, 0.95, 0.99][(i % 3) as usize]));
                }
            });
            (ns, merges)
        }),
    );

    // One latency-bound case with the epoch sampler on and off, taking
    // turns; the share is the "zero cost when off" pin.
    let suite = if smoke {
        SuiteConfig::quick()
    } else {
        SuiteConfig::paper()
    };
    let cfg = SystemConfig::paper_table1();
    let input = by_name(&suite, "FwGRU").expect("a Table 2 workload name");
    let policy = crate::sim::policy(CachePolicy::CacheRW, OptimizationSet::ab_cr_pcby());
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..if smoke { 1 } else { 3 } {
        for (interval, times) in [(None, &mut off), (Some(100_000), &mut on)] {
            let opts = RunOptions {
                telemetry_interval: interval,
                ..RunOptions::default()
            };
            times.push(nanos(|| {
                black_box(run_one_with(&cfg, &input, policy, &opts).expect("the case finishes"));
            }));
        }
    }
    l.set(
        "telemetry.sampling_overhead_share",
        min(&on) / min(&off) - 1.0,
    );
}

fn serve(seed: u64, l: &mut Layers) {
    let schedules = CALLS / 5;
    l.set(
        "serve.arrival_expand_us",
        fastest(|| {
            let ns = nanos(|| {
                for i in 0..schedules {
                    black_box(ArrivalSchedule::poisson(seed ^ i, 5000.0, 24));
                }
            });
            (ns / 1e3, schedules)
        }),
    );
}

fn store(seed: u64, dir: &Path, l: &mut Layers) {
    let payload: Vec<u8> = {
        let mut rng = SplitMix64::new(seed);
        (0..200).map(|_| rng.next_u64() as u8).collect()
    };
    let fresh = |name: &str, opts: StoreOptions| {
        let dir = dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Wal::open(&dir, opts).expect("a fresh store opens").wal
    };
    // Appends per durability level. An fsync costs about a millisecond,
    // so the per-record level gets fewer of them.
    let append = |name: &str, durability: Durability, records: u64| {
        let wal = fresh(
            name,
            StoreOptions {
                durability,
                ..StoreOptions::default()
            },
        );
        let ns = nanos(|| {
            for _ in 0..records {
                wal.append(&payload).expect("append succeeds");
            }
        });
        ns / 1e3 / records as f64
    };
    l.set(
        "store.append_never_us",
        append("never", Durability::Never, CALLS / 5),
    );
    l.set(
        "store.append_batch_us",
        append("batch", Durability::PerBatch(32), CALLS / 50),
    );
    l.set(
        "store.append_per_record_us",
        append("per-record", Durability::PerRecord, 100),
    );

    // Recovery of 1 000 records spread over sealed segments, then
    // folding those segments into a snapshot.
    let opts = StoreOptions {
        durability: Durability::Never,
        segment_bytes: 16 * 1024,
    };
    let wal = fresh("recover", opts);
    for _ in 0..1000 {
        wal.append(&payload).expect("append succeeds");
    }
    drop(wal);
    let t0 = Instant::now();
    let opened = Wal::open(&dir.join("recover"), opts).expect("the store recovers");
    l.set("store.open_recover_ms", t0.elapsed().as_secs_f64() * 1e3);
    assert_eq!(opened.records.len(), 1000, "every record recovered");
    let t0 = Instant::now();
    opened.wal.compact().expect("compaction succeeds");
    l.set("store.compact_ms", t0.elapsed().as_secs_f64() * 1e3);
}

fn harness(dir: &Path, l: &mut Layers) {
    // Real records to write: a six-job softmax grid (about 40 ms).
    let spec = crate::sweep::spec_of(&["FwSoft"]);
    let run = run_sweep(&spec, "micro", &SweepOptions::default());
    let results = run.results(&spec).expect("the softmax jobs finish");
    let jobs = spec.jobs();
    let dir = dir.join("harness");
    let _ = std::fs::remove_dir_all(&dir);

    let appends = 60;
    let journal = JournalWriter::create(&dir, "micro", &spec).expect("a fresh journal opens");
    let ns = nanos(|| {
        for i in 0..appends {
            journal
                .append(&run.report.jobs[i % jobs.len()])
                .expect("append succeeds");
        }
    });
    l.set("harness.journal_append_us", ns / 1e3 / appends as f64);

    let cache = ResultCache::new(dir.join("cache"));
    let rounds = 100;
    let ns = nanos(|| {
        for i in 0..rounds {
            let k = i % jobs.len();
            cache
                .store(&spec, &jobs[k], &results[k])
                .expect("store succeeds");
        }
    });
    l.set("harness.cache_store_us", ns / 1e3 / rounds as f64);
    let ns = nanos(|| {
        for i in 0..rounds {
            black_box(cache.load(&spec, &jobs[i % jobs.len()])).expect("a stored key loads");
        }
    });
    l.set("harness.cache_load_us", ns / 1e3 / rounds as f64);

    let text = run.report.to_json().to_pretty();
    let parses = 200;
    let ns = nanos(|| {
        for _ in 0..parses {
            black_box(Json::parse(black_box(&text))).expect("a report parses");
        }
    });
    l.set(
        "harness.json_parse_mb_per_s",
        (text.len() * parses) as f64 / 1e6 / (ns / 1e9),
    );
}

/// Runs every micro-kernel; `scratch` holds the store and harness files.
pub fn run(seed: u64, smoke: bool, scratch: &Path, l: &mut Layers) {
    let dir = scratch.join("micro");
    engine(seed, l);
    gpu(seed, l);
    cache(seed, l);
    dram(seed, l);
    noc(seed, l);
    telemetry(seed, smoke, l);
    serve(seed, l);
    store(seed, &dir, l);
    harness(&dir, l);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_keeps_the_cheapest_of_three() {
        let mut costs = [30.0, 10.0, 20.0].into_iter();
        assert_eq!(fastest(|| (costs.next().unwrap(), 10)), 1.0);
    }

    #[test]
    fn timer_cost_is_positive_and_small() {
        let ns = timer_ns();
        assert!(ns > 0.0 && ns < 10_000.0, "{ns}");
    }
}
