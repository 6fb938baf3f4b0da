//! Counting-allocator proof that the steady-state simulation loop is
//! allocation-free: once a kernel's wavefronts are dispatched and the
//! memory hierarchy has reached its high-water occupancy, simulating
//! further cycles must perform zero heap allocations.
//!
//! Setup (system construction, first-touch pool growth) is explicitly
//! excluded: the window opens only after a warmup long enough for every
//! arena, queue, and pool to reach capacity.
//!
//! The same holds across kernel boundaries: once one boundary has been
//! crossed, draining, the release flush, the acquire self-invalidation
//! (with PC-predictor training) and the next launch's work-group dispatch
//! allocate nothing either.

// The counting global allocator below is installed in this test binary
// only; every other test binary keeps the system allocator.

use miopt::{optimization_ladder, ApuSystem, CachePolicy, PolicyConfig, SystemConfig};
use miopt_engine::Addr;
use miopt_gpu::{AccessCtx, AddrGen, KernelDesc, KernelProgram, Op};
use miopt_workloads::{by_name, SuiteConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;

/// System allocator wrapper reporting every allocation into
/// `miopt_engine::alloc_track` (same idiom as the benchmark in
/// `bench/src/main.rs`).
struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; the wrapper only adds
// a side-effect-free counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        miopt_engine::alloc_track::note_alloc();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        miopt_engine::alloc_track::note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        miopt_engine::alloc_track::note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// A long-running streaming kernel sized so every work-group dispatches
/// at launch (the first wavefront placed in a CU slot allocates its
/// buffers, which every later one in that slot reuses).
fn streaming_kernel(wgs: u32, wfs_per_wg: u32, iters: u32) -> Arc<KernelDesc> {
    let gen: Arc<dyn AddrGen> = Arc::new(|ctx: &AccessCtx| {
        // Each wavefront streams its own region, with the region stride
        // placed so wavefronts spread across DRAM banks (line-address
        // layout `| channel | column | bank | row |`): stride 2^15 bytes
        // = 2^9 lines puts consecutive wavefronts in distinct banks.
        // Loads and stores live in disjoint row halves; iterations wrap
        // so the footprint stays bounded while dwarfing the L2.
        let wf_global = u64::from(ctx.wg) * 16 + u64::from(ctx.wf);
        let base = wf_global << 15;
        let half = u64::from(ctx.pattern) << 29;
        let off = u64::from(ctx.iter % 32) * 256 + u64::from(ctx.lane) * 4;
        Some(Addr(base + half + off))
    });
    Arc::new(KernelDesc {
        name: "zero-alloc-stream".to_string(),
        template_id: 0,
        wgs,
        wfs_per_wg,
        program: KernelProgram::new(
            vec![
                Op::Valu { count: 4 },
                Op::Load { pattern: 0 },
                Op::WaitCnt { max: 0 },
                Op::Store { pattern: 1 },
            ],
            iters,
        ),
        gen,
    })
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds always run the sentinel, which allocates; run in release"
)]
fn steady_state_cycles_allocate_nothing() {
    miopt_engine::alloc_track::set_installed();
    // Prove the wiring before relying on a zero: an intentional heap
    // allocation must be observed, or the assertion below is vacuous.
    let before = miopt_engine::alloc_track::count();
    let probe = Box::new([0u8; 64]);
    assert!(
        miopt_engine::alloc_track::count() > before,
        "counting allocator not wired up"
    );
    drop(probe);

    // Plain CacheRW on the Table 1 machine, then the rinsing ladder
    // entry, whose dirty-block index churns rows all the time — emptied
    // by evictions, rinsed, re-tracked when a rinse finds no room
    // downstream — a path CacheRW never takes. The small machine fills
    // its index and queues well inside the warm-up (on Table 1 the 1024
    // L1 MSHR buckets are still taking their first fifth entry far past
    // it, which is first-touch growth, not churn).
    let rinsing = optimization_ladder()
        .into_iter()
        .find(|p| p.label() == "CacheRW-CR")
        .expect("ladder has a rinsing entry");
    let windows = [
        (
            SystemConfig::paper_table1(),
            PolicyConfig::of(CachePolicy::CacheRW),
        ),
        (SystemConfig::small_test(), rinsing),
    ];
    for (cfg, policy) in windows {
        let (allocs, requests) = steady_window(cfg, policy);
        assert!(
            requests > 1_000,
            "{}: window must carry real traffic (saw {requests} requests)",
            policy.label()
        );
        assert_eq!(
            allocs,
            0,
            "{}: steady-state cycles must not allocate: {allocs} allocations \
             over {WINDOW} cycles ({requests} memory requests)",
            policy.label()
        );
    }

    // Kernel boundaries, in this test rather than one of their own: the
    // counter is process-wide, so a second test running concurrently
    // would count this one's set-up.
    let (allocs, before, after) = boundary_window();
    assert!(
        after.0 > before.0 && after.1 > before.1 && after.2 > before.2,
        "the window must carry traffic, flush and invalidate: {before:?} -> {after:?}"
    );
    assert_eq!(allocs, 0, "5 kernel boundaries allocated {allocs} times");
}

/// Six quick-scale FwGRU recurrent steps (after the input projection):
/// tiny kernels, each ending in the Section III release and acquire.
/// Runs until the second step has launched, then profiles the rest — the
/// five boundaries after steps 2 to 6. Returns `(heap allocations,
/// counts before, counts after)`, the counts being memory requests, L2
/// self-invalidations and L2 flush writebacks.
fn boundary_window() -> (u64, (u64, u64, u64), (u64, u64, u64)) {
    // The PC-bypass ladder entry: every boundary flushes dirty L2 data
    // and trains the predictor on the lines it invalidates.
    let policy = optimization_ladder()
        .into_iter()
        .find(|p| p.label() == "CacheRW-PCby")
        .expect("ladder has a PC-bypass entry");
    let gru = by_name(&SuiteConfig::quick(), "FwGRU").expect("known workload");
    let mut sys = ApuSystem::new_idle(SystemConfig::paper_table1(), policy);
    for (seq, k) in gru.launches.iter().enumerate().skip(1).take(6) {
        sys.enqueue_kernel(Arc::clone(k), seq as u32);
    }
    // Warm up through the first boundary: stop once the second kernel
    // has launched. Each step ends in a cycle-budget halt, whose
    // diagnostic allocates outside any dispatch.
    let mut budget = 0;
    while sys.pending_launches() > 4 {
        budget += 500;
        sys.run_to_completion(budget)
            .expect_err("the steps outlast the warm-up");
    }
    let counts = |sys: &ApuSystem| {
        let m = sys.metrics();
        (
            m.gpu.memory_requests(),
            m.l2.self_invalidations.get(),
            m.l2.flush_writebacks.get(),
        )
    };
    let before = counts(&sys);
    sys.enable_profiler();
    sys.run_to_completion(200_000_000).expect("steps finish");
    let profile = sys.take_profile().expect("profiler enabled");
    (profile.total_allocs(), before, counts(&sys))
}

/// Cycles simulated before the window opens: launch overhead, dispatch,
/// and every first-touch growth (MSHR pools, DBI row vectors, replay
/// queues) reaching high water.
const WARMUP: u64 = 60_000;
/// Cycles in the measured window.
const WINDOW: u64 = 4_000;

/// Runs the streaming kernel under `policy` on the default engine (the
/// event core: wheel, unit wheels, wake edges, sleeping units) and
/// returns `(heap allocations, memory requests)` of the steady window.
///
/// The warm-up and the window each end in a cycle-budget halt, whose
/// diagnostic allocates by design; the profiler counts only what the
/// dispatches in between allocate.
fn steady_window(cfg: SystemConfig, policy: PolicyConfig) -> (u64, u64) {
    let mut sys = ApuSystem::new_idle(cfg, policy);
    // 64 work-groups x 4 wavefronts give every CU a work-group in the
    // launch cycle at moderate occupancy (an all-miss streaming kernel
    // at full occupancy thrashes the write-allocate L1 into a crawl);
    // the iteration count keeps the kernel running far past the window.
    sys.enqueue_kernel(streaming_kernel(64, 4, 50_000), 0);

    sys.run_to_completion(WARMUP)
        .expect_err("kernel must outlast the warm-up");
    let requests_before = sys.metrics().gpu.memory_requests();

    sys.enable_profiler();
    sys.run_to_completion(WARMUP + WINDOW)
        .expect_err("window must end mid-kernel");
    let profile = sys.take_profile().expect("profiler enabled");
    assert!(profile.total_events() > 0, "the window dispatched nothing");

    let requests = sys.metrics().gpu.memory_requests() - requests_before;
    (profile.total_allocs(), requests)
}
