use crate::cu::{Cu, CuConfig};
use crate::program::KernelDesc;
use miopt_engine::sentinel::{InvariantViolation, Sentinel};
use miopt_engine::{Cycle, MemReq, MemResp, Origin, TimedQueue};
use std::sync::Arc;

/// Aggregated GPU execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuStats {
    /// VALU lane-operations executed (the Figure 4 numerator).
    pub valu_lane_ops: u64,
    /// Coalesced load requests issued to the memory system.
    pub line_loads: u64,
    /// Coalesced store requests issued to the memory system.
    pub line_stores: u64,
    /// Wavefronts retired.
    pub retired_wavefronts: u64,
}

impl GpuStats {
    /// Total memory requests (the Figure 5 numerator and the Figure 8
    /// normalization denominator).
    #[must_use]
    pub fn memory_requests(&self) -> u64 {
        self.line_loads + self.line_stores
    }

    /// All counters as stable `(name, value)` pairs (results
    /// serialization hook).
    #[must_use]
    pub fn to_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("valu_lane_ops", self.valu_lane_ops),
            ("line_loads", self.line_loads),
            ("line_stores", self.line_stores),
            ("retired_wavefronts", self.retired_wavefronts),
        ]
    }

    /// Reconstructs statistics from persisted counters. `get` is queried
    /// once per field name (results deserialization hook).
    ///
    /// # Errors
    ///
    /// Returns the name of the first field `get` cannot supply.
    pub fn from_pairs(mut get: impl FnMut(&str) -> Option<u64>) -> Result<GpuStats, String> {
        let mut want =
            |name: &'static str| get(name).ok_or_else(|| format!("missing gpu stat `{name}`"));
        Ok(GpuStats {
            valu_lane_ops: want("valu_lane_ops")?,
            line_loads: want("line_loads")?,
            line_stores: want("line_stores")?,
            retired_wavefronts: want("retired_wavefronts")?,
        })
    }
}

impl miopt_telemetry::StatSnapshot for GpuStats {
    fn stat_pairs(&self) -> Vec<(&'static str, u64)> {
        self.to_pairs()
    }
}

/// "No pending action" sentinel for [`Gpu::tick_tracked`]'s wake hints.
const NEVER: Cycle = Cycle(u64::MAX);

/// State of the kernel currently being dispatched/executed.
#[derive(Debug)]
struct ActiveKernel {
    desc: Arc<KernelDesc>,
    seq: u32,
    next_wg: u32,
    /// Sum of per-CU retired counters when the kernel launched.
    retired_at_start: u64,
}

/// The GPU device: a set of compute units plus a work-group dispatcher.
///
/// The device executes one kernel at a time (the paper's workloads launch
/// kernels back-to-back with synchronization between them). The system
/// driving the device is responsible for kernel-boundary cache actions.
///
/// # Examples
///
/// ```
/// use miopt_engine::{Addr, Cycle, MemResp, TimedQueue};
/// use miopt_gpu::{AccessCtx, Gpu, CuConfig, KernelDesc, KernelProgram, Op};
/// use std::sync::Arc;
///
/// let mut gpu = Gpu::new(2, CuConfig::tiny_test());
/// let kernel = Arc::new(KernelDesc {
///     name: "stream".to_string(),
///     template_id: 0,
///     wgs: 4,
///     wfs_per_wg: 1,
///     program: KernelProgram::new(vec![Op::Load { pattern: 0 }, Op::WaitCnt { max: 0 }], 1),
///     gen: Arc::new(|ctx: &AccessCtx| Some(Addr(u64::from(ctx.wg) * 16384 + u64::from(ctx.lane) * 4))),
/// });
/// gpu.start_kernel(kernel, 0);
/// let mut l1_ins: Vec<_> = (0..2).map(|_| TimedQueue::new(64, 0)).collect();
/// let mut now = Cycle(0);
/// while !gpu.kernel_done() {
///     gpu.tick_tracked(now, &mut l1_ins);
///     // A perfect memory: answer every request immediately.
///     for q in &mut l1_ins {
///         while let Some(req) = q.pop_ready(now) {
///             if !req.is_store {
///                 gpu.on_response(MemResp::for_req(&req));
///             }
///         }
///     }
///     now += 1;
/// }
/// assert_eq!(gpu.stats().retired_wavefronts, 4);
/// ```
#[derive(Debug)]
pub struct Gpu {
    cus: Vec<Cu>,
    active: Option<ActiveKernel>,
    kernels_run: u64,
    /// Per-CU cache of [`Cu::next_event`], valid while the CU's
    /// [`Gpu::stale`] bit is clear: the earliest cycle a SIMD timer lets
    /// the CU act ([`NEVER`] = only a load response or, for a
    /// memory-blocked CU, an L1 queue credit can wake it). Lets
    /// [`Gpu::tick_tracked`] skip provably stalled CUs — a no-op
    /// `Cu::tick` mutates nothing, so skipping it is behaviorally
    /// invisible — and [`Gpu::next_event`] answer without rescanning
    /// every wavefront.
    wake_hint: Vec<Cycle>,
    /// CUs (bit per index) whose hint is stale because the CU acted, a
    /// response released one of its wavefronts from a waitcnt, or a
    /// work-group was assigned to it since the hint was computed. Stale
    /// CUs are always ticked and rescanned. The third wake source, an L1
    /// queue credit reaching a memory-blocked CU, needs no bit here:
    /// [`Gpu::tick_tracked`] reads it off the queue it is handed.
    stale: u64,
    /// Per-CU retired-wavefront count at the last reconciliation, and
    /// the running device total. Retires happen only inside [`Cu::tick`]
    /// (an acted CU) and [`Cu::on_response`], so reconciling at those
    /// two sites keeps the total exact while [`Gpu::kernel_done`] stays
    /// O(1) instead of summing 64 CUs every cycle.
    retired_seen: Vec<u64>,
    retired_total: u64,
    /// [`Cu::tick`] calls executed, and those among them that did
    /// nothing (see [`Gpu::cu_tick_stats`]).
    cu_ticks: u64,
    idle_cu_ticks: u64,
}

impl Gpu {
    /// Builds a GPU with `n_cus` compute units.
    ///
    /// # Panics
    ///
    /// Panics if `n_cus` is zero or above 64 (CU masks are a `u64`).
    #[must_use]
    pub fn new(n_cus: usize, cu_cfg: CuConfig) -> Gpu {
        assert!(n_cus > 0, "GPU needs at least one CU");
        assert!(n_cus <= 64, "at most 64 CUs supported, got {n_cus}");
        Gpu {
            cus: (0..n_cus)
                .map(|i| Cu::new(cu_cfg.clone(), i as u16))
                .collect(),
            active: None,
            kernels_run: 0,
            wake_hint: vec![NEVER; n_cus],
            stale: u64::MAX,
            retired_seen: vec![0; n_cus],
            retired_total: 0,
            cu_ticks: 0,
            idle_cu_ticks: 0,
        }
    }

    /// Folds CU `i`'s retirements since the last reconciliation into the
    /// running total. Must be called after any operation that can retire
    /// a wavefront on that CU.
    #[inline]
    fn note_retired(&mut self, i: usize) {
        let r = self.cus[i].retired_wavefronts();
        self.retired_total += r - self.retired_seen[i];
        self.retired_seen[i] = r;
    }

    /// Whether CU `i` must be ticked/rescanned at `now` (its hint is
    /// stale or due). A memory-blocked CU is also hot on a cycle its L1
    /// queue has room, which [`Gpu::tick_tracked`] adds from the queue.
    #[inline]
    fn cu_hot(&self, i: usize, now: Cycle) -> bool {
        self.stale & (1 << i) != 0 || self.wake_hint[i] <= now
    }

    /// Number of compute units.
    #[must_use]
    pub fn cu_count(&self) -> usize {
        self.cus.len()
    }

    /// Begins dispatching `desc`. `seq` is the launch sequence number
    /// passed to the address generator (distinguishes e.g. RNN timesteps).
    ///
    /// # Panics
    ///
    /// Panics if a kernel is still executing.
    pub fn start_kernel(&mut self, desc: Arc<KernelDesc>, seq: u32) {
        assert!(self.kernel_done(), "previous kernel still executing");
        let retired_at_start = self.total_retired();
        self.active = Some(ActiveKernel {
            desc,
            seq,
            next_wg: 0,
            retired_at_start,
        });
        self.kernels_run += 1;
    }

    /// Whether the active kernel (if any) has retired every wavefront.
    ///
    /// Note this does not include memory-system drain: stores may still be
    /// in flight below the CUs. The system-level barrier handles that.
    #[must_use]
    pub fn kernel_done(&self) -> bool {
        match &self.active {
            None => true,
            Some(k) => {
                k.next_wg == k.desc.wgs
                    && self.total_retired() - k.retired_at_start == k.desc.total_wavefronts()
            }
        }
    }

    fn total_retired(&self) -> u64 {
        debug_assert_eq!(
            self.retired_total,
            self.cus.iter().map(Cu::retired_wavefronts).sum::<u64>(),
            "incremental retired count drifted from the per-CU truth"
        );
        self.retired_total
    }

    /// Advances the device one cycle. `l1_ins[i]` is CU `i`'s request
    /// queue toward its L1.
    ///
    /// Returns whether the device did anything — dispatched a work-group
    /// or had any CU issue or retire; `false` means every CU is provably
    /// stalled (empty or waiting on memory responses) — and *which* CUs
    /// acted, as a bitmask over CU indices. A CU pushes into its L1 queue
    /// only on a cycle it acted, so the mask bounds the set of L1 queues
    /// with new input — the event-driven core uses it to wake only those
    /// L1s.
    ///
    /// # Panics
    ///
    /// Panics if `l1_ins.len()` differs from the CU count.
    pub fn tick_tracked(&mut self, now: Cycle, l1_ins: &mut [TimedQueue<MemReq>]) -> (bool, u64) {
        assert_eq!(l1_ins.len(), self.cus.len(), "one L1 queue per CU");
        let mut acted = self.dispatch();
        let mut mask = 0u64;
        let stale = self.stale;
        for (i, (cu, q)) in self.cus.iter_mut().zip(l1_ins.iter_mut()).enumerate() {
            if stale & (1 << i) == 0
                && self.wake_hint[i] > now
                && !(cu.mem_blocked() && q.can_push())
            {
                // The hint proves no SIMD timer lets this CU act before
                // `wake_hint[i]`, no waitcnt was released and no
                // work-group assigned since the hint was computed, and
                // its memory pipe either has nothing to issue or still
                // faces a full queue: its tick would be a no-op, so skip
                // the scan.
                continue;
            }
            self.cu_ticks += 1;
            if cu.tick(now, q) {
                acted = true;
                let r = cu.retired_wavefronts();
                self.retired_total += r - self.retired_seen[i];
                self.retired_seen[i] = r;
                mask |= 1 << i;
                // Issuing/retiring changed the CU's schedule; rescan next
                // tick.
                self.stale |= 1 << i;
            } else {
                self.idle_cu_ticks += 1;
                self.stale &= !(1 << i);
                self.wake_hint[i] = cu.next_event(now).unwrap_or(NEVER);
            }
        }
        (acted, mask)
    }

    /// Assigns pending work-groups to CUs with free slots. Returns
    /// whether any work-group was assigned.
    fn dispatch(&mut self) -> bool {
        let Some(k) = self.active.as_mut() else {
            return false;
        };
        if k.next_wg == k.desc.wgs {
            return false;
        }
        let per_wg = k.desc.wfs_per_wg as usize;
        let first = k.next_wg;
        let mut newly = 0u64;
        for (i, cu) in self.cus.iter_mut().enumerate() {
            let before = k.next_wg;
            while k.next_wg < k.desc.wgs && cu.free_slots() >= per_wg {
                cu.assign_wg(&k.desc, k.seq, k.next_wg);
                k.next_wg += 1;
            }
            if k.next_wg != before {
                newly |= 1 << i;
            }
            if k.next_wg == k.desc.wgs {
                break;
            }
        }
        self.stale |= newly;
        k.next_wg != first
    }

    /// The earliest cycle at or after `now` at which the device might act
    /// on its own — dispatch a pending work-group or let a CU issue — or
    /// `None` if every CU is empty or asleep. A sleeping CU has three
    /// wake sources: a SIMD timer, which is what this reports; a load
    /// response that releases a waitcnt, which [`Gpu::on_response`]
    /// turns into a stale hint; and,
    /// for a CU whose memory pipe is blocked on a full L1 queue
    /// ([`Gpu::cu_mem_blocked`]), a credit from that queue. The device
    /// does not hold the queues between ticks, so a driver that sleeps
    /// on this value must itself tick the device on the cycle such a
    /// queue gets room; one that ticks every cycle needs nothing, since
    /// [`Gpu::tick_tracked`] checks the queue it is handed.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if let Some(k) = &self.active {
            if k.next_wg < k.desc.wgs {
                let per_wg = k.desc.wfs_per_wg as usize;
                if self.cus.iter().any(|cu| cu.free_slots() >= per_wg) {
                    return Some(now);
                }
            }
        }
        self.cus
            .iter()
            .enumerate()
            .filter_map(|(i, cu)| {
                if self.cu_hot(i, now) {
                    cu.next_event(now)
                } else {
                    // A clean hint strictly after `now` is exact: the
                    // `max(.., now)` clamps inside `Cu::next_event` only
                    // pull times *up to* `now`, so a future hint cannot
                    // have been clamped.
                    match self.wake_hint[i] {
                        NEVER => None,
                        t => Some(t),
                    }
                }
            })
            .min()
    }

    /// Routes a load response to its wavefront.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the response does not carry a wavefront
    /// origin.
    pub fn on_response(&mut self, resp: MemResp) {
        match resp.origin {
            Origin::Wavefront { cu, slot } => {
                let released = self.cus[cu as usize].on_response(slot);
                // A response can retire the wavefront it unblocks.
                self.note_retired(cu as usize);
                if released {
                    // The response released a waitcnt: the CU may act
                    // before its hint. Any other response leaves the
                    // hint exact, so the CU sleeps on.
                    self.stale |= 1 << cu;
                }
            }
            Origin::Internal => debug_assert!(false, "internal response routed to GPU"),
        }
    }

    /// Whether CU `i`'s memory pipe is blocked on L1 backpressure (see
    /// [`Cu::mem_blocked`]): it sleeps until its queue has room, a
    /// response releases a waitcnt or a SIMD timer fires.
    #[must_use]
    pub fn cu_mem_blocked(&self, i: usize) -> bool {
        self.cus[i].mem_blocked()
    }

    /// Host-side cost counters, not simulated statistics: `(CU ticks
    /// executed, CU ticks that did nothing)`. Every CU not provably
    /// asleep is ticked on each [`Gpu::tick_tracked`]; an idle tick is
    /// one that found nothing to issue or retire. Both are functions of
    /// the simulated state alone, so they repeat exactly across runs and
    /// across drivers.
    #[must_use]
    pub fn cu_tick_stats(&self) -> (u64, u64) {
        (self.cu_ticks, self.idle_cu_ticks)
    }

    /// Aggregated statistics across all CUs.
    #[must_use]
    pub fn stats(&self) -> GpuStats {
        let mut s = GpuStats::default();
        for cu in &self.cus {
            s.valu_lane_ops += cu.valu_lane_ops();
            s.line_loads += cu.line_loads();
            s.line_stores += cu.line_stores();
            s.retired_wavefronts += cu.retired_wavefronts();
        }
        s
    }

    /// Kernels launched so far.
    #[must_use]
    pub fn kernels_run(&self) -> u64 {
        self.kernels_run
    }

    /// Per-CU outstanding work for stall diagnostics: one
    /// `(cu, resident wavefronts, loads awaited, unissued accesses)` entry
    /// per CU that still has resident wavefronts.
    #[must_use]
    pub fn wavefront_summary(&self) -> Vec<(usize, usize, u64, usize)> {
        self.cus
            .iter()
            .enumerate()
            .filter(|(_, cu)| cu.active_wavefronts() > 0)
            .map(|(i, cu)| {
                let (active, loads, pending) = cu.outstanding_ops();
                (i, active, loads, pending)
            })
            .collect()
    }

    /// The `blocked_cu_wake` invariant, which needs the L1 queues the
    /// device does not own and so is not part of its [`Sentinel`] impl:
    /// between cycles, no CU that [`Gpu::tick_tracked`] would skip at
    /// `now` may hold unissued requests facing a queue with room, and a
    /// memory-blocked flag implies unissued requests. A lost credit wake
    /// (or a lost flag) is thus named at the next check instead of
    /// surfacing as a watchdog wedge.
    ///
    /// # Panics
    ///
    /// Panics if `l1_ins.len()` differs from the CU count.
    pub fn check_blocked_cu_wake(
        &self,
        now: Cycle,
        l1_ins: &[TimedQueue<MemReq>],
        component: &str,
        out: &mut Vec<InvariantViolation>,
    ) {
        assert_eq!(l1_ins.len(), self.cus.len(), "one L1 queue per CU");
        for (i, (cu, q)) in self.cus.iter().zip(l1_ins).enumerate() {
            cu.check_blocked_wake(
                !self.cu_hot(i, now),
                q.can_push(),
                &format!("{component}.cu[{i}]"),
                out,
            );
        }
    }
}

impl Sentinel for Gpu {
    fn check_invariants(&self, component: &str, out: &mut Vec<InvariantViolation>) {
        for (i, cu) in self.cus.iter().enumerate() {
            cu.check_invariants(&format!("{component}.cu[{i}]"), out);
        }
        // At kernel end every wavefront has retired, so no CU may still
        // hold residents or awaited responses ("outstanding-op counts hit
        // zero at kernel end").
        if self.kernel_done() {
            for (i, cu) in self.cus.iter().enumerate() {
                let (active, loads, pending) = cu.outstanding_ops();
                if active != 0 || loads != 0 || pending != 0 {
                    out.push(InvariantViolation {
                        component: format!("{component}.cu[{i}]"),
                        invariant: "kernel_end_quiescence",
                        detail: format!(
                            "kernel done but CU holds {active} wavefront(s), \
                             {loads} awaited load(s), {pending} unissued access(es)"
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{AccessCtx, AddrGen, KernelProgram, Op};
    use miopt_engine::Addr;

    fn stream_kernel(wgs: u32, wfs_per_wg: u32, iters: u32) -> Arc<KernelDesc> {
        let gen: Arc<dyn AddrGen> = Arc::new(|ctx: &AccessCtx| {
            Some(Addr(
                u64::from(ctx.wg) * 1_048_576
                    + u64::from(ctx.wf) * 65536
                    + u64::from(ctx.iter) * 256
                    + u64::from(ctx.lane) * 4,
            ))
        });
        Arc::new(KernelDesc {
            name: "stream".to_string(),
            template_id: 2,
            wgs,
            wfs_per_wg,
            program: KernelProgram::new(
                vec![
                    Op::Load { pattern: 0 },
                    Op::WaitCnt { max: 0 },
                    Op::Store { pattern: 1 },
                ],
                iters,
            ),
            gen,
        })
    }

    fn run_to_completion(gpu: &mut Gpu, limit: u64) -> u64 {
        let mut l1_ins: Vec<TimedQueue<MemReq>> = (0..gpu.cu_count())
            .map(|_| TimedQueue::new(64, 0))
            .collect();
        let mut now = Cycle(0);
        while !gpu.kernel_done() {
            gpu.tick_tracked(now, &mut l1_ins);
            for q in &mut l1_ins {
                while let Some(req) = q.pop_ready(now) {
                    if req.wants_response() {
                        gpu.on_response(MemResp::for_req(&req));
                    }
                }
            }
            now += 1;
            assert!(now.0 < limit, "kernel did not finish");
        }
        now.0
    }

    #[test]
    fn kernel_runs_to_completion_with_perfect_memory() {
        let mut gpu = Gpu::new(2, CuConfig::tiny_test());
        gpu.start_kernel(stream_kernel(6, 1, 2), 0);
        run_to_completion(&mut gpu, 10_000);
        let s = gpu.stats();
        assert_eq!(s.retired_wavefronts, 6);
        // 6 wfs x 2 iters x (4 load lines + 4 store lines).
        assert_eq!(s.line_loads, 48);
        assert_eq!(s.line_stores, 48);
    }

    #[test]
    fn work_spreads_across_cus() {
        let mut gpu = Gpu::new(4, CuConfig::tiny_test());
        gpu.start_kernel(stream_kernel(8, 1, 1), 0);
        gpu.dispatch();
        let busy = gpu.cus.iter().filter(|c| c.active_wavefronts() > 0).count();
        assert_eq!(busy, 4, "all CUs should receive work-groups");
    }

    #[test]
    fn back_to_back_kernels() {
        let mut gpu = Gpu::new(2, CuConfig::tiny_test());
        for seq in 0..3 {
            gpu.start_kernel(stream_kernel(2, 1, 1), seq);
            run_to_completion(&mut gpu, 10_000);
        }
        assert_eq!(gpu.kernels_run(), 3);
        assert_eq!(gpu.stats().retired_wavefronts, 6);
    }

    #[test]
    #[should_panic(expected = "previous kernel still executing")]
    fn overlapping_launch_panics() {
        let mut gpu = Gpu::new(1, CuConfig::tiny_test());
        gpu.start_kernel(stream_kernel(2, 1, 1), 0);
        gpu.dispatch();
        gpu.start_kernel(stream_kernel(2, 1, 1), 1);
    }

    #[test]
    fn idle_gpu_is_done() {
        let gpu = Gpu::new(1, CuConfig::tiny_test());
        assert!(gpu.kernel_done());
        assert_eq!(gpu.stats(), GpuStats::default());
    }

    #[test]
    fn next_event_reflects_dispatch_and_quiescence() {
        let mut gpu = Gpu::new(1, CuConfig::tiny_test());
        assert_eq!(gpu.next_event(Cycle(5)), None, "idle device sleeps");
        gpu.start_kernel(stream_kernel(1, 1, 1), 0);
        assert_eq!(
            gpu.next_event(Cycle(5)),
            Some(Cycle(5)),
            "pending dispatch is immediate work"
        );
        run_to_completion(&mut gpu, 10_000);
        assert_eq!(gpu.next_event(Cycle(20_000)), None, "retired device sleeps");
    }

    #[test]
    fn sentinel_stays_quiet_through_kernel_and_retirement() {
        let mut gpu = Gpu::new(2, CuConfig::tiny_test());
        gpu.start_kernel(stream_kernel(6, 1, 2), 0);
        let mut l1_ins: Vec<TimedQueue<MemReq>> = (0..gpu.cu_count())
            .map(|_| TimedQueue::new(64, 0))
            .collect();
        let mut now = Cycle(0);
        let mut out = Vec::new();
        while !gpu.kernel_done() {
            gpu.tick_tracked(now, &mut l1_ins);
            for q in &mut l1_ins {
                while let Some(req) = q.pop_ready(now) {
                    if req.wants_response() {
                        gpu.on_response(MemResp::for_req(&req));
                    }
                }
            }
            gpu.check_invariants("gpu", &mut out);
            assert!(out.is_empty(), "violations at cycle {now:?}: {out:?}");
            now += 1;
            assert!(now.0 < 10_000);
        }
        gpu.check_invariants("gpu", &mut out);
        assert!(out.is_empty(), "violations after kernel end: {out:?}");
        assert!(gpu.wavefront_summary().is_empty());
    }

    /// Ticks `gpu` without ever popping `q` until CU 0 is memory-blocked
    /// and asleep; returns the next cycle.
    fn tick_until_blocked_asleep(gpu: &mut Gpu, q: &mut [TimedQueue<MemReq>]) -> u64 {
        let mut now = 0;
        while !gpu.cu_mem_blocked(0) || gpu.cu_hot(0, Cycle(now)) {
            gpu.tick_tracked(Cycle(now), q);
            now += 1;
            assert!(now < 100, "CU never backpressured");
        }
        now
    }

    #[test]
    fn backpressured_cu_is_skipped_until_its_queue_returns_a_credit() {
        let mut gpu = Gpu::new(1, CuConfig::tiny_test());
        gpu.start_kernel(stream_kernel(1, 1, 1), 0);
        let mut q = vec![TimedQueue::new(2, 0)];
        let mut now = tick_until_blocked_asleep(&mut gpu, &mut q);
        assert_eq!(q[0].len(), 2, "queue full, 2 of the load's 4 lines issued");
        assert_eq!(gpu.next_event(Cycle(now)), None, "no self-wake");
        let ticks = gpu.cu_tick_stats();
        for _ in 0..10 {
            assert_eq!(gpu.tick_tracked(Cycle(now), &mut q), (false, 0));
            now += 1;
        }
        assert_eq!(gpu.cu_tick_stats(), ticks, "the CU's tick is skipped");
        let mut out = Vec::new();
        gpu.check_blocked_cu_wake(Cycle(now), &q, "gpu", &mut out);
        assert!(out.is_empty(), "{out:?}");
        // One pop: hot again, and the request issues that cycle.
        q[0].pop_ready(Cycle(now)).expect("head is ready");
        assert_eq!(gpu.tick_tracked(Cycle(now), &mut q), (true, 1));
        assert_eq!(q[0].len(), 2);
        assert_eq!(gpu.stats().line_loads, 3);
        assert_eq!(gpu.cu_tick_stats(), (ticks.0 + 1, ticks.1));
    }

    #[test]
    fn a_released_waitcnt_wakes_a_backpressured_cu() {
        // Two wavefronts on one SIMD, a queue exactly one load wide: wf0's
        // 4 lines fill it, wf1's 4 lines wait behind it, wf0 sits at its
        // waitcnt.
        let mut gpu = Gpu::new(1, CuConfig::tiny_test());
        gpu.start_kernel(stream_kernel(1, 2, 1), 0);
        let mut q = vec![TimedQueue::new(4, 0)];
        let now = tick_until_blocked_asleep(&mut gpu, &mut q);
        assert_eq!(gpu.wavefront_summary(), vec![(0, 2, 8, 4)]);
        let resps: Vec<MemResp> = q[0].iter().map(MemResp::for_req).collect();
        // Three of wf0's four responses release nothing: the CU sleeps on.
        let ticks = gpu.cu_tick_stats();
        for &r in &resps[..3] {
            gpu.on_response(r);
        }
        assert_eq!(gpu.tick_tracked(Cycle(now), &mut q), (false, 0));
        assert_eq!(gpu.cu_tick_stats(), ticks);
        // The fourth releases the waitcnt: the CU is ticked and wf0 moves
        // on, with the queue still full.
        gpu.on_response(resps[3]);
        assert_eq!(gpu.next_event(Cycle(now + 1)), Some(Cycle(now + 1)));
        assert_eq!(gpu.tick_tracked(Cycle(now + 1), &mut q), (true, 1));
        assert_eq!(gpu.cu_tick_stats(), (ticks.0 + 1, ticks.1));
        assert!(gpu.cu_mem_blocked(0), "wf1's lines still face a full queue");
    }

    #[test]
    fn blocked_cu_wake_invariant_reports_a_lost_credit_wake() {
        let mut gpu = Gpu::new(1, CuConfig::tiny_test());
        gpu.start_kernel(stream_kernel(1, 1, 1), 0);
        let mut q = vec![TimedQueue::new(2, 0)];
        let now = tick_until_blocked_asleep(&mut gpu, &mut q);
        // The L1 pops a request and the driver never ticks the device on
        // that cycle: at the next between-cycles check the CU is asleep
        // with work to issue and room to issue it into.
        q[0].pop_ready(Cycle(now)).expect("head is ready");
        let mut out = Vec::new();
        gpu.check_blocked_cu_wake(Cycle(now + 1), &q, "gpu", &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].component, "gpu.cu[0]");
        assert_eq!(out[0].invariant, "blocked_cu_wake");
    }

    #[test]
    fn oversubscribed_grid_drains_in_waves() {
        // 2 slots per CU, 1 CU, 10 WGs: dispatch must refill as wavefronts
        // retire.
        let mut gpu = Gpu::new(1, CuConfig::tiny_test());
        gpu.start_kernel(stream_kernel(10, 1, 1), 0);
        run_to_completion(&mut gpu, 100_000);
        assert_eq!(gpu.stats().retired_wavefronts, 10);
    }
}
