use crate::cu::{Cu, CuConfig};
use crate::program::KernelDesc;
use miopt_engine::sentinel::{InvariantViolation, Sentinel};
use miopt_engine::{Cycle, EventWheel, MemReq, MemResp, Origin, TimedQueue};
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
        vec![
            ("valu_lane_ops", self.valu_lane_ops),
            ("line_loads", self.line_loads),
            ("line_stores", self.line_stores),
            ("retired_wavefronts", self.retired_wavefronts),
        ]
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
    /// every wavefront. A stale CU's hint is [`NEVER`].
    wake_hint: Vec<Cycle>,
    /// The clean hints as a calendar: exactly one entry per CU that is
    /// not stale and whose hint is not [`NEVER`], at that hint. The due
    /// CUs are popped off it and the earliest hint is peeked, so neither
    /// [`Gpu::tick_tracked`] nor [`Gpu::next_event`] walks every CU.
    hints: EventWheel,
    /// CUs (bit per index) whose hint is stale because the CU acted, a
    /// response released one of its wavefronts from a waitcnt, or a
    /// work-group was assigned to it since the hint was computed. Stale
    /// CUs are always ticked and rescanned. The third wake source, an L1
    /// queue credit reaching a memory-blocked CU, needs no bit here:
    /// [`Gpu::tick_tracked`] reads it off the queue it is handed, for
    /// the CUs in [`Gpu::blocked`].
    stale: u64,
    /// CUs (bit per index) whose memory pipe is blocked on L1
    /// backpressure ([`Cu::mem_blocked`], which only `Cu::tick`
    /// changes), refreshed after each tick.
    blocked: u64,
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
            hints: EventWheel::new(),
            stale: u64::MAX >> (64 - n_cus),
            blocked: 0,
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

    /// Clears CU `i`'s hint and cancels its [`Gpu::hints`] entry (a
    /// no-op for an entry already popped as due).
    fn drop_hint(&mut self, i: usize) {
        let old = std::mem::replace(&mut self.wake_hint[i], NEVER);
        if old != NEVER {
            self.hints.cancel(old, i as u8);
        }
    }

    /// Marks CU `i` stale: it is ticked and rescanned next time, and
    /// holds no hint until then.
    fn mark_stale(&mut self, i: usize) {
        self.stale |= 1 << i;
        self.drop_hint(i);
    }

    /// Gives CU `i`, just ticked idle at `now`, the clean hint `hint`.
    /// An empty wheel is first rebased at `now`, so the first hint after
    /// a launch or an idle gap lands in the ring, not its overflow map.
    fn set_hint(&mut self, i: usize, hint: Cycle, now: Cycle) {
        if self.wake_hint[i] == hint {
            return;
        }
        self.drop_hint(i);
        if hint != NEVER {
            debug_assert!(hint > now, "hint {hint} not after {now}");
            if self.hints.is_empty() {
                self.hints.reset(now);
            }
            self.wake_hint[i] = hint;
            self.hints.insert(hint, i as u8);
        }
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
        let dispatched = self.dispatch();
        let hot = self.hot_set(now, l1_ins);
        let (acted, mask) = self.tick_cus(now, hot, l1_ins);
        (dispatched || acted, mask)
    }

    /// The CUs to tick at `now`, popping the due hints: the stale ones,
    /// those whose hint is due, and the memory-blocked ones whose queue
    /// has room. Every other CU is provably asleep — its hint shows no
    /// SIMD timer fires before it, no waitcnt was released and no
    /// work-group assigned since it was computed, and its memory pipe
    /// has nothing to issue or still faces a full queue — so its tick
    /// would be a no-op.
    fn hot_set(&mut self, now: Cycle, l1_ins: &[TimedQueue<MemReq>]) -> u64 {
        let mut hot = self.stale;
        while self.hints.next_cycle().is_some_and(|t| t <= now) {
            hot |= self.hints.pop_next().expect("cycle just observed").1;
        }
        let mut m = self.blocked & !hot;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            hot |= u64::from(l1_ins[i].can_push()) << i;
        }
        hot
    }

    /// Ticks the CUs in `hot`, in index order; returns whether any acted
    /// and which.
    fn tick_cus(&mut self, now: Cycle, hot: u64, l1_ins: &mut [TimedQueue<MemReq>]) -> (bool, u64) {
        let mut mask = 0u64;
        let mut m = hot;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            self.cu_ticks += 1;
            let acted = self.cus[i].tick(now, &mut l1_ins[i]);
            let blocked = self.cus[i].mem_blocked();
            self.blocked = self.blocked & !(1 << i) | u64::from(blocked) << i;
            if acted {
                self.note_retired(i);
                mask |= 1 << i;
                // Issuing/retiring changed the CU's schedule; rescan next
                // tick.
                self.mark_stale(i);
            } else {
                self.idle_cu_ticks += 1;
                self.stale &= !(1 << i);
                // An idle tick leaves nothing to do at `now` itself, so
                // the hint lies after it; the clamp only guards that.
                let hint = self.cus[i]
                    .next_event(now)
                    .map_or(NEVER, |t| t.max(now + 1));
                self.set_hint(i, hint, now);
            }
        }
        (mask != 0, mask)
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
        let assigned = k.next_wg != first;
        while newly != 0 {
            let i = newly.trailing_zeros() as usize;
            newly &= newly - 1;
            self.mark_stale(i);
        }
        assigned
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
        // A clean hint strictly after `now` is exact: the `max(.., now)`
        // clamps inside `Cu::next_event` only pull times *up to* `now`, so
        // a future hint cannot have been clamped. A due one means its CU
        // can act at `now` (its SIMD timer has fired); only stale CUs
        // need a rescan.
        let mut next = self.hints.next_cycle().map(|t| t.max(now));
        let mut m = self.stale;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if let Some(t) = self.cus[i].next_event(now) {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        }
        next
    }

    /// Routes a load response to its wavefront. Returns whether the
    /// device must be ticked for it: the response released a waitcnt, so
    /// its CU may act before its hint, or retired a wavefront, so a
    /// work-group may dispatch into the freed slot or the kernel may be
    /// done. Any other response leaves every hint exact and the device
    /// with nothing new to do.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the response does not carry a wavefront
    /// origin.
    pub fn on_response(&mut self, resp: MemResp) -> bool {
        match resp.origin {
            Origin::Wavefront { cu, slot } => {
                let i = cu as usize;
                let released = self.cus[i].on_response(slot);
                let retired_before = self.retired_total;
                self.note_retired(i);
                if released {
                    self.mark_stale(i);
                }
                released || self.retired_total != retired_before
            }
            Origin::Internal => {
                debug_assert!(false, "internal response routed to GPU");
                false
            }
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
            // The hint wheel and the blocked mask stand in for a scan of
            // every CU: a clean hint missing from the wheel is a CU that
            // would never be ticked again, a wrong mask bit a lost credit
            // wake.
            let hint = self.wake_hint[i];
            let stale = self.stale >> i & 1 != 0;
            let detail = if !stale && hint != NEVER && self.hints.pending_at(hint) >> i & 1 == 0 {
                format!("clean hint {hint} has no entry in the hint wheel")
            } else if stale && hint != NEVER {
                format!("stale CU still holds hint {hint}")
            } else if (self.blocked >> i & 1 != 0) != cu.mem_blocked() {
                format!(
                    "blocked mask bit is {} but the CU's memory-blocked flag is {}",
                    self.blocked >> i & 1 != 0,
                    cu.mem_blocked()
                )
            } else {
                continue;
            };
            out.push(InvariantViolation {
                component: format!("{component}.cu[{i}]"),
                invariant: "cu_hint_wheel",
                detail,
            });
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
    use miopt_engine::prop;
    use miopt_engine::rng::SplitMix64;
    use miopt_engine::Addr;
    use std::cell::Cell;

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

    /// The pre-wheel tick, the reference for the wheel-driven hot set:
    /// every CU tested one by one against its stale bit, its hint and its
    /// queue. Returns the CUs ticked and what `tick_tracked` returns.
    fn full_scan_tick(
        gpu: &mut Gpu,
        now: Cycle,
        l1_ins: &mut [TimedQueue<MemReq>],
    ) -> (u64, (bool, u64)) {
        let mut acted = gpu.dispatch();
        let (mut hot, mut mask) = (0u64, 0u64);
        for (i, q) in l1_ins.iter_mut().enumerate() {
            if !(gpu.cu_hot(i, now) || gpu.cus[i].mem_blocked() && q.can_push()) {
                continue;
            }
            hot |= 1 << i;
            if gpu.cus[i].tick(now, q) {
                acted = true;
                mask |= 1 << i;
                gpu.note_retired(i);
                gpu.stale |= 1 << i;
            } else {
                gpu.stale &= !(1 << i);
                gpu.wake_hint[i] = gpu.cus[i].next_event(now).unwrap_or(NEVER);
            }
        }
        (hot, (acted, mask))
    }

    /// `next_event` as a scan of every CU: a rescan of each stale one and
    /// a read of each clean hint, where a due hint means `now`.
    fn full_scan_next_event(gpu: &Gpu, now: Cycle) -> Option<Cycle> {
        if let Some(k) = &gpu.active {
            let per_wg = k.desc.wfs_per_wg as usize;
            if k.next_wg < k.desc.wgs && gpu.cus.iter().any(|cu| cu.free_slots() >= per_wg) {
                return Some(now);
            }
        }
        (0..gpu.cus.len())
            .filter_map(|i| {
                if gpu.stale >> i & 1 != 0 {
                    gpu.cus[i].next_event(now)
                } else {
                    Some(gpu.wake_hint[i].max(now)).filter(|&t| t != NEVER)
                }
            })
            .min()
    }

    /// A random kernel: timers (VALU, LDS), loads, stores and waitcnts in
    /// random order, on a random grid that may oversubscribe the device.
    /// A wavefront whose program ends in a load without a waitcnt is
    /// retired by its last response.
    fn random_kernel(rng: &mut SplitMix64, template_id: u16) -> Arc<KernelDesc> {
        let body: Vec<Op> = (0..1 + rng.next_below(5))
            .map(|_| match rng.next_below(5) {
                0 => Op::Valu {
                    count: 1 + rng.next_below(4) as u32,
                },
                1 => Op::Lds {
                    cycles: 1 + rng.next_below(30) as u32,
                },
                2 => Op::Load {
                    pattern: rng.next_below(2) as u16,
                },
                3 => Op::Store { pattern: 2 },
                _ => Op::WaitCnt {
                    max: rng.next_below(5) as u8,
                },
            })
            .collect();
        let gen: Arc<dyn AddrGen> = Arc::new(|ctx: &AccessCtx| {
            let stride = 4 * (1 + u64::from(ctx.pattern));
            Some(Addr(
                u64::from(ctx.wg) * 1_048_576
                    + u64::from(ctx.wf) * 65536
                    + u64::from(ctx.iter) * 1024
                    + u64::from(ctx.lane) * stride,
            ))
        });
        Arc::new(KernelDesc {
            name: "random".to_string(),
            template_id,
            wgs: 1 + rng.next_below(12) as u32,
            wfs_per_wg: 1 + rng.next_below(3) as u32,
            program: KernelProgram::new(body, 1 + rng.next_below(3) as u32),
            gen,
        })
    }

    /// Lockstep against the full scan on seeded multi-kernel streams with
    /// random response delays and L1 backpressure: the wheel-driven hot
    /// set, the tick's result and `next_event` equal the reference on
    /// every cycle, and the hint-wheel sentinel stays quiet. Each stream
    /// runs twice: ticked every cycle (the oracle), and ticked as the
    /// event core's phase machine is — at its own reschedule
    /// (`next_event`), on a response `on_response` says matters, and on
    /// a credit to a memory-blocked CU. Both must simulate the same thing
    /// with the same CU ticks, or a wake was lost.
    #[test]
    fn hint_wheel_matches_full_scan() {
        let cfg = CuConfig {
            simds: 2,
            wf_slots_per_simd: 3,
            mem_issue_per_cycle: 1,
        };
        let n = 5;
        let (due_visits, credit_visits) = (Cell::new(0u64), Cell::new(0u64));
        prop::check("hint_wheel_matches_full_scan", 12, |c| {
            // Both runs of a case draw the same stream.
            let (seed, kernels) = (c.rng().next_u64(), c.steps(1..8) as u32);
            let mut outcome = Vec::new();
            for sparse in [false, true] {
                let mut rng = SplitMix64::new(seed);
                let mut w = Gpu::new(n, cfg.clone());
                let mut r = Gpu::new(n, cfg.clone());
                let cap = 1 + rng.next_below(6) as usize;
                let queues = || -> Vec<TimedQueue<MemReq>> {
                    (0..n).map(|_| TimedQueue::new(cap, 0)).collect()
                };
                let (mut qw, mut qr) = (queues(), queues());
                let mut inflight: Vec<(u64, MemResp)> = Vec::new();
                let mut now = 0u64;
                let mut out = Vec::new();
                for seq in 0..kernels {
                    let k = random_kernel(&mut rng, seq as u16);
                    w.start_kernel(Arc::clone(&k), seq);
                    r.start_kernel(k, seq);
                    // The launch runs the device at once; then, like the
                    // phase machine, it reschedules itself after each
                    // tick, and a waking response or a credit runs it
                    // early. Only a tick observes the kernel's end.
                    let (mut scheduled, mut woke) = (Some(now), false);
                    loop {
                        let t = Cycle(now);
                        for (_, resp) in inflight.iter().filter(|(at, _)| *at == now) {
                            let got = w.on_response(*resp);
                            assert_eq!(got, r.on_response(*resp));
                            woke |= got;
                        }
                        inflight.retain(|(at, _)| *at != now);
                        let credit = (0..n).any(|i| w.cu_mem_blocked(i) && qw[i].can_push());
                        let due = scheduled == Some(now);
                        if !sparse || woke || due || credit {
                            let (hot, want) = full_scan_tick(&mut r, t, &mut qr);
                            let dispatched = w.dispatch();
                            let got_hot = w.hot_set(t, &qw);
                            let got = w.tick_cus(t, got_hot, &mut qw);
                            let got = (dispatched || got.0, got.1);
                            assert_eq!((got_hot, got), (hot, want), "cycle {now}");
                            due_visits.set(due_visits.get() + u64::from(due && !woke && !credit));
                            credit_visits.set(credit_visits.get() + u64::from(credit));
                            woke = false;
                            scheduled = if got.0 {
                                Some(now + 1)
                            } else {
                                w.next_event(Cycle(now + 1)).map(|c| c.0)
                            };
                            if w.kernel_done() {
                                now += 1;
                                break;
                            }
                        }
                        let next = Cycle(now + 1);
                        assert_eq!(
                            w.next_event(next),
                            full_scan_next_event(&r, next),
                            "cycle {now}"
                        );
                        w.check_invariants("gpu", &mut out);
                        assert!(out.is_empty(), "cycle {now}: {out:?}");
                        // The memory: each queue drains 0-2 ready requests
                        // per cycle, loads answered 1-40 cycles later.
                        for (a, b) in qw.iter_mut().zip(qr.iter_mut()) {
                            for _ in 0..rng.next_below(3) {
                                let Some(req) = a.pop_ready(t) else { break };
                                assert_eq!(b.pop_ready(t).map(|q| q.id), Some(req.id));
                                if req.wants_response() {
                                    let at = now + 1 + rng.next_below(40);
                                    inflight.push((at, MemResp::for_req(&req)));
                                }
                            }
                        }
                        now += 1;
                        assert!(now < 1_000_000, "kernel {seq} wedged");
                    }
                }
                outcome.push((now, w.stats(), w.cu_tick_stats()));
            }
            assert_eq!(outcome[0], outcome[1], "engines diverged");
        });
        let (due_visits, credit_visits) = (due_visits.get(), credit_visits.get());
        assert!(
            due_visits > 100 && credit_visits > 100,
            "{due_visits} {credit_visits}"
        );
    }

    #[test]
    fn cu_hint_wheel_invariant_names_a_lost_entry_and_a_wrong_mask() {
        let mut gpu = Gpu::new(2, CuConfig::tiny_test());
        gpu.start_kernel(
            Arc::new(KernelDesc {
                name: "valu".to_string(),
                template_id: 3,
                wgs: 4,
                wfs_per_wg: 1,
                program: KernelProgram::new(vec![Op::Valu { count: 8 }, Op::Valu { count: 1 }], 1),
                gen: Arc::new(|_: &AccessCtx| None),
            }),
            0,
        );
        let mut q: Vec<TimedQueue<MemReq>> = (0..2).map(|_| TimedQueue::new(2, 0)).collect();
        // Cycle 0 issues both 32-cycle VALUs; cycle 1 finds both CUs idle
        // with a timer hint.
        gpu.tick_tracked(Cycle(0), &mut q);
        gpu.tick_tracked(Cycle(1), &mut q);
        assert_eq!(gpu.wake_hint, vec![Cycle(32); 2]);
        let check = |gpu: &Gpu| {
            let mut out = Vec::new();
            gpu.check_invariants("gpu", &mut out);
            out
        };
        assert!(check(&gpu).is_empty());
        // The insert after CU 1's idle tick is lost: it would never be
        // ticked again, and the sweep names it.
        gpu.hints.cancel(Cycle(32), 1);
        let vs = check(&gpu);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(
            (vs[0].component.as_str(), vs[0].invariant),
            ("gpu.cu[1]", "cu_hint_wheel")
        );
        gpu.hints.insert(Cycle(32), 1);
        gpu.blocked ^= 1;
        let vs = check(&gpu);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(
            (vs[0].component.as_str(), vs[0].invariant),
            ("gpu.cu[0]", "cu_hint_wheel")
        );
        assert!(vs[0].detail.contains("blocked mask"), "{}", vs[0].detail);
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
