use crate::device::GpuStats;
use crate::program::KernelDesc;
use crate::wavefront::Wavefront;
use miopt_engine::sentinel::{InvariantViolation, Sentinel};
use miopt_engine::{AccessKind, Cycle, LineAddr, MemReq, Origin, ReqId, TimedQueue};
use std::sync::Arc;

/// Compute-unit geometry (Table 1: 4 SIMDs, 10 wavefronts per SIMD).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CuConfig {
    /// SIMD units per CU.
    pub simds: usize,
    /// Wavefront slots per SIMD unit.
    pub wf_slots_per_simd: usize,
    /// Coalesced line requests issued to the L1 per cycle.
    pub mem_issue_per_cycle: u32,
}

impl CuConfig {
    /// The paper's Table 1 CU.
    #[must_use]
    pub fn paper() -> CuConfig {
        CuConfig {
            simds: 4,
            wf_slots_per_simd: 10,
            mem_issue_per_cycle: 1,
        }
    }

    /// A small CU for unit tests (1 SIMD, 2 slots).
    #[must_use]
    pub fn tiny_test() -> CuConfig {
        CuConfig {
            simds: 1,
            wf_slots_per_simd: 2,
            mem_issue_per_cycle: 1,
        }
    }

    /// Total wavefront slots.
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.simds * self.wf_slots_per_simd
    }
}

/// One compute unit: wavefront slots grouped by SIMD, a memory issue pipe,
/// and execution statistics.
///
/// Occupancy and pending-memory state are tracked in bitmasks so that a
/// cycle's work is proportional to the *active* wavefronts, not the slot
/// count — the simulator's inner loop.
#[derive(Debug)]
pub struct Cu {
    cfg: CuConfig,
    id: u16,
    slots: Vec<Option<Wavefront>>,
    /// Per slot, the line buffer of the wavefront that last retired
    /// there, for the next one placed in it.
    spare: Vec<Vec<LineAddr>>,
    /// Bit per slot: a wavefront is resident.
    occ_mask: u64,
    /// Bit per slot: the wavefront has coalesced requests awaiting issue.
    pending_mask: u64,
    /// Whether the last [`Cu::tick`] ended with coalesced requests left
    /// and a full L1 queue. The memory pipe then has nothing to do until
    /// the queue returns a credit, which only the queue's owner can see
    /// (see [`Cu::mem_blocked`]).
    mem_blocked: bool,
    simd_busy_until: Vec<Cycle>,
    simd_rr: Vec<usize>,
    mem_rr: u32,
    req_counter: u64,
    stats: GpuStats,
}

impl Cu {
    /// Builds compute unit `id` (ids namespace request ids and must be
    /// unique).
    ///
    /// # Panics
    ///
    /// Panics if the geometry exceeds 64 wavefront slots (the bitmask
    /// width).
    #[must_use]
    pub fn new(cfg: CuConfig, id: u16) -> Cu {
        assert!(cfg.total_slots() <= 64, "at most 64 wavefront slots per CU");
        Cu {
            slots: (0..cfg.total_slots()).map(|_| None).collect(),
            spare: vec![Vec::new(); cfg.total_slots()],
            occ_mask: 0,
            pending_mask: 0,
            mem_blocked: false,
            simd_busy_until: vec![Cycle::ZERO; cfg.simds],
            simd_rr: vec![0; cfg.simds],
            mem_rr: 0,
            req_counter: 0,
            stats: GpuStats::default(),
            cfg,
            id,
        }
    }

    /// Number of empty wavefront slots.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.slots.len() - self.occ_mask.count_ones() as usize
    }

    /// Number of resident wavefronts.
    #[must_use]
    pub fn active_wavefronts(&self) -> usize {
        self.occ_mask.count_ones() as usize
    }

    /// This CU's execution counters.
    #[must_use]
    pub fn stats(&self) -> &GpuStats {
        &self.stats
    }

    /// Whether the memory pipe is blocked on L1 backpressure: the last
    /// [`Cu::tick`] left coalesced requests unissued because the L1 queue
    /// was full. Such a CU does not wake itself for them
    /// ([`Cu::next_event`] reports SIMD timers only); whoever owns the
    /// queue must tick it again on the cycle the queue has room.
    #[must_use]
    pub fn mem_blocked(&self) -> bool {
        self.mem_blocked
    }

    /// Outstanding work across resident wavefronts, for stall diagnostics:
    /// `(resident wavefronts, load responses awaited, coalesced accesses
    /// not yet issued)`.
    #[must_use]
    pub fn outstanding_ops(&self) -> (usize, u64, usize) {
        let mut loads = 0u64;
        let mut pending = 0usize;
        for wf in self.slots.iter().flatten() {
            loads += u64::from(wf.outstanding_loads());
            pending += wf.pending.len();
        }
        (self.active_wavefronts(), loads, pending)
    }

    /// Places the wavefronts of one work-group onto this CU.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer free slots than `wfs_per_wg` (the
    /// dispatcher checks [`Cu::free_slots`] first).
    pub(crate) fn assign_wg(&mut self, kernel: &Arc<KernelDesc>, kernel_seq: u32, wg: u32) {
        let all_slots = if self.slots.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.slots.len()) - 1
        };
        for wf in 0..kernel.wfs_per_wg {
            let free = !self.occ_mask & all_slots;
            assert!(free != 0, "not enough free slots for work-group");
            let idx = free.trailing_zeros() as usize;
            self.slots[idx] = Some(Wavefront::new(
                Arc::clone(kernel),
                kernel_seq,
                wg,
                wf,
                std::mem::take(&mut self.spare[idx]),
            ));
            self.occ_mask |= 1 << idx;
        }
    }

    /// Routes a load response to its wavefront. Returns whether the
    /// response released the wavefront from a waitcnt, i.e. whether the
    /// CU may now act earlier than [`Cu::next_event`] said before; a
    /// response that only lowers an outstanding count (or retires a
    /// finished wavefront) leaves every other wavefront's schedule as it
    /// was.
    pub fn on_response(&mut self, slot: u16) -> bool {
        let idx = slot as usize;
        match self.slots.get_mut(idx) {
            Some(Some(wf)) => {
                let released = wf.on_load_response();
                self.try_retire(idx);
                released
            }
            _ => {
                debug_assert!(false, "response for empty slot {slot}");
                false
            }
        }
    }

    fn try_retire(&mut self, idx: usize) {
        let finished = matches!(
            &self.slots[idx],
            Some(wf) if wf.is_done() && wf.pending.is_empty() && wf.outstanding_loads() == 0
        );
        if finished {
            let wf = self.slots[idx].take().expect("finished implies resident");
            self.spare[idx] = wf.into_lines();
            self.occ_mask &= !(1 << idx);
            self.pending_mask &= !(1 << idx);
            self.stats.retired_wavefronts += 1;
        }
    }

    /// The earliest cycle at or after `now` at which this CU might do
    /// work *on its own*, or `None` if it is empty or nothing but an
    /// external stimulus can make it act. A sleeping CU has three wake
    /// sources and only the first is reported here: a SIMD timer (a
    /// wavefront's multi-cycle op or the issue pipe freeing up), a load
    /// response ([`Cu::on_response`]), and — when [`Cu::mem_blocked`] —
    /// a credit from the L1 queue, which the queue's owner observes.
    ///
    /// Conservative in the skip-ahead sense: the CU may wake and find it
    /// still cannot issue (an extra no-op [`Cu::tick`]), but it never
    /// reports a cycle later than its first real action.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.occ_mask == 0 {
            return None;
        }
        if self.pending_mask != 0 && !self.mem_blocked {
            // The memory pipe has coalesced requests to drain and the
            // queue had room for them when the CU last looked.
            return Some(now);
        }
        // Blocked on L1 backpressure, the pending requests are not this
        // CU's event: their wavefronts' `next_wake` is `None`, so only the
        // other wavefronts' SIMD timers count below.
        let per = self.cfg.wf_slots_per_simd;
        let mut next: Option<Cycle> = None;
        for s in 0..self.cfg.simds {
            let base = s * per;
            let simd_mask = (self.occ_mask >> base) & ((1u64 << per) - 1);
            if simd_mask == 0 {
                continue;
            }
            // The SIMD can issue once it is free AND some wavefront is
            // runnable: min over wavefronts of max(pipe free, wake).
            let mut m = simd_mask;
            let mut earliest: Option<Cycle> = None;
            while m != 0 {
                let off = m.trailing_zeros() as usize;
                m &= m - 1;
                let wf = self.slots[base + off].as_ref().expect("occupied");
                if let Some(wake) = wf.next_wake(now) {
                    if earliest.is_none_or(|w| wake < w) {
                        earliest = Some(wake);
                    }
                }
            }
            if let Some(wake) = earliest {
                let at = wake.max(self.simd_busy_until[s]).max(now);
                if next.is_none_or(|n| at < n) {
                    next = Some(at);
                }
            }
        }
        next
    }

    /// Advances the CU one cycle: issues memory requests from wavefronts'
    /// coalescing buffers, then lets each idle SIMD issue one instruction.
    ///
    /// Returns whether anything was issued or retired this cycle; `false`
    /// means every resident wavefront is blocked (waiting on memory or a
    /// busy SIMD) and the CU provably did nothing.
    pub fn tick(&mut self, now: Cycle, l1_in: &mut TimedQueue<MemReq>) -> bool {
        if self.occ_mask == 0 {
            return false;
        }
        let mem = self.issue_memory(now, l1_in);
        let acted = self.issue_simds(now) || mem;
        // A no-op tick recomputes the value the flag already has: the
        // pending set is unchanged and only this CU fills the queue.
        self.mem_blocked = self.pending_mask != 0 && !l1_in.can_push();
        acted
    }

    fn issue_memory(&mut self, now: Cycle, l1_in: &mut TimedQueue<MemReq>) -> bool {
        let mut issued = 0;
        // One wavefront's coalesced group drains back-to-back before the
        // pipe rotates to the next wavefront: a vector memory instruction
        // owns the coalescer until its line requests are out, which is
        // what preserves the group's DRAM row locality downstream.
        while issued < self.cfg.mem_issue_per_cycle && self.pending_mask != 0 && l1_in.can_push() {
            let rot = self.pending_mask.rotate_right(self.mem_rr % 64);
            let idx = ((rot.trailing_zeros() + self.mem_rr) % 64) as usize;
            debug_assert!(self.pending_mask & (1 << idx) != 0);
            let wf = self.slots[idx]
                .as_mut()
                .expect("pending bit implies wavefront");
            let acc = wf.pending.front().expect("pending bit implies requests");
            let pc = wf.kernel().pc_of(acc.op_index);
            self.req_counter += 1;
            let req = MemReq {
                id: ReqId((u64::from(self.id) << 48) | self.req_counter),
                line: acc.line,
                is_store: acc.is_store,
                kind: AccessKind::Cached,
                pc,
                origin: Origin::Wavefront {
                    cu: self.id,
                    slot: idx as u16,
                },
                issue_cycle: now,
            };
            if l1_in.push(now, req).is_err() {
                break;
            }
            wf.pending.pop_front();
            if wf.pending.is_empty() {
                self.pending_mask &= !(1 << idx);
                self.try_retire(idx);
                // Group drained: rotate to the next wavefront.
                self.mem_rr = (idx as u32 + 1) % 64;
            } else {
                // Keep draining this wavefront's group.
                self.mem_rr = idx as u32;
            }
            if acc.is_store {
                self.stats.line_stores += 1;
            } else {
                self.stats.line_loads += 1;
            }
            issued += 1;
        }
        issued > 0
    }

    pub(crate) fn check_masks(&self, component: &str, out: &mut Vec<InvariantViolation>) {
        for (idx, slot) in self.slots.iter().enumerate() {
            let occ = self.occ_mask & (1 << idx) != 0;
            let pend = self.pending_mask & (1 << idx) != 0;
            if occ != slot.is_some() {
                out.push(InvariantViolation {
                    component: component.to_string(),
                    invariant: "occupancy_mask",
                    detail: format!(
                        "slot {idx}: occ_mask says {occ} but slot is {}",
                        if slot.is_some() { "occupied" } else { "empty" }
                    ),
                });
            }
            let has_pending = slot.as_ref().is_some_and(|wf| !wf.pending.is_empty());
            if pend != has_pending {
                out.push(InvariantViolation {
                    component: component.to_string(),
                    invariant: "pending_mask",
                    detail: format!(
                        "slot {idx}: pending_mask says {pend} but wavefront has {} \
                         unissued coalesced accesses",
                        slot.as_ref().map_or(0, |wf| wf.pending.len())
                    ),
                });
            }
            // A wavefront with no work left must have been retired on the
            // spot (its slot freed and the retirement counter bumped); a
            // resident one means a retirement was lost.
            let should_have_retired = slot.as_ref().is_some_and(|wf| {
                wf.is_done() && wf.pending.is_empty() && wf.outstanding_loads() == 0
            });
            if should_have_retired {
                out.push(InvariantViolation {
                    component: component.to_string(),
                    invariant: "retirement_exactness",
                    detail: format!("slot {idx}: finished wavefront was never retired"),
                });
            }
        }
    }

    /// The `blocked_cu_wake` invariant, checked between cycles by
    /// [`crate::Gpu::check_blocked_cu_wake`]: the memory-blocked flag
    /// implies unissued requests, and a CU that is `asleep` (its wake
    /// hint is clean and not due, so it will not be ticked on its own)
    /// must not hold unissued requests facing a queue with room — either
    /// the flag was lost, or the credit wake was. Without this a lost
    /// wake surfaces only as a watchdog wedge long after the fact.
    pub(crate) fn check_blocked_wake(
        &self,
        asleep: bool,
        queue_has_room: bool,
        component: &str,
        out: &mut Vec<InvariantViolation>,
    ) {
        let pending = self.pending_mask.count_ones();
        let detail = if self.mem_blocked && pending == 0 {
            "flagged memory-blocked with no unissued coalesced access".to_string()
        } else if asleep && pending != 0 && queue_has_room {
            format!(
                "asleep with {pending} wavefront(s) holding unissued accesses and room \
                 in the L1 queue (memory-blocked flag {})",
                self.mem_blocked
            )
        } else {
            return;
        };
        out.push(InvariantViolation {
            component: component.to_string(),
            invariant: "blocked_cu_wake",
            detail,
        });
    }

    fn issue_simds(&mut self, now: Cycle) -> bool {
        let mut any = false;
        let per = self.cfg.wf_slots_per_simd;
        for s in 0..self.cfg.simds {
            if self.simd_busy_until[s] > now {
                continue;
            }
            let base = s * per;
            let simd_mask = (self.occ_mask >> base) & ((1u64 << per) - 1);
            if simd_mask == 0 {
                continue;
            }
            let start = self.simd_rr[s];
            for k in 0..per {
                let off = (start + k) % per;
                if simd_mask & (1 << off) == 0 {
                    continue;
                }
                let idx = base + off;
                let wf = self.slots[idx].as_mut().expect("occupied");
                if wf.next_wake(now) == Some(now) {
                    let (occupancy, lane_ops) = wf.issue(now);
                    if !wf.pending.is_empty() {
                        self.pending_mask |= 1 << idx;
                    }
                    self.simd_busy_until[s] = now + occupancy;
                    self.stats.valu_lane_ops += lane_ops;
                    self.simd_rr[s] = (off + 1) % per;
                    if wf.is_done() {
                        self.try_retire(idx);
                    }
                    any = true;
                    break;
                }
            }
        }
        any
    }
}

impl Sentinel for Cu {
    fn check_invariants(&self, component: &str, out: &mut Vec<InvariantViolation>) {
        self.check_masks(component, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{AccessCtx, AddrGen, KernelProgram, Op};
    use miopt_engine::Addr;

    fn kernel(body: Vec<Op>, iters: u32, wfs_per_wg: u32) -> Arc<KernelDesc> {
        let gen: Arc<dyn AddrGen> = Arc::new(|ctx: &AccessCtx| {
            Some(Addr(
                u64::from(ctx.wg) * 65536
                    + u64::from(ctx.wf) * 4096
                    + u64::from(ctx.iter) * 256
                    + u64::from(ctx.lane) * 4,
            ))
        });
        Arc::new(KernelDesc {
            name: "test".to_string(),
            template_id: 1,
            wgs: 1,
            wfs_per_wg,
            program: KernelProgram::new(body, iters),
            gen,
        })
    }

    fn retired_after(cu: &mut Cu, q: &mut TimedQueue<MemReq>, cycles: std::ops::Range<u64>) -> u64 {
        let before = cu.stats().retired_wavefronts;
        for c in cycles {
            cu.tick(Cycle(c), q);
        }
        cu.stats().retired_wavefronts - before
    }

    #[test]
    fn compute_only_kernel_retires_without_memory() {
        let mut cu = Cu::new(CuConfig::tiny_test(), 0);
        let k = kernel(vec![Op::Valu { count: 2 }], 3, 1);
        cu.assign_wg(&k, 0, 0);
        let mut q = TimedQueue::new(8, 0);
        let retired = retired_after(&mut cu, &mut q, 0..100);
        assert_eq!(retired, 1);
        assert_eq!(cu.stats().valu_lane_ops, 2 * 64 * 3);
        assert!(q.is_empty());
        assert_eq!(cu.active_wavefronts(), 0);
    }

    #[test]
    fn memory_kernel_issues_and_waits_for_responses() {
        let mut cu = Cu::new(CuConfig::tiny_test(), 3);
        let k = kernel(vec![Op::Load { pattern: 0 }, Op::WaitCnt { max: 0 }], 1, 1);
        cu.assign_wg(&k, 0, 0);
        let mut q = TimedQueue::new(64, 0);
        for c in 0..10 {
            cu.tick(Cycle(c), &mut q);
        }
        assert_eq!(cu.stats().line_loads, 4);
        assert_eq!(cu.active_wavefronts(), 1, "blocked on waitcnt");
        let mut slots = Vec::new();
        while let Some(r) = q.pop_ready(Cycle(10)) {
            match r.origin {
                Origin::Wavefront { cu: c, slot } => {
                    assert_eq!(c, 3);
                    slots.push(slot);
                }
                Origin::Internal => panic!("wavefront requests carry origins"),
            }
        }
        for s in slots {
            cu.on_response(s);
        }
        let retired = retired_after(&mut cu, &mut q, 10..20);
        assert_eq!(retired, 1);
    }

    #[test]
    fn two_wavefronts_hide_each_others_latency() {
        let mut cu = Cu::new(CuConfig::tiny_test(), 0);
        let k = kernel(
            vec![
                Op::Load { pattern: 0 },
                Op::WaitCnt { max: 0 },
                Op::Valu { count: 1 },
            ],
            1,
            2,
        );
        cu.assign_wg(&k, 0, 0);
        let mut q = TimedQueue::new(64, 0);
        for c in 0..10 {
            cu.tick(Cycle(c), &mut q);
        }
        assert_eq!(cu.stats().line_loads, 8);
        assert_eq!(cu.active_wavefronts(), 2);
    }

    #[test]
    fn mem_issue_rate_is_limited() {
        let mut cu = Cu::new(CuConfig::tiny_test(), 0);
        let k = kernel(vec![Op::Load { pattern: 0 }, Op::WaitCnt { max: 0 }], 1, 1);
        cu.assign_wg(&k, 0, 0);
        let mut q = TimedQueue::new(64, 0);
        cu.tick(Cycle(0), &mut q);
        let after_first = q.len();
        cu.tick(Cycle(1), &mut q);
        let after_second = q.len();
        assert!(after_second - after_first <= 1, "1 line request per cycle");
    }

    #[test]
    fn requests_have_stable_pcs() {
        let mut cu = Cu::new(CuConfig::tiny_test(), 0);
        let k = kernel(vec![Op::Load { pattern: 0 }], 2, 1);
        cu.assign_wg(&k, 0, 0);
        let mut q = TimedQueue::new(64, 0);
        for c in 0..20 {
            cu.tick(Cycle(c), &mut q);
        }
        let pcs: Vec<_> = q.drain_all().map(|r| r.pc).collect();
        assert!(!pcs.is_empty());
        assert!(
            pcs.windows(2).all(|w| w[0] == w[1]),
            "same static instruction"
        );
    }

    #[test]
    fn backpressure_pauses_issue_without_losing_requests() {
        let mut cu = Cu::new(CuConfig::tiny_test(), 0);
        let k = kernel(vec![Op::Load { pattern: 0 }, Op::WaitCnt { max: 0 }], 1, 1);
        cu.assign_wg(&k, 0, 0);
        let mut q = TimedQueue::new(1, 0);
        let mut total = 0;
        for c in 0..50 {
            cu.tick(Cycle(c), &mut q);
            total += q.drain_all().count();
        }
        assert_eq!(total, 4, "all coalesced requests eventually issue");
    }

    /// A CU whose memory pipe faces a full L1 queue does not wake itself:
    /// its tick is a no-op and `next_event` is silent until the queue
    /// returns a credit, and then the request issues on that very cycle.
    #[test]
    fn backpressured_cu_sleeps_until_a_credit_returns() {
        let mut cu = Cu::new(CuConfig::tiny_test(), 0);
        let k = kernel(vec![Op::Load { pattern: 0 }, Op::WaitCnt { max: 0 }], 1, 1);
        cu.assign_wg(&k, 0, 0);
        let mut q = TimedQueue::new(1, 0);
        assert!(cu.tick(Cycle(0), &mut q), "the load coalesces into 4 lines");
        assert!(!cu.mem_blocked(), "the queue still has room");
        assert_eq!(cu.next_event(Cycle(1)), Some(Cycle(1)));
        assert!(cu.tick(Cycle(1), &mut q), "first line issues");
        assert!(cu.mem_blocked(), "3 lines left and the queue is full");
        assert_eq!(cu.next_event(Cycle(2)), None, "no self-wake");
        let before = (cu.stats().line_loads, q.pushed());
        assert!(!cu.tick(Cycle(2), &mut q), "a skippable no-op");
        assert!(cu.mem_blocked());
        assert_eq!((cu.stats().line_loads, q.pushed()), before);
        assert!(q.pop_ready(Cycle(3)).is_some(), "the L1 returns a credit");
        assert!(cu.tick(Cycle(3), &mut q), "the request issues that cycle");
        assert_eq!(cu.stats().line_loads, 2);
        assert!(cu.mem_blocked(), "and the queue is full again");
    }

    /// SIMD timers of the other wavefronts still count while the memory
    /// pipe is blocked.
    #[test]
    fn blocked_cu_still_reports_simd_timers() {
        let mut cu = Cu::new(CuConfig::tiny_test(), 0);
        let body = vec![
            Op::Load { pattern: 0 },
            Op::Valu { count: 5 },
            Op::Valu { count: 1 },
        ];
        cu.assign_wg(&kernel(body, 1, 2), 0, 0);
        let mut q = TimedQueue::new(1, 0);
        // Cycle 0: wf0 loads. 1: wf0's first line fills the queue, wf1
        // loads. 2: neither can run its VALU with lines still pending —
        // the CU is blocked with nothing on a timer.
        for c in 0..3 {
            cu.tick(Cycle(c), &mut q);
        }
        assert!(cu.mem_blocked());
        assert_eq!(cu.next_event(Cycle(3)), None);
        // Return credits until wf0's lines are out and its 20-cycle VALU
        // issues; wf1's lines are then stuck behind the full queue.
        let mut now = 3;
        while cu.stats().valu_lane_ops == 0 {
            q.pop_ready(Cycle(now));
            cu.tick(Cycle(now), &mut q);
            now += 1;
            assert!(now < 50);
        }
        let valu_done = Cycle(now - 1 + 20);
        assert!(!cu.tick(Cycle(now), &mut q));
        assert!(cu.mem_blocked(), "wf1 still has lines to issue");
        assert_eq!(
            cu.next_event(Cycle(now)),
            Some(valu_done),
            "wf0's next VALU is a timer; wf1's lines are not"
        );
    }

    #[test]
    fn blocked_cu_wake_invariant_names_a_wrong_flag() {
        let mut cu = Cu::new(CuConfig::tiny_test(), 0);
        let k = kernel(vec![Op::Load { pattern: 0 }, Op::WaitCnt { max: 0 }], 1, 1);
        cu.assign_wg(&k, 0, 0);
        let mut q = TimedQueue::new(1, 0);
        cu.tick(Cycle(0), &mut q);
        cu.tick(Cycle(1), &mut q);
        let check = |cu: &Cu, asleep: bool, room: bool| {
            let mut out = Vec::new();
            cu.check_blocked_wake(asleep, room, "cu[0]", &mut out);
            out
        };
        // Healthy: blocked, asleep, queue full.
        assert!(check(&cu, true, false).is_empty());
        // A credit came back and nobody ticked the CU (a lost wake), or
        // the flag was lost so nobody knows to: same symptom, one name.
        for flag in [true, false] {
            cu.mem_blocked = flag;
            let vs = check(&cu, true, true);
            assert_eq!(vs.len(), 1, "{vs:?}");
            assert_eq!(vs[0].invariant, "blocked_cu_wake");
            assert_eq!(vs[0].component, "cu[0]");
            // Awake, the CU is about to be ticked: nothing is lost yet.
            assert!(check(&cu, false, true).is_empty());
        }
        // Flagged blocked with nothing left to issue.
        while q.pop_ready(Cycle(2)).is_some() || cu.pending_mask != 0 {
            cu.tick(Cycle(2), &mut q);
        }
        assert!(check(&cu, true, true).is_empty());
        cu.mem_blocked = true;
        let vs = check(&cu, false, false);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].detail.contains("no unissued"), "{}", vs[0].detail);
    }

    /// Drives a mixed compute/memory kernel cycle by cycle and checks the
    /// skip-ahead contract: whenever the tick produces an observable
    /// action, the CU must have predicted an event at exactly that cycle.
    #[test]
    fn next_event_never_skips_an_acting_cycle() {
        let mut cu = Cu::new(CuConfig::tiny_test(), 0);
        assert_eq!(cu.next_event(Cycle(0)), None, "empty CU sleeps");
        let k = kernel(
            vec![
                Op::Valu { count: 5 },
                Op::Load { pattern: 0 },
                Op::WaitCnt { max: 0 },
            ],
            1,
            1,
        );
        cu.assign_wg(&k, 0, 0);
        let mut q = TimedQueue::new(64, 0);
        let mut now = Cycle(0);
        while cu.active_wavefronts() > 0 && now.0 < 1000 {
            let predicted = cu.next_event(now);
            let before = (
                q.len(),
                cu.stats().valu_lane_ops,
                cu.stats().line_loads,
                cu.stats().retired_wavefronts,
            );
            cu.tick(now, &mut q);
            let after = (
                q.len(),
                cu.stats().valu_lane_ops,
                cu.stats().line_loads,
                cu.stats().retired_wavefronts,
            );
            if before != after {
                assert_eq!(predicted, Some(now), "acted at {now} unpredicted");
            }
            while let Some(r) = q.pop_ready(now) {
                if let Origin::Wavefront { slot, .. } = r.origin {
                    if !r.is_store {
                        cu.on_response(slot);
                    }
                }
            }
            now += 1;
        }
        assert_eq!(cu.stats().retired_wavefronts, 1);
        assert_eq!(cu.next_event(now), None, "retired CU sleeps");
    }

    #[test]
    fn masks_track_occupancy() {
        let mut cu = Cu::new(CuConfig::tiny_test(), 0);
        assert_eq!(cu.free_slots(), 2);
        let k = kernel(vec![Op::Valu { count: 1 }], 1, 2);
        cu.assign_wg(&k, 0, 0);
        assert_eq!(cu.free_slots(), 0);
        assert_eq!(cu.active_wavefronts(), 2);
        let mut q = TimedQueue::new(8, 0);
        for c in 0..10 {
            cu.tick(Cycle(c), &mut q);
        }
        assert_eq!(cu.free_slots(), 2);
    }
}
