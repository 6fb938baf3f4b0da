use crate::program::{AccessCtx, KernelDesc, Op};
use miopt_engine::{Cycle, LineAddr};
use std::collections::VecDeque;
use std::sync::Arc;

/// A coalesced line request awaiting issue to the L1, tagged with the
/// instruction that produced it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingAccess {
    pub(crate) line: LineAddr,
    pub(crate) is_store: bool,
    pub(crate) op_index: usize,
}

/// Why a wavefront cannot issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WfState {
    /// Finished its program.
    Done,
    /// Occupied by a multi-cycle op or waiting on loads/coalesced issue.
    Waiting,
    /// Can issue its next instruction.
    Ready,
}

/// One wavefront executing a kernel program.
#[derive(Debug)]
pub(crate) struct Wavefront {
    kernel: Arc<KernelDesc>,
    kernel_seq: u32,
    wg: u32,
    wf: u32,
    ip: usize,
    iter: u32,
    busy_until: Cycle,
    outstanding_loads: u32,
    pub(crate) pending: VecDeque<PendingAccess>,
    done: bool,
    /// Scratch for the coalescer, kept alive across instructions so
    /// steady-state execution allocates nothing per memory op.
    coalesce_scratch: Vec<LineAddr>,
}

impl Wavefront {
    pub(crate) fn new(kernel: Arc<KernelDesc>, kernel_seq: u32, wg: u32, wf: u32) -> Wavefront {
        Wavefront {
            kernel,
            kernel_seq,
            wg,
            wf,
            ip: 0,
            iter: 0,
            busy_until: Cycle::ZERO,
            outstanding_loads: 0,
            // One instruction's coalesced group is at most one line per
            // lane; sizing both buffers for that worst case up front means
            // a wavefront never allocates again after construction.
            pending: VecDeque::with_capacity(64),
            done: false,
            coalesce_scratch: Vec::with_capacity(64),
        }
    }

    pub(crate) fn kernel(&self) -> &Arc<KernelDesc> {
        &self.kernel
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    pub(crate) fn outstanding_loads(&self) -> u32 {
        self.outstanding_loads
    }

    /// A load response arrived. Returns whether it released the wavefront
    /// from the [`Op::WaitCnt`] it was blocked at — the only way a
    /// response changes [`Wavefront::state`] or [`Wavefront::next_wake`],
    /// which otherwise do not read the outstanding count.
    pub(crate) fn on_load_response(&mut self) -> bool {
        debug_assert!(
            self.outstanding_loads > 0,
            "response without outstanding load"
        );
        self.outstanding_loads = self.outstanding_loads.saturating_sub(1);
        !self.done
            && matches!(
                self.kernel.program.body[self.ip],
                Op::WaitCnt { max } if self.outstanding_loads == u32::from(max)
            )
    }

    pub(crate) fn state(&self, now: Cycle) -> WfState {
        if self.done {
            return WfState::Done;
        }
        if !self.pending.is_empty() || self.busy_until > now {
            return WfState::Waiting;
        }
        match self.kernel.program.body[self.ip] {
            Op::WaitCnt { max } if self.outstanding_loads > u32::from(max) => WfState::Waiting,
            _ => WfState::Ready,
        }
    }

    /// The earliest cycle at or after `now` at which this wavefront might
    /// issue, or `None` if only an external stimulus (a load response, the
    /// memory pipe draining `pending`) can make it runnable.
    ///
    /// The estimate is conservative: waking a wavefront that turns out to
    /// still be blocked costs one idle scheduler check, while sleeping past
    /// a runnable cycle would corrupt timing — so ties resolve toward
    /// waking early.
    pub(crate) fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        if self.done {
            // Retirement is driven by responses / the memory pipe.
            return None;
        }
        if !self.pending.is_empty() {
            // Drained by the CU's memory pipe, which is active while
            // `pending_mask` is set — the CU reports `now` itself.
            return None;
        }
        if self.busy_until > now {
            return Some(self.busy_until);
        }
        match self.kernel.program.body[self.ip] {
            Op::WaitCnt { max } if self.outstanding_loads > u32::from(max) => None,
            _ => Some(now),
        }
    }

    /// Issues the instruction at `ip`. Only call when
    /// [`state`](Wavefront::state) is [`WfState::Ready`]. Returns the
    /// SIMD-pipe occupancy in cycles and the VALU lane-ops executed.
    pub(crate) fn issue(&mut self, now: Cycle) -> (u64, u64) {
        debug_assert_eq!(self.state(now), WfState::Ready);
        let op = self.kernel.program.body[self.ip];
        let (occupancy, lane_ops) = match op {
            Op::Valu { count } => {
                // GCN issues a 64-wide wavefront over a 16-lane SIMD in 4
                // cycles per VALU instruction.
                let c = u64::from(count) * 4;
                self.busy_until = now + c;
                (c, u64::from(count) * 64)
            }
            Op::Lds { cycles } => {
                let c = u64::from(cycles);
                self.busy_until = now + c;
                (c, 0)
            }
            Op::Load { pattern } => {
                self.coalesce_into_pending(pattern, false);
                (1, 0)
            }
            Op::Store { pattern } => {
                self.coalesce_into_pending(pattern, true);
                (1, 0)
            }
            Op::WaitCnt { .. } => (1, 0),
        };
        self.advance();
        (occupancy, lane_ops)
    }

    fn coalesce_into_pending(&mut self, pattern: u16, is_store: bool) {
        let op_index = self.ip;
        let mut scratch = std::mem::take(&mut self.coalesce_scratch);
        self.kernel.gen.lines_into(
            &AccessCtx {
                kernel_seq: self.kernel_seq,
                wg: self.wg,
                wf: self.wf,
                lane: 0,
                iter: self.iter,
                pattern,
            },
            &mut scratch,
        );
        for &line in &scratch {
            self.pending.push_back(PendingAccess {
                line,
                is_store,
                op_index,
            });
            if !is_store {
                self.outstanding_loads += 1;
            }
        }
        self.coalesce_scratch = scratch;
    }

    fn advance(&mut self) {
        self.ip += 1;
        if self.ip == self.kernel.program.body.len() {
            self.ip = 0;
            self.iter += 1;
            if self.iter == self.kernel.program.iters {
                self.done = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{AddrGen, KernelProgram};
    use miopt_engine::Addr;

    fn kernel(body: Vec<Op>, iters: u32) -> Arc<KernelDesc> {
        let gen: Arc<dyn AddrGen> = Arc::new(|ctx: &AccessCtx| {
            Some(Addr(u64::from(ctx.iter) * 256 + u64::from(ctx.lane) * 4))
        });
        Arc::new(KernelDesc {
            name: "test".to_string(),
            template_id: 1,
            wgs: 1,
            wfs_per_wg: 1,
            program: KernelProgram::new(body, iters),
            gen,
        })
    }

    #[test]
    fn valu_occupies_pipe_and_counts_ops() {
        let mut wf = Wavefront::new(kernel(vec![Op::Valu { count: 4 }], 1), 0, 0, 0);
        assert_eq!(wf.state(Cycle(0)), WfState::Ready);
        let (occ, ops) = wf.issue(Cycle(0));
        assert_eq!(occ, 16, "4 SIMD cycles per 64-wide VALU instruction");
        assert_eq!(ops, 256);
        assert!(wf.is_done());
    }

    #[test]
    fn load_coalesces_and_tracks_outstanding() {
        let mut wf = Wavefront::new(
            kernel(vec![Op::Load { pattern: 0 }, Op::WaitCnt { max: 0 }], 1),
            0,
            0,
            0,
        );
        wf.issue(Cycle(0));
        assert_eq!(wf.pending.len(), 4); // 64 lanes x 4 B = 4 lines
        assert_eq!(wf.outstanding_loads(), 4);
        // Waiting: pending requests must issue first.
        assert_eq!(wf.state(Cycle(1)), WfState::Waiting);
        wf.pending.clear();
        // Still waiting on the waitcnt until responses arrive.
        assert_eq!(wf.state(Cycle(1)), WfState::Waiting);
        for _ in 0..4 {
            wf.on_load_response();
        }
        assert_eq!(wf.state(Cycle(1)), WfState::Ready);
        wf.issue(Cycle(1)); // the waitcnt retires
        assert!(wf.is_done());
    }

    #[test]
    fn iterations_advance_addresses() {
        let mut wf = Wavefront::new(kernel(vec![Op::Load { pattern: 0 }], 2), 0, 0, 0);
        wf.issue(Cycle(0));
        let first: Vec<_> = wf.pending.drain(..).map(|p| p.line).collect();
        assert!(!wf.is_done());
        wf.issue(Cycle(1));
        let second: Vec<_> = wf.pending.drain(..).map(|p| p.line).collect();
        assert_ne!(first, second, "iter feeds the address generator");
        assert!(wf.is_done());
    }

    #[test]
    fn multicycle_op_delays_next_issue() {
        let mut wf = Wavefront::new(
            kernel(vec![Op::Valu { count: 10 }, Op::Valu { count: 1 }], 1),
            0,
            0,
            0,
        );
        wf.issue(Cycle(0));
        assert_eq!(wf.state(Cycle(20)), WfState::Waiting);
        assert_eq!(wf.state(Cycle(40)), WfState::Ready);
    }

    #[test]
    fn waitcnt_allows_partial_outstanding() {
        let mut wf = Wavefront::new(
            kernel(vec![Op::Load { pattern: 0 }, Op::WaitCnt { max: 4 }], 1),
            0,
            0,
            0,
        );
        wf.issue(Cycle(0));
        wf.pending.clear();
        // 4 outstanding <= max 4: ready immediately.
        assert_eq!(wf.state(Cycle(1)), WfState::Ready);
    }

    #[test]
    fn next_wake_tracks_the_blocking_reason() {
        let mut wf = Wavefront::new(
            kernel(
                vec![
                    Op::Valu { count: 10 },
                    Op::Load { pattern: 0 },
                    Op::WaitCnt { max: 0 },
                ],
                1,
            ),
            0,
            0,
            0,
        );
        assert_eq!(wf.next_wake(Cycle(0)), Some(Cycle(0)), "ready to issue");
        wf.issue(Cycle(0)); // VALU occupies the wavefront for 40 cycles.
        assert_eq!(wf.next_wake(Cycle(1)), Some(Cycle(40)));
        wf.issue(Cycle(40)); // Load fills the coalescing buffer.
        assert_eq!(
            wf.next_wake(Cycle(41)),
            None,
            "pending issue is the memory pipe's event, not a timer"
        );
        wf.pending.clear();
        assert_eq!(
            wf.next_wake(Cycle(41)),
            None,
            "blocked waitcnt wakes on a response, not a cycle"
        );
        for _ in 0..4 {
            wf.on_load_response();
        }
        assert_eq!(wf.next_wake(Cycle(41)), Some(Cycle(41)));
        wf.issue(Cycle(41)); // The waitcnt retires the program.
        assert_eq!(wf.next_wake(Cycle(42)), None, "done wavefronts sleep");
    }

    #[test]
    fn stores_do_not_count_outstanding_loads() {
        let mut wf = Wavefront::new(kernel(vec![Op::Store { pattern: 0 }], 1), 0, 0, 0);
        wf.issue(Cycle(0));
        assert_eq!(wf.outstanding_loads(), 0);
        assert_eq!(wf.pending.len(), 4);
        assert!(wf.pending.iter().all(|p| p.is_store));
    }
}
