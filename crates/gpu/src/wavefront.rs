use crate::program::{AccessCtx, KernelDesc, Op};
use miopt_engine::{Cycle, LineAddr};
use std::sync::Arc;

/// A coalesced line request awaiting issue to the L1, tagged with the
/// instruction that produced it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingAccess {
    pub(crate) line: LineAddr,
    pub(crate) is_store: bool,
    pub(crate) op_index: usize,
}

/// The coalesced line requests of the vector memory instruction a
/// wavefront has awaiting issue, front first. There is at most one such
/// instruction: a wavefront with lines pending issues nothing else until
/// they are out, so its lines share one store flag and one op index.
#[derive(Debug, Default)]
pub(crate) struct PendingGroup {
    /// The instruction's lines, in first-touch order; the wavefront's
    /// only heap buffer, kept across its instructions.
    lines: Vec<LineAddr>,
    /// Lines before this index have issued.
    next: usize,
    is_store: bool,
    op_index: usize,
}

impl PendingGroup {
    pub(crate) fn is_empty(&self) -> bool {
        self.next == self.lines.len()
    }

    pub(crate) fn len(&self) -> usize {
        self.lines.len() - self.next
    }

    pub(crate) fn front(&self) -> Option<PendingAccess> {
        self.lines.get(self.next).map(|&line| PendingAccess {
            line,
            is_store: self.is_store,
            op_index: self.op_index,
        })
    }

    /// Marks the front line issued.
    pub(crate) fn pop_front(&mut self) {
        debug_assert!(!self.is_empty(), "pop from an empty group");
        self.next += 1;
    }
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
    pub(crate) pending: PendingGroup,
    done: bool,
}

impl Wavefront {
    /// A wavefront at the start of its program. `lines` is the line
    /// buffer of one that retired before it, so that placing a wavefront
    /// in a slot allocates only the first time (an empty `Vec` at first).
    pub(crate) fn new(
        kernel: Arc<KernelDesc>,
        kernel_seq: u32,
        wg: u32,
        wf: u32,
        mut lines: Vec<LineAddr>,
    ) -> Wavefront {
        // One instruction's coalesced group is at most one line per lane:
        // sized for that once, the buffer never grows.
        lines.clear();
        lines.reserve(64);
        Wavefront {
            kernel,
            kernel_seq,
            wg,
            wf,
            ip: 0,
            iter: 0,
            busy_until: Cycle::ZERO,
            outstanding_loads: 0,
            pending: PendingGroup {
                lines,
                ..PendingGroup::default()
            },
            done: false,
        }
    }

    /// Retires the wavefront, returning its line buffer for reuse.
    pub(crate) fn into_lines(self) -> Vec<LineAddr> {
        self.pending.lines
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
    /// response changes [`Wavefront::next_wake`], which otherwise does
    /// not read the outstanding count.
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

    /// The earliest cycle at or after `now` at which this wavefront might
    /// issue, or `None` if only an external stimulus (a load response, the
    /// memory pipe draining `pending`) can make it runnable. The
    /// wavefront can issue at `now` exactly when this is `Some(now)`.
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
    /// [`next_wake`](Wavefront::next_wake) is `Some(now)`. Returns the
    /// SIMD-pipe occupancy in cycles and the VALU lane-ops executed.
    pub(crate) fn issue(&mut self, now: Cycle) -> (u64, u64) {
        debug_assert_eq!(self.next_wake(now), Some(now));
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
        debug_assert!(self.pending.is_empty(), "issued over a pending group");
        let p = &mut self.pending;
        self.kernel.gen.lines_into(
            &AccessCtx {
                kernel_seq: self.kernel_seq,
                wg: self.wg,
                wf: self.wf,
                lane: 0,
                iter: self.iter,
                pattern,
            },
            &mut p.lines,
        );
        p.next = 0;
        p.is_store = is_store;
        p.op_index = self.ip;
        if !is_store {
            self.outstanding_loads += p.lines.len() as u32;
        }
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

    /// Whether `wf` can issue at `now`.
    fn ready(wf: &Wavefront, now: Cycle) -> bool {
        wf.next_wake(now) == Some(now)
    }

    /// Issues every pending line, returning them in issue order.
    fn drain(wf: &mut Wavefront) -> Vec<LineAddr> {
        let mut lines = Vec::new();
        while let Some(p) = wf.pending.front() {
            lines.push(p.line);
            wf.pending.pop_front();
        }
        lines
    }

    #[test]
    fn valu_occupies_pipe_and_counts_ops() {
        let mut wf = Wavefront::new(kernel(vec![Op::Valu { count: 4 }], 1), 0, 0, 0, Vec::new());
        assert!(ready(&wf, Cycle(0)));
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
            Vec::new(),
        );
        wf.issue(Cycle(0));
        assert_eq!(wf.pending.len(), 4); // 64 lanes x 4 B = 4 lines
        assert_eq!(wf.outstanding_loads(), 4);
        // Waiting: pending requests must issue first.
        assert!(!ready(&wf, Cycle(1)));
        drain(&mut wf);
        // Still waiting on the waitcnt until responses arrive.
        assert!(!ready(&wf, Cycle(1)));
        for _ in 0..4 {
            wf.on_load_response();
        }
        assert!(ready(&wf, Cycle(1)));
        wf.issue(Cycle(1)); // the waitcnt retires
        assert!(wf.is_done());
    }

    #[test]
    fn iterations_advance_addresses() {
        let mut wf = Wavefront::new(
            kernel(vec![Op::Load { pattern: 0 }], 2),
            0,
            0,
            0,
            Vec::new(),
        );
        wf.issue(Cycle(0));
        let first = drain(&mut wf);
        assert!(!wf.is_done());
        wf.issue(Cycle(1));
        let second = drain(&mut wf);
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
            Vec::new(),
        );
        wf.issue(Cycle(0));
        assert!(!ready(&wf, Cycle(20)));
        assert!(ready(&wf, Cycle(40)));
    }

    #[test]
    fn waitcnt_allows_partial_outstanding() {
        let mut wf = Wavefront::new(
            kernel(vec![Op::Load { pattern: 0 }, Op::WaitCnt { max: 4 }], 1),
            0,
            0,
            0,
            Vec::new(),
        );
        wf.issue(Cycle(0));
        drain(&mut wf);
        // 4 outstanding <= max 4: ready immediately.
        assert!(ready(&wf, Cycle(1)));
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
            Vec::new(),
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
        drain(&mut wf);
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
    fn a_retired_line_buffer_is_reused_as_it_is() {
        let k = kernel(vec![Op::Load { pattern: 0 }], 1);
        let mut wf = Wavefront::new(Arc::clone(&k), 0, 0, 0, Vec::new());
        wf.issue(Cycle(0));
        assert_eq!(wf.pending.len(), 4);
        let buffer = wf.pending.lines.as_ptr();
        let wf = Wavefront::new(k, 1, 0, 0, wf.into_lines());
        assert!(wf.pending.is_empty());
        assert!(wf.pending.lines.capacity() >= 64);
        assert_eq!(wf.pending.lines.as_ptr(), buffer, "same allocation");
    }

    #[test]
    fn stores_do_not_count_outstanding_loads() {
        let mut wf = Wavefront::new(
            kernel(vec![Op::Store { pattern: 0 }], 1),
            0,
            0,
            0,
            Vec::new(),
        );
        wf.issue(Cycle(0));
        assert_eq!(wf.outstanding_loads(), 0);
        assert_eq!(wf.pending.len(), 4);
        assert!(wf.pending.front().is_some_and(|p| p.is_store));
    }
}
