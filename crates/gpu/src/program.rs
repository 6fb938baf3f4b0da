use miopt_engine::{Addr, LineAddr, Pc};
use std::fmt;
use std::sync::Arc;

/// One instruction of a wavefront program.
///
/// Programs are deliberately small: they model the *shape* of a kernel's
/// inner loop (arithmetic density, memory instructions, synchronization),
/// not its semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `count` back-to-back vector ALU instructions; occupies the SIMD
    /// issue pipe for `count` cycles and contributes `64 * count` vector
    /// operations to the GVOPS metric.
    Valu {
        /// Number of consecutive VALU instructions.
        count: u32,
    },
    /// A vector load; lane addresses come from the kernel's [`AddrGen`]
    /// with this pattern slot.
    Load {
        /// Pattern slot passed to the address generator.
        pattern: u16,
    },
    /// A vector store (same addressing as [`Op::Load`]).
    Store {
        /// Pattern slot passed to the address generator.
        pattern: u16,
    },
    /// LDS (scratchpad) traffic; occupies the issue pipe like `Valu` but
    /// contributes no vector ops or memory requests.
    Lds {
        /// Occupancy in cycles.
        cycles: u32,
    },
    /// Block until outstanding loads of this wavefront are `<= max`
    /// (the GCN `s_waitcnt vmcnt(max)` idiom).
    WaitCnt {
        /// Maximum outstanding loads allowed to proceed.
        max: u8,
    },
}

/// A wavefront program: a loop body executed `iters` times.
#[derive(Debug, Clone)]
pub struct KernelProgram {
    /// The loop body.
    pub body: Vec<Op>,
    /// Iterations of the body per wavefront.
    pub iters: u32,
}

impl KernelProgram {
    /// Builds a program.
    ///
    /// # Panics
    ///
    /// Panics if the body is empty or `iters` is zero.
    #[must_use]
    pub fn new(body: Vec<Op>, iters: u32) -> KernelProgram {
        assert!(!body.is_empty(), "program body must be nonempty");
        assert!(iters > 0, "program must iterate at least once");
        KernelProgram { body, iters }
    }

    /// Total VALU lane-operations one wavefront will execute.
    #[must_use]
    pub fn valu_lane_ops(&self) -> u64 {
        let per_iter: u64 = self
            .body
            .iter()
            .map(|op| match op {
                Op::Valu { count } => u64::from(*count) * 64,
                _ => 0,
            })
            .sum();
        per_iter * u64::from(self.iters)
    }
}

/// Everything an address generator may condition on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCtx {
    /// Kernel launch sequence number within the workload (distinguishes
    /// e.g. RNN timesteps).
    pub kernel_seq: u32,
    /// Work-group id.
    pub wg: u32,
    /// Wavefront index within the work-group.
    pub wf: u32,
    /// Lane (work-item within the wavefront), `0..64`.
    pub lane: u32,
    /// Loop iteration of the wavefront program.
    pub iter: u32,
    /// Pattern slot of the memory instruction.
    pub pattern: u16,
}

/// Generates per-lane byte addresses for a kernel's memory instructions.
///
/// Implementations are pure functions of the context, which keeps the
/// simulation deterministic and wavefronts independent.
pub trait AddrGen: Send + Sync {
    /// The address lane `ctx.lane` accesses, or `None` if the lane is
    /// inactive for this instruction.
    fn lane_addr(&self, ctx: &AccessCtx) -> Option<Addr>;

    /// The cache lines one vector memory instruction requests: clears
    /// `out` and fills it with the distinct lines its 64 lanes touch, in
    /// first-touch order. `ctx.lane` is ignored.
    ///
    /// The provided body is the specification — [`lines_by_lane`], 64
    /// [`AddrGen::lane_addr`] calls through the coalescer. A generator
    /// that knows its lanes' layout may override it with a closed form,
    /// which must produce exactly the same lines in the same order.
    fn lines_into(&self, ctx: &AccessCtx, out: &mut Vec<LineAddr>) {
        lines_by_lane(self, ctx, out);
    }
}

/// Lane-by-lane coalescing of one vector memory instruction: asks `gen`
/// for each of the 64 lane addresses of `ctx` (whose own `lane` is
/// ignored) and coalesces them into `out` with
/// [`coalesce_into`](crate::coalesce_into). The provided body of
/// [`AddrGen::lines_into`], and the fallback (and test oracle) of any
/// override.
pub fn lines_by_lane<G: AddrGen + ?Sized>(gen: &G, ctx: &AccessCtx, out: &mut Vec<LineAddr>) {
    let lanes = (0..64u32).map(|lane| gen.lane_addr(&AccessCtx { lane, ..*ctx }));
    crate::coalesce_into(lanes, out);
}

impl<F> AddrGen for F
where
    F: Fn(&AccessCtx) -> Option<Addr> + Send + Sync,
{
    fn lane_addr(&self, ctx: &AccessCtx) -> Option<Addr> {
        self(ctx)
    }
}

/// A kernel to dispatch: grid shape, program, and address generator.
#[derive(Clone)]
pub struct KernelDesc {
    /// Human-readable kernel name.
    pub name: String,
    /// Stable id of the *static* kernel (same across repeated launches);
    /// memory-instruction PCs are derived from it, so the PC predictor
    /// sees one PC per static instruction as on real hardware.
    pub template_id: u16,
    /// Work-groups in the grid.
    pub wgs: u32,
    /// Wavefronts per work-group.
    pub wfs_per_wg: u32,
    /// The per-wavefront program.
    pub program: KernelProgram,
    /// Lane address generator.
    pub gen: Arc<dyn AddrGen>,
}

impl fmt::Debug for KernelDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelDesc")
            .field("name", &self.name)
            .field("template_id", &self.template_id)
            .field("wgs", &self.wgs)
            .field("wfs_per_wg", &self.wfs_per_wg)
            .field("program", &self.program)
            .finish_non_exhaustive()
    }
}

impl KernelDesc {
    /// Total wavefronts this kernel dispatches.
    #[must_use]
    pub fn total_wavefronts(&self) -> u64 {
        u64::from(self.wgs) * u64::from(self.wfs_per_wg)
    }

    /// The PC of the memory instruction at `op_index` in the body.
    ///
    /// Stable across launches of the same template so reuse predictors can
    /// learn per static instruction.
    #[must_use]
    pub fn pc_of(&self, op_index: usize) -> Pc {
        Pc((u32::from(self.template_id) << 8) | (op_index as u32 & 0xFF))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_gen() -> Arc<dyn AddrGen> {
        Arc::new(|ctx: &AccessCtx| Some(Addr(u64::from(ctx.lane) * 4)))
    }

    #[test]
    fn valu_lane_ops_counts_lanes_times_iters() {
        let p = KernelProgram::new(
            vec![
                Op::Valu { count: 3 },
                Op::Load { pattern: 0 },
                Op::Valu { count: 1 },
            ],
            5,
        );
        assert_eq!(p.valu_lane_ops(), (3 + 1) * 64 * 5);
    }

    #[test]
    fn pc_is_stable_and_distinct_per_op() {
        let k = KernelDesc {
            name: "k".to_string(),
            template_id: 7,
            wgs: 1,
            wfs_per_wg: 1,
            program: KernelProgram::new(vec![Op::Load { pattern: 0 }], 1),
            gen: stream_gen(),
        };
        assert_eq!(k.pc_of(0), k.pc_of(0));
        assert_ne!(k.pc_of(0), k.pc_of(1));
        let k2 = KernelDesc {
            template_id: 8,
            ..k.clone()
        };
        assert_ne!(k.pc_of(0), k2.pc_of(0));
    }

    #[test]
    fn closures_are_addr_gens() {
        let g = stream_gen();
        let ctx = AccessCtx {
            kernel_seq: 0,
            wg: 0,
            wf: 0,
            lane: 3,
            iter: 0,
            pattern: 0,
        };
        assert_eq!(g.lane_addr(&ctx), Some(Addr(12)));
    }

    #[test]
    fn closures_coalesce_lane_by_lane() {
        let g = stream_gen();
        let ctx = AccessCtx {
            kernel_seq: 0,
            wg: 0,
            wf: 0,
            lane: 41, // ignored: the instruction covers all 64 lanes
            iter: 0,
            pattern: 0,
        };
        let mut lines = vec![LineAddr(9)];
        g.lines_into(&ctx, &mut lines);
        assert_eq!(lines, (0..4).map(LineAddr).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_body_panics() {
        let _ = KernelProgram::new(vec![], 1);
    }

    #[test]
    fn total_wavefronts_multiplies_grid() {
        let k = KernelDesc {
            name: "k".to_string(),
            template_id: 0,
            wgs: 10,
            wfs_per_wg: 4,
            program: KernelProgram::new(vec![Op::Valu { count: 1 }], 1),
            gen: stream_gen(),
        };
        assert_eq!(k.total_wavefronts(), 40);
    }
}
