//! GCN-like GPU compute model for the `miopt` simulator.
//!
//! Models the Table 1 GPU: 64 compute units, 4 SIMD units per CU, up to 10
//! wavefronts per SIMD, 64-wide wavefronts, single-cycle instruction issue.
//! The model is execution-driven at the *memory* level: wavefronts run
//! small programs ([`Op`]) whose memory instructions generate lane
//! addresses through a workload-supplied [`AddrGen`], are coalesced into
//! 64 B line requests, and flow into the cache hierarchy. Arithmetic is
//! represented by issue-slot occupancy (`Op::Valu`), which both limits
//! compute-bound kernels and produces the paper's Figure 4 GVOPS metric.
//!
//! Latency hiding works as on real hardware: a wavefront issues its loads,
//! keeps executing until a [`Op::WaitCnt`] requires outstanding loads to
//! drain below a threshold, and other wavefronts on the same SIMD fill the
//! stall cycles.
//!
//! # Examples
//!
//! See [`Gpu`] for a complete dispatch example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coalesce;
mod cu;
mod device;
mod program;
mod wavefront;

pub use coalesce::{coalesce, coalesce_into};
pub use cu::{Cu, CuConfig};
pub use device::{Gpu, GpuStats};
pub use program::{lines_by_lane, AccessCtx, AddrGen, KernelDesc, KernelProgram, Op};
