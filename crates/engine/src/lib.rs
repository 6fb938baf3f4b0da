//! Simulation kernel for the `miopt` GPU memory-system simulator.
//!
//! This crate provides the building blocks shared by every other `miopt`
//! crate:
//!
//! * [`Cycle`] — the simulated GPU clock (all timing in the workspace is
//!   expressed in GPU cycles at 1.6 GHz).
//! * Address newtypes ([`Addr`], [`LineAddr`]) and the cache-line geometry.
//! * The memory request/response types ([`MemReq`], [`MemResp`]) that flow
//!   between compute units, caches, the crossbar and DRAM.
//! * [`TimedQueue`] — a latency- and capacity-bounded FIFO used to model
//!   every pipeline stage and wire in the system.
//! * [`EventWheel`] — the calendar queue that drives the discrete-event
//!   execution core (components schedule their own wakeups instead of
//!   being polled every cycle).
//! * [`Arena`] / [`HandleFifo`] — the generational slab arena and
//!   intrusive handle queues that keep the steady-state hot path
//!   allocation-free, with [`alloc_track`] as the shared counter that
//!   opt-in counting allocators report into.
//! * [`hash::Fnv1a`] — the single stable FNV-1a 64 implementation behind
//!   every persisted digest in the workspace.
//! * Deterministic pseudo-random number generation ([`rng::SplitMix64`]),
//!   and the seeded property runner built on it ([`prop::check`]).
//! * Small statistics helpers ([`stats`]).
//! * The [`Sentinel`] trait and [`InvariantViolation`] type used by every
//!   component to self-audit its conservation invariants.
//!
//! # Examples
//!
//! ```
//! use miopt_engine::{Cycle, TimedQueue};
//!
//! let mut q: TimedQueue<u32> = TimedQueue::new(4, 10);
//! q.push(Cycle(0), 7).unwrap();
//! assert!(q.pop_ready(Cycle(5)).is_none()); // still in flight
//! assert_eq!(q.pop_ready(Cycle(10)), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod alloc_track;
pub mod arena;
mod cycle;
mod event;
pub mod hash;
pub mod prop;
mod queue;
mod req;
pub mod rng;
pub mod sentinel;
pub mod stats;
pub mod util;

pub use addr::{Addr, LineAddr, LINE_BYTES};
pub use arena::{Arena, Handle, HandleFifo};
pub use cycle::Cycle;
pub use event::EventWheel;
pub use queue::{PushFullError, TimedQueue};
pub use req::{AccessKind, MemReq, MemResp, Origin, Pc, ReqId};
pub use sentinel::{InvariantViolation, Sentinel};
