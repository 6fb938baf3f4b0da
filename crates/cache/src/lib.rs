//! GPU cache model for the `miopt` simulator.
//!
//! Implements the write-through, self-invalidating GPU caches of the paper
//! (Section III) plus the three Section VII optimizations:
//!
//! * **Allocation bypass** (`CacheRW-AB`): when a cached request would have
//!   to stall because every way of its set holds a pending (busy) line, the
//!   request is converted to a bypass instead of blocking.
//! * **Row-locality-aware cache rinsing** (`CacheRW-CR`): a [`DirtyBlockIndex`]
//!   tracks dirty blocks per DRAM row; evicting one dirty block triggers a
//!   writeback of every other dirty block in that row.
//! * **PC-based bypass prediction** (`CacheRW-PCby`): a [`PcPredictor`]
//!   learns, per static memory instruction, whether its lines see reuse, and
//!   bypasses the L2 for loads and stores predicted reuse-less.
//!
//! The central type is [`CacheUnit`], which models one physical cache (an L1
//! per compute unit, or one slice of the shared L2). It is *passive*: the
//! system loop drives it by calling [`CacheUnit::access`] for requests
//! arriving from above and [`CacheUnit::fill`] for responses arriving from
//! below, passing the adjacent [`TimedQueue`](miopt_engine::TimedQueue)s explicitly. A request that
//! cannot be serviced this cycle returns a [`Blocked`] reason and the cache
//! records one *cache stall* — the paper's Figure 8 metric ("any cycle in
//! which a ready cache request is blocked from querying a cache").
//!
//! # Examples
//!
//! ```
//! use miopt_cache::{CacheConfig, CacheUnit, LevelPolicy};
//! use miopt_engine::{AccessKind, Cycle, LineAddr, MemReq, Origin, Pc, ReqId, TimedQueue};
//!
//! let mut cache = CacheUnit::new(CacheConfig::l1_paper(), LevelPolicy::cache_loads_only(), 0);
//! let mut down = TimedQueue::new(16, 1);
//! let mut up = TimedQueue::new(16, 1);
//! let load = MemReq {
//!     id: ReqId(1),
//!     line: LineAddr(7),
//!     is_store: false,
//!     kind: AccessKind::Cached,
//!     pc: Pc(0),
//!     origin: Origin::Wavefront { cu: 0, slot: 0 },
//!     issue_cycle: Cycle(0),
//! };
//! // Cold miss: forwarded downstream.
//! cache.access(Cycle(0), load, &mut down, &mut up).unwrap();
//! assert_eq!(down.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dbi;
mod mshr;
mod predictor;
mod stats;
mod tags;
mod unit;

pub use config::{CacheConfig, LevelPolicy, RowMap, WayRange};
pub use dbi::DirtyBlockIndex;
pub use predictor::{PcPredictor, PredictorConfig};
pub use stats::CacheStats;
pub use unit::{Blocked, CacheUnit, Outcome, ServiceCalls};
