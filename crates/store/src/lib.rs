//! `miopt-store`: a checksummed, crash-recoverable result store.
//!
//! The harness's journals (sweep and serve) need one property above
//! all: **a crash at any byte must be recoverable, and recovery must
//! say exactly what survived.** This crate provides that as a
//! segmented write-ahead log ([`Wal`]) with:
//!
//! * per-record framing — length prefix, monotonic sequence number,
//!   and an FNV-1a 64 checksum over all of it, so torn writes and bit
//!   flips are *distinguishable*;
//! * a recovery pass that classifies damage: a clean tail opens, a
//!   torn final record is truncated and appending continues, and
//!   mid-segment corruption quarantines the segment and surfaces a
//!   typed [`StoreError::Corrupt`] carrying the byte offset and the
//!   sequence gap;
//! * configurable durability ([`Durability`]): fsync per record, per
//!   batch, or never — with fsync-the-parent-directory after every
//!   file create/rename regardless, so the log's structure survives
//!   power loss even when record data is allowed to lag;
//! * snapshot + compaction ([`Wal::compact`]): sealed segments fold
//!   into a single checksummed snapshot without blocking appenders.
//!
//! The crash-injection seam lives in [`io`]: every filesystem touch
//! goes through the [`io::WalIo`] trait, and [`io::FaultIo`] kills the
//! write path at an exact byte offset so tests can prove recovery at
//! *every* record boundary and at chosen offsets inside a record.
//!
//! # Examples
//!
//! ```
//! use miopt_store::{StoreOptions, Wal};
//!
//! let dir = std::env::temp_dir().join(format!("miopt-store-doc-{}", std::process::id()));
//! let opened = Wal::open(&dir, StoreOptions::default()).unwrap();
//! assert_eq!(opened.wal.append(b"job 1").unwrap(), 1);
//! assert_eq!(opened.wal.append(b"job 2").unwrap(), 2);
//! drop(opened);
//!
//! // Reopening recovers every durable record, in sequence order.
//! let reopened = Wal::open(&dir, StoreOptions::default()).unwrap();
//! assert_eq!(reopened.recovery.last_seq, 2);
//! assert_eq!(reopened.records[1].payload, b"job 2");
//! drop(reopened);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod io;
mod wal;

pub use error::StoreError;
pub use io::{atomic_replace, sync_dir, FaultIo, StdIo};
pub use wal::{
    encode_frame, CompactionStats, Durability, Inspection, Opened, Record, Recovery, RecoveryKind,
    SegmentStatus, StoreOptions, Wal, FRAME_HEADER_LEN, MAX_RECORD_LEN, SEGMENT_HEADER_LEN,
    SEGMENT_MAGIC, SNAPSHOT_HEADER_LEN, SNAPSHOT_MAGIC,
};
