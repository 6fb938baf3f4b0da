//! The segmented write-ahead log: record framing, crash recovery, and
//! snapshot compaction.
//!
//! # On-disk layout
//!
//! A store is a directory of segment files plus at most one snapshot:
//!
//! ```text
//! <dir>/
//!   0000000000000001.seg          segments, named by first sequence
//!   00000000000000a3.seg          number; the highest one is active
//!   0000000000000042.snap         folded prefix (seq 1..=0x42)
//! ```
//!
//! Every segment starts with a 24-byte header (`magic, base_seq, crc`)
//! and then holds contiguous record frames:
//!
//! ```text
//! | len: u32 LE | seq: u64 LE | crc: u64 LE | payload: len bytes |
//! ```
//!
//! `crc` is FNV-1a 64 over `len ‖ seq ‖ payload`, so a frame vouches
//! for its own boundaries, its position in the log, and its contents.
//! Sequence numbers start at 1 and increase by exactly one across
//! segment boundaries; a gap is never legal.
//!
//! # Recovery
//!
//! [`Wal::open`] classifies damage rather than guessing:
//!
//! * **clean tail** — every frame checks out: open for append.
//! * **torn tail** — the final segment ends in an incomplete frame
//!   (the expected shape of a crash mid-append): truncate to the last
//!   whole record and continue. [`Recovery`] reports the byte offset
//!   and how many bytes were dropped.
//! * **corruption** — a checksum mismatch on a *complete* frame, a
//!   sequence gap, an implausible length, or any damage before the
//!   final segment: the damaged file is quarantined (renamed aside)
//!   and [`StoreError::Corrupt`] reports the byte offset and sequence
//!   numbers. Interior damage is never silently dropped.
//!
//! # Durability
//!
//! [`Durability`] picks the fsync cadence for appends. Independent of
//! it, the store always fsyncs files before sealing or renaming them
//! and fsyncs the directory after every create/rename, so the
//! *structure* of the log is crash-safe even under
//! [`Durability::Never`].

use crate::error::StoreError;
use crate::io::{StdIo, WalFile, WalIo};
use miopt_engine::hash::Fnv1a;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"MIOWAL01";
/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MIOSNAP1";
/// Byte length of a segment header (`magic ‖ base_seq ‖ crc`).
pub const SEGMENT_HEADER_LEN: u64 = 24;
/// Byte length of a record frame header (`len ‖ seq ‖ crc`).
pub const FRAME_HEADER_LEN: u64 = 20;
/// Byte length of a snapshot header (`magic ‖ first ‖ last ‖ count ‖ crc`).
pub const SNAPSHOT_HEADER_LEN: u64 = 40;
/// Sanity bound on a single record's payload. A length field above
/// this is classified as corruption, not a torn write: real appends
/// never produce it, so it must be a damaged length prefix.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

/// When appends reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// fsync after every record: a crash loses at most the in-flight
    /// append. The default, and what the harness journals use.
    PerRecord,
    /// fsync after every `n` records: bounded loss, amortized cost.
    PerBatch(u32),
    /// Never fsync record data (the OS flushes eventually). Segment
    /// seals, snapshot renames, and directory updates are still
    /// fsynced, so the log structure survives; only tail records are
    /// at risk.
    Never,
}

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// The fsync cadence for appends.
    pub durability: Durability,
    /// Roll to a new segment once the active one reaches this many
    /// bytes. Small segments mean more frequent compaction
    /// opportunities; large ones mean fewer files.
    pub segment_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            durability: Durability::PerRecord,
            segment_bytes: 1 << 20,
        }
    }
}

/// One durable record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The record's sequence number (1-based, gap-free).
    pub seq: u64,
    /// The payload bytes, exactly as appended.
    pub payload: Vec<u8>,
}

/// How the store came back up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryKind {
    /// The directory held no prior state.
    Fresh,
    /// Every frame verified; nothing was repaired.
    Clean,
    /// The final segment ended in an incomplete frame — the expected
    /// crash shape — and was truncated to the last whole record.
    TornTail {
        /// The repaired segment.
        file: PathBuf,
        /// Byte offset the file was truncated to.
        offset: u64,
        /// Bytes dropped beyond the last whole record.
        dropped_bytes: u64,
    },
}

/// The recovery report of one [`Wal::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Durable records recovered (snapshot + segments).
    pub records: u64,
    /// Highest durable sequence number (0 when empty).
    pub last_seq: u64,
    /// Of `records`, how many came from the snapshot.
    pub from_snapshot: u64,
    /// What recovery found and did.
    pub kind: RecoveryKind,
}

/// An opened store: the handle, the recovery report, and every durable
/// record in sequence order.
pub struct Opened {
    /// The store, ready for appends.
    pub wal: Wal,
    /// What recovery found and did.
    pub recovery: Recovery,
    /// Every durable record, in sequence order.
    pub records: Vec<Record>,
}

impl std::fmt::Debug for Opened {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Opened")
            .field("dir", &self.wal.dir)
            .field("recovery", &self.recovery)
            .field("records", &self.records.len())
            .finish()
    }
}

/// What [`Wal::compact`] folded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Sealed segments folded into the snapshot.
    pub folded_segments: usize,
    /// Records now carried by the snapshot.
    pub snapshot_records: u64,
    /// Size of the new snapshot file in bytes.
    pub snapshot_bytes: u64,
}

/// Read-only health report of one segment (see [`Wal::inspect`]).
#[derive(Debug, Clone)]
pub struct SegmentStatus {
    /// The segment file.
    pub path: PathBuf,
    /// First sequence number the segment holds (from its header), when
    /// the header was readable.
    pub base_seq: Option<u64>,
    /// Whole records verified in this segment.
    pub records: u64,
    /// File length in bytes.
    pub bytes: u64,
    /// Byte offset just past each verified record — every legal
    /// truncation point, in order. (The first entry is past record 1,
    /// i.e. header + one frame.)
    pub record_ends: Vec<u64>,
    /// Damage description, when the scan stopped early.
    pub damage: Option<String>,
}

/// Read-only store diagnosis (see [`Wal::inspect`]): what recovery
/// *would* find, without repairing, truncating, or quarantining
/// anything. This is what `miopt-harness query --journals` prints.
#[derive(Debug, Clone)]
pub struct Inspection {
    /// Durable records (snapshot + verified segment records).
    pub records: Vec<Record>,
    /// Highest durable sequence number (0 when empty).
    pub last_seq: u64,
    /// Records carried by the snapshot, when one exists.
    pub snapshot_records: u64,
    /// Per-segment status, in sequence order.
    pub segments: Vec<SegmentStatus>,
    /// `"clean"`, `"torn tail …"`, or `"corrupt …"`.
    pub state: String,
    /// Whether a plain [`Wal::open`] would succeed (clean or torn
    /// tail; `false` means it would quarantine and error).
    pub healthy: bool,
}

/// Encodes one record frame.
#[must_use]
pub fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_RECORD_LEN as usize,
        "record payload exceeds MAX_RECORD_LEN"
    );
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN as usize + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let mut h = Fnv1a::new();
    h.write(&len.to_le_bytes());
    h.write(&seq.to_le_bytes());
    h.write(payload);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn encode_segment_header(base_seq: u64) -> [u8; SEGMENT_HEADER_LEN as usize] {
    let mut out = [0u8; SEGMENT_HEADER_LEN as usize];
    out[..8].copy_from_slice(SEGMENT_MAGIC);
    out[8..16].copy_from_slice(&base_seq.to_le_bytes());
    let mut h = Fnv1a::new();
    h.write(SEGMENT_MAGIC);
    h.write(&base_seq.to_le_bytes());
    out[16..24].copy_from_slice(&h.finish().to_le_bytes());
    out
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Damage found while scanning a file.
#[derive(Debug, Clone)]
struct Damage {
    /// Byte offset of the damage.
    offset: u64,
    /// Whether the damage is consistent with a torn trailing write
    /// (an incomplete frame at end of file) rather than interior
    /// corruption.
    torn: bool,
    /// The sequence number expected at the damage point.
    expected_seq: u64,
    /// The sequence number found, when the frame header was readable.
    found_seq: Option<u64>,
    /// Description.
    detail: String,
}

/// The result of scanning one segment file.
#[derive(Debug)]
struct SegScan {
    /// Base sequence from the header, when the header verified.
    base: Option<u64>,
    /// Whole verified records.
    records: Vec<Record>,
    /// Byte offset just past each verified record.
    record_ends: Vec<u64>,
    /// Offset every verified byte ends at (the truncation point on a
    /// torn tail).
    clean_len: u64,
    /// Why the scan stopped, if it did.
    damage: Option<Damage>,
}

/// Scans a segment file. Pure: no filesystem access, no repair.
fn scan_segment(bytes: &[u8]) -> SegScan {
    let mut scan = SegScan {
        base: None,
        records: Vec::new(),
        record_ends: Vec::new(),
        clean_len: 0,
        damage: None,
    };
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        scan.damage = Some(Damage {
            offset: bytes.len() as u64,
            torn: true,
            expected_seq: 0,
            found_seq: None,
            detail: format!(
                "incomplete segment header ({} of {SEGMENT_HEADER_LEN} bytes)",
                bytes.len()
            ),
        });
        return scan;
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        scan.damage = Some(Damage {
            offset: 0,
            torn: false,
            expected_seq: 0,
            found_seq: None,
            detail: "bad segment magic".to_string(),
        });
        return scan;
    }
    let base = u64_at(bytes, 8);
    let mut h = Fnv1a::new();
    h.write(SEGMENT_MAGIC);
    h.write(&base.to_le_bytes());
    if u64_at(bytes, 16) != h.finish() {
        scan.damage = Some(Damage {
            offset: 16,
            torn: false,
            expected_seq: 0,
            found_seq: None,
            detail: "segment header checksum mismatch".to_string(),
        });
        return scan;
    }
    scan.base = Some(base);
    scan.clean_len = SEGMENT_HEADER_LEN;
    let mut offset = SEGMENT_HEADER_LEN as usize;
    loop {
        let expected_seq = base + scan.records.len() as u64;
        let rem = bytes.len() - offset;
        if rem == 0 {
            return scan;
        }
        if rem < FRAME_HEADER_LEN as usize {
            scan.damage = Some(Damage {
                offset: offset as u64,
                torn: true,
                expected_seq,
                found_seq: None,
                detail: format!(
                    "incomplete record frame ({rem} of {FRAME_HEADER_LEN} header bytes)"
                ),
            });
            return scan;
        }
        let len = u32_at(bytes, offset);
        if len > MAX_RECORD_LEN {
            scan.damage = Some(Damage {
                offset: offset as u64,
                torn: false,
                expected_seq,
                found_seq: None,
                detail: format!("implausible record length {len}"),
            });
            return scan;
        }
        let seq = u64_at(bytes, offset + 4);
        let end = offset + FRAME_HEADER_LEN as usize + len as usize;
        if end > bytes.len() {
            scan.damage = Some(Damage {
                offset: offset as u64,
                torn: true,
                expected_seq,
                found_seq: Some(seq),
                detail: format!(
                    "record extends past end of file ({} of {} bytes)",
                    bytes.len() - offset,
                    FRAME_HEADER_LEN + u64::from(len)
                ),
            });
            return scan;
        }
        let payload = &bytes[offset + FRAME_HEADER_LEN as usize..end];
        let mut h = Fnv1a::new();
        h.write(&len.to_le_bytes());
        h.write(&seq.to_le_bytes());
        h.write(payload);
        if u64_at(bytes, offset + 12) != h.finish() {
            scan.damage = Some(Damage {
                offset: offset as u64,
                torn: false,
                expected_seq,
                found_seq: Some(seq),
                detail: "record checksum mismatch on a complete frame".to_string(),
            });
            return scan;
        }
        if seq != expected_seq {
            scan.damage = Some(Damage {
                offset: offset as u64,
                torn: false,
                expected_seq,
                found_seq: Some(seq),
                detail: "sequence gap".to_string(),
            });
            return scan;
        }
        scan.records.push(Record {
            seq,
            payload: payload.to_vec(),
        });
        offset = end;
        scan.record_ends.push(offset as u64);
        scan.clean_len = offset as u64;
    }
}

/// Parses a snapshot file. Returns `(first, last, records)` or a
/// damage description with its byte offset.
fn scan_snapshot(bytes: &[u8]) -> Result<(u64, u64, Vec<Record>), (u64, String)> {
    if bytes.len() < SNAPSHOT_HEADER_LEN as usize {
        return Err((
            bytes.len() as u64,
            format!(
                "incomplete snapshot header ({} of {SNAPSHOT_HEADER_LEN} bytes)",
                bytes.len()
            ),
        ));
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err((0, "bad snapshot magic".to_string()));
    }
    let first = u64_at(bytes, 8);
    let last = u64_at(bytes, 16);
    let count = u64_at(bytes, 24);
    let mut h = Fnv1a::new();
    h.write(SNAPSHOT_MAGIC);
    h.write(&first.to_le_bytes());
    h.write(&last.to_le_bytes());
    h.write(&count.to_le_bytes());
    if u64_at(bytes, 32) != h.finish() {
        return Err((32, "snapshot header checksum mismatch".to_string()));
    }
    let mut records = Vec::new();
    let mut offset = SNAPSHOT_HEADER_LEN as usize;
    for i in 0..count {
        let expected_seq = first + i;
        if bytes.len() - offset < FRAME_HEADER_LEN as usize {
            return Err((offset as u64, "snapshot truncated mid-frame".to_string()));
        }
        let len = u32_at(bytes, offset);
        if len > MAX_RECORD_LEN {
            return Err((offset as u64, format!("implausible record length {len}")));
        }
        let seq = u64_at(bytes, offset + 4);
        let end = offset + FRAME_HEADER_LEN as usize + len as usize;
        if end > bytes.len() {
            return Err((offset as u64, "snapshot truncated mid-record".to_string()));
        }
        let payload = &bytes[offset + FRAME_HEADER_LEN as usize..end];
        let mut h = Fnv1a::new();
        h.write(&len.to_le_bytes());
        h.write(&seq.to_le_bytes());
        h.write(payload);
        if u64_at(bytes, offset + 12) != h.finish() {
            return Err((offset as u64, "record checksum mismatch".to_string()));
        }
        if seq != expected_seq {
            return Err((
                offset as u64,
                format!("sequence gap (expected {expected_seq}, found {seq})"),
            ));
        }
        records.push(Record {
            seq,
            payload: payload.to_vec(),
        });
        offset = end;
    }
    if offset != bytes.len() {
        return Err((
            offset as u64,
            format!(
                "{} trailing bytes after the last record",
                bytes.len() - offset
            ),
        ));
    }
    if count > 0 && last != first + count - 1 {
        return Err((16, "snapshot header count/last mismatch".to_string()));
    }
    Ok((first, last, records))
}

fn segment_name(base_seq: u64) -> String {
    format!("{base_seq:016x}.seg")
}

fn snapshot_name(last_seq: u64) -> String {
    format!("{last_seq:016x}.snap")
}

/// Files in `dir`, split into (segments sorted by base, snapshots
/// sorted by last seq, leftover temp files).
#[allow(clippy::type_complexity)]
fn dir_contents(
    io: &dyn WalIo,
    dir: &Path,
) -> Result<(Vec<(u64, PathBuf)>, Vec<(u64, PathBuf)>, Vec<PathBuf>), StoreError> {
    let mut segs = Vec::new();
    let mut snaps = Vec::new();
    let mut tmps = Vec::new();
    for path in io.list(dir).map_err(|e| StoreError::io("list", dir, e))? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let parse16 = |stem: &str| u64::from_str_radix(stem, 16).ok();
        if let Some(stem) = name.strip_suffix(".seg") {
            if let Some(n) = parse16(stem) {
                segs.push((n, path));
            }
        } else if let Some(stem) = name.strip_suffix(".snap") {
            if let Some(n) = parse16(stem) {
                snaps.push((n, path));
            }
        } else if name.ends_with(".tmp") {
            tmps.push(path);
        }
    }
    segs.sort();
    snaps.sort();
    Ok((segs, snaps, tmps))
}

/// Appender state behind the [`Wal`]'s lock.
struct Appender {
    file: Box<dyn WalFile>,
    seg_path: PathBuf,
    seg_len: u64,
    next_seq: u64,
    unsynced: u32,
    /// Sealed (immutable, fully verified) segments, oldest first.
    sealed: Vec<PathBuf>,
    snapshot: Option<PathBuf>,
}

/// A crash-recoverable, checksummed, segmented write-ahead log.
///
/// Appends are thread-safe (`&self`); [`Wal::compact`] runs
/// concurrently with appenders, holding the append lock only to read
/// and update bookkeeping, never across file I/O on sealed segments.
pub struct Wal {
    dir: PathBuf,
    opts: StoreOptions,
    io: Arc<dyn WalIo>,
    inner: Mutex<Appender>,
}

impl Wal {
    /// Opens (creating if missing) the store in `dir` with the
    /// production filesystem.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures; [`StoreError::Corrupt`]
    /// when recovery finds interior damage (the damaged file is
    /// quarantined first).
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<Opened, StoreError> {
        Wal::open_with_io(dir, opts, Arc::new(StdIo))
    }

    /// Opens the store through a caller-supplied I/O layer (the crash
    /// injection seam; see [`crate::io::FaultIo`]).
    ///
    /// # Errors
    ///
    /// As [`Wal::open`].
    pub fn open_with_io(
        dir: &Path,
        opts: StoreOptions,
        io: Arc<dyn WalIo>,
    ) -> Result<Opened, StoreError> {
        assert!(
            opts.segment_bytes > SEGMENT_HEADER_LEN,
            "segment_bytes must exceed the segment header"
        );
        io.create_dir_all(dir)
            .map_err(|e| StoreError::io("create", dir, e))?;
        if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
            // Make the directory entry itself durable.
            let _ = io.sync_dir(parent);
        }
        let (segs, snaps, tmps) = dir_contents(io.as_ref(), dir)?;
        for tmp in tmps {
            // Leftover from a crash mid-compaction: never renamed, so
            // never part of the log.
            io.remove(&tmp)
                .map_err(|e| StoreError::io("remove", &tmp, e))?;
        }

        // Load the newest snapshot; delete superseded ones.
        let mut records: Vec<Record> = Vec::new();
        let mut snapshot_path = None;
        let mut from_snapshot = 0u64;
        let mut expected = 1u64;
        if let Some((_, path)) = snaps.last() {
            let bytes = io.read(path).map_err(|e| StoreError::io("read", path, e))?;
            match scan_snapshot(&bytes) {
                Ok((_first, last, recs)) => {
                    from_snapshot = recs.len() as u64;
                    records = recs;
                    expected = last + 1;
                    snapshot_path = Some(path.clone());
                }
                Err((offset, detail)) => {
                    return Err(quarantine(io.as_ref(), dir, path, offset, 0, None, detail));
                }
            }
            for (_, stale) in &snaps[..snaps.len() - 1] {
                io.remove(stale)
                    .map_err(|e| StoreError::io("remove", stale, e))?;
            }
        }

        // Replay segments in order.
        let mut kind = if snapshot_path.is_none() && segs.is_empty() {
            RecoveryKind::Fresh
        } else {
            RecoveryKind::Clean
        };
        let mut active: Option<(PathBuf, u64)> = None; // (path, byte length)
        let n = segs.len();
        for (i, (_, path)) in segs.iter().enumerate() {
            let bytes = io.read(path).map_err(|e| StoreError::io("read", path, e))?;
            let scan = scan_segment(&bytes);
            let is_last = i == n - 1;
            let mut clean_len = scan.clean_len;
            if let Some(d) = &scan.damage {
                if !(d.torn && is_last) {
                    return Err(quarantine(
                        io.as_ref(),
                        dir,
                        path,
                        d.offset,
                        d.expected_seq,
                        d.found_seq,
                        d.detail.clone(),
                    ));
                }
                // The expected crash shape: truncate the tail.
                if scan.base.is_none() {
                    // Not even the header survived; drop the file and
                    // recreate the segment below.
                    io.remove(path)
                        .map_err(|e| StoreError::io("remove", path, e))?;
                    io.sync_dir(dir)
                        .map_err(|e| StoreError::io("fsync", dir, e))?;
                    kind = RecoveryKind::TornTail {
                        file: path.clone(),
                        offset: 0,
                        dropped_bytes: bytes.len() as u64,
                    };
                    continue;
                }
                io.set_len(path, clean_len)
                    .map_err(|e| StoreError::io("truncate", path, e))?;
                kind = RecoveryKind::TornTail {
                    file: path.clone(),
                    offset: clean_len,
                    dropped_bytes: bytes.len() as u64 - clean_len,
                };
            }
            let base = scan.base.expect("damage without header handled above");
            if base > expected {
                return Err(quarantine(
                    io.as_ref(),
                    dir,
                    path,
                    8,
                    expected,
                    Some(base),
                    "segment base leaves a sequence gap".to_string(),
                ));
            }
            let seg_last = base + scan.records.len() as u64;
            if seg_last <= expected {
                // Every record is already covered by the snapshot (a
                // crash between snapshot rename and segment delete).
                if !is_last {
                    io.remove(path)
                        .map_err(|e| StoreError::io("remove", path, e))?;
                    continue;
                }
                if scan.records.is_empty() && base < expected {
                    // A stale empty active segment; recreate below at
                    // the right base.
                    io.remove(path)
                        .map_err(|e| StoreError::io("remove", path, e))?;
                    continue;
                }
            }
            for rec in scan.records {
                if rec.seq >= expected {
                    records.push(rec);
                }
            }
            expected = expected.max(seg_last);
            if is_last {
                if scan.damage.is_some() {
                    clean_len = scan.clean_len;
                }
                active = Some((path.clone(), clean_len));
            }
        }

        // Decide the active segment: reuse the last one if it has room,
        // otherwise seal everything and start fresh.
        let mut sealed: Vec<PathBuf> = segs
            .iter()
            .map(|(_, p)| p.clone())
            .filter(|p| p.exists())
            .collect();
        let (file, seg_path, seg_len) = match active {
            Some((path, len)) if len < opts.segment_bytes => {
                sealed.retain(|p| p != &path);
                let file = io
                    .open_append(&path)
                    .map_err(|e| StoreError::io("open", &path, e))?;
                (file, path, len)
            }
            _ => {
                let path = dir.join(segment_name(expected));
                let mut file = io
                    .create(&path)
                    .map_err(|e| StoreError::io("create", &path, e))?;
                file.write_all(&encode_segment_header(expected))
                    .map_err(|e| StoreError::io("append", &path, e))?;
                file.sync().map_err(|e| StoreError::io("fsync", &path, e))?;
                io.sync_dir(dir)
                    .map_err(|e| StoreError::io("fsync", dir, e))?;
                sealed.retain(|p| p != &path);
                (file, path, SEGMENT_HEADER_LEN)
            }
        };

        let recovery = Recovery {
            records: records.len() as u64,
            last_seq: expected - 1,
            from_snapshot,
            kind,
        };
        let wal = Wal {
            dir: dir.to_path_buf(),
            opts,
            io,
            inner: Mutex::new(Appender {
                file,
                seg_path,
                seg_len,
                next_seq: expected,
                unsynced: 0,
                sealed,
                snapshot: snapshot_path,
            }),
        };
        Ok(Opened {
            wal,
            recovery,
            records,
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The highest sequence number appended (0 when empty).
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked while holding the append lock.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().expect("wal lock").next_seq - 1
    }

    /// Appends one record and returns its sequence number, applying
    /// the configured durability policy.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (with context). After an error the
    /// store may hold a torn tail — exactly what recovery repairs.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_RECORD_LEN`] or another
    /// appender panicked while holding the lock.
    pub fn append(&self, payload: &[u8]) -> Result<u64, StoreError> {
        let mut a = self.inner.lock().expect("wal lock");
        if a.seg_len >= self.opts.segment_bytes {
            self.roll(&mut a)?;
        }
        let seq = a.next_seq;
        let frame = encode_frame(seq, payload);
        a.file
            .write_all(&frame)
            .map_err(|e| StoreError::io("append", &a.seg_path, e))?;
        a.seg_len += frame.len() as u64;
        a.next_seq += 1;
        match self.opts.durability {
            Durability::PerRecord => {
                a.file
                    .sync()
                    .map_err(|e| StoreError::io("fsync", &a.seg_path, e))?;
            }
            Durability::PerBatch(n) => {
                a.unsynced += 1;
                if a.unsynced >= n.max(1) {
                    a.file
                        .sync()
                        .map_err(|e| StoreError::io("fsync", &a.seg_path, e))?;
                    a.unsynced = 0;
                }
            }
            Durability::Never => {}
        }
        Ok(seq)
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    ///
    /// # Panics
    ///
    /// Panics if another appender panicked while holding the lock.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut a = self.inner.lock().expect("wal lock");
        a.unsynced = 0;
        a.file
            .sync()
            .map_err(|e| StoreError::io("fsync", &a.seg_path, e))
    }

    /// Seals the active segment and opens a new one.
    fn roll(&self, a: &mut Appender) -> Result<(), StoreError> {
        // A sealed segment must be fully durable before anything refers
        // past it.
        a.file
            .sync()
            .map_err(|e| StoreError::io("fsync", &a.seg_path, e))?;
        a.unsynced = 0;
        let path = self.dir.join(segment_name(a.next_seq));
        let mut file = self
            .io
            .create(&path)
            .map_err(|e| StoreError::io("create", &path, e))?;
        file.write_all(&encode_segment_header(a.next_seq))
            .map_err(|e| StoreError::io("append", &path, e))?;
        file.sync().map_err(|e| StoreError::io("fsync", &path, e))?;
        self.io
            .sync_dir(&self.dir)
            .map_err(|e| StoreError::io("fsync", &self.dir, e))?;
        let old = std::mem::replace(&mut a.seg_path, path);
        a.sealed.push(old);
        a.file = file;
        a.seg_len = SEGMENT_HEADER_LEN;
        Ok(())
    }

    /// Folds the snapshot and every sealed segment into a new
    /// checksummed snapshot, then removes what it folded. Appenders
    /// are not blocked: the lock is held only to read and update
    /// bookkeeping, never across the fold's file I/O (sealed segments
    /// are immutable).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; [`StoreError::Corrupt`] if a
    /// sealed segment no longer verifies (it is quarantined).
    ///
    /// # Panics
    ///
    /// Panics if another appender panicked while holding the lock.
    pub fn compact(&self) -> Result<CompactionStats, StoreError> {
        let (sealed, old_snap) = {
            let a = self.inner.lock().expect("wal lock");
            (a.sealed.clone(), a.snapshot.clone())
        };
        if sealed.is_empty() {
            // Nothing to fold; don't touch the existing snapshot.
            return Ok(CompactionStats::default());
        }

        // Gather every record the new snapshot will carry (old snapshot
        // first, then the sealed segments in order).
        let mut records: Vec<Record> = Vec::new();
        if let Some(p) = &old_snap {
            let bytes = self.io.read(p).map_err(|e| StoreError::io("read", p, e))?;
            let (_, _, recs) = scan_snapshot(&bytes).map_err(|(offset, detail)| {
                quarantine(self.io.as_ref(), &self.dir, p, offset, 0, None, detail)
            })?;
            records.extend(recs);
        }
        for path in &sealed {
            let bytes = self
                .io
                .read(path)
                .map_err(|e| StoreError::io("read", path, e))?;
            let scan = scan_segment(&bytes);
            if let Some(d) = scan.damage {
                return Err(quarantine(
                    self.io.as_ref(),
                    &self.dir,
                    path,
                    d.offset,
                    d.expected_seq,
                    d.found_seq,
                    d.detail,
                ));
            }
            let next = records.last().map_or(1, |r| r.seq + 1);
            for rec in scan.records {
                if rec.seq >= next {
                    records.push(rec);
                }
            }
        }
        let (first, last) = match (records.first(), records.last()) {
            (Some(f), Some(l)) => (f.seq, l.seq),
            _ => (1, 0),
        };

        // Write-fsync-rename-fsync the new snapshot.
        let final_path = self.dir.join(snapshot_name(last));
        let tmp_path = self.dir.join(format!("{}.tmp", snapshot_name(last)));
        let mut body = Vec::new();
        body.extend_from_slice(SNAPSHOT_MAGIC);
        body.extend_from_slice(&first.to_le_bytes());
        body.extend_from_slice(&last.to_le_bytes());
        body.extend_from_slice(&(records.len() as u64).to_le_bytes());
        let mut h = Fnv1a::new();
        h.write(SNAPSHOT_MAGIC);
        h.write(&first.to_le_bytes());
        h.write(&last.to_le_bytes());
        h.write(&(records.len() as u64).to_le_bytes());
        body.extend_from_slice(&h.finish().to_le_bytes());
        for rec in &records {
            body.extend_from_slice(&encode_frame(rec.seq, &rec.payload));
        }
        let mut f = self
            .io
            .create(&tmp_path)
            .map_err(|e| StoreError::io("create", &tmp_path, e))?;
        f.write_all(&body)
            .map_err(|e| StoreError::io("append", &tmp_path, e))?;
        f.sync()
            .map_err(|e| StoreError::io("fsync", &tmp_path, e))?;
        drop(f);
        self.io
            .rename(&tmp_path, &final_path)
            .map_err(|e| StoreError::io("rename", &tmp_path, e))?;
        self.io
            .sync_dir(&self.dir)
            .map_err(|e| StoreError::io("fsync", &self.dir, e))?;

        // The snapshot is durable; drop what it folded.
        if let Some(p) = &old_snap {
            if p != &final_path {
                self.io
                    .remove(p)
                    .map_err(|e| StoreError::io("remove", p, e))?;
            }
        }
        for path in &sealed {
            self.io
                .remove(path)
                .map_err(|e| StoreError::io("remove", path, e))?;
        }
        self.io
            .sync_dir(&self.dir)
            .map_err(|e| StoreError::io("fsync", &self.dir, e))?;

        let mut a = self.inner.lock().expect("wal lock");
        a.sealed.retain(|p| !sealed.contains(p));
        a.snapshot = Some(final_path);
        Ok(CompactionStats {
            folded_segments: sealed.len(),
            snapshot_records: records.len() as u64,
            snapshot_bytes: body.len() as u64,
        })
    }

    /// Read-only diagnosis of the store in `dir`: what recovery would
    /// find, without repairing anything. Safe to run on a store
    /// another process is writing.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only; damage is *reported*, not returned as
    /// an error.
    pub fn inspect(dir: &Path) -> Result<Inspection, StoreError> {
        let io = StdIo;
        let (segs, snaps, _tmps) = dir_contents(&io, dir)?;
        let mut records: Vec<Record> = Vec::new();
        let mut snapshot_records = 0u64;
        let mut expected = 1u64;
        let mut state: Option<String> = None;
        let mut healthy = true;
        if let Some((_, path)) = snaps.last() {
            let bytes = io.read(path).map_err(|e| StoreError::io("read", path, e))?;
            match scan_snapshot(&bytes) {
                Ok((_f, last, recs)) => {
                    snapshot_records = recs.len() as u64;
                    records = recs;
                    expected = last + 1;
                }
                Err((offset, detail)) => {
                    state = Some(format!(
                        "corrupt: snapshot {} at byte {offset}: {detail}",
                        path.display()
                    ));
                    healthy = false;
                }
            }
        }
        let mut segments = Vec::new();
        let n = segs.len();
        for (i, (_, path)) in segs.iter().enumerate() {
            let bytes = io.read(path).map_err(|e| StoreError::io("read", path, e))?;
            let scan = scan_segment(&bytes);
            let is_last = i == n - 1;
            let mut damage_text = None;
            if let Some(d) = &scan.damage {
                if d.torn && is_last {
                    damage_text = Some(format!("torn tail at byte {} ({})", d.offset, d.detail));
                    if state.is_none() {
                        state = Some(format!(
                            "torn tail: {} at byte {} — recovery will truncate \
                             {} byte(s) and keep {} record(s)",
                            path.display(),
                            d.offset,
                            bytes.len() as u64 - scan.clean_len,
                            scan.records.len()
                        ));
                    }
                } else {
                    damage_text = Some(format!("corrupt at byte {}: {}", d.offset, d.detail));
                    healthy = false;
                    if state.as_deref().is_none_or(|s| !s.starts_with("corrupt")) {
                        state = Some(format!(
                            "corrupt: {} at byte {}: {} (expected sequence {}{})",
                            path.display(),
                            d.offset,
                            d.detail,
                            d.expected_seq,
                            d.found_seq
                                .map(|f| format!(", found {f}"))
                                .unwrap_or_default(),
                        ));
                    }
                }
            }
            if healthy {
                if let Some(base) = scan.base {
                    if base > expected {
                        healthy = false;
                        state = Some(format!(
                            "corrupt: {} base sequence {base} leaves a gap (expected {expected})",
                            path.display()
                        ));
                    } else {
                        for rec in &scan.records {
                            if rec.seq >= expected {
                                records.push(rec.clone());
                            }
                        }
                        expected = expected.max(base + scan.records.len() as u64);
                    }
                }
            }
            segments.push(SegmentStatus {
                path: path.clone(),
                base_seq: scan.base,
                records: scan.records.len() as u64,
                bytes: bytes.len() as u64,
                record_ends: scan.record_ends,
                damage: damage_text,
            });
        }
        Ok(Inspection {
            last_seq: expected - 1,
            records,
            snapshot_records,
            segments,
            state: state.unwrap_or_else(|| "clean".to_string()),
            healthy,
        })
    }
}

/// Renames a damaged file aside and builds the [`StoreError::Corrupt`].
fn quarantine(
    io: &dyn WalIo,
    dir: &Path,
    path: &Path,
    offset: u64,
    expected_seq: u64,
    found_seq: Option<u64>,
    detail: String,
) -> StoreError {
    let mut aside = path.as_os_str().to_os_string();
    aside.push(".quarantined");
    let quarantined = io.rename(path, Path::new(&aside)).is_ok() && io.sync_dir(dir).is_ok();
    StoreError::Corrupt {
        file: path.to_path_buf(),
        offset,
        expected_seq,
        found_seq,
        detail,
        quarantined,
    }
}
