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
//! segment boundaries; a gap is never legal. A snapshot holds the same
//! frames behind a 40-byte header (`magic, first, last, count, crc`).
//!
//! # Recovery
//!
//! One pure scan reads every file of the store once, decodes its
//! frames through one decoder, and labels the file with what recovery
//! does to it ([`Fate`]). [`Wal::open`] acts on the labels and
//! [`Wal::inspect`] only renders them, so what `inspect` reports is
//! what `open` does:
//!
//! * **clean tail** — every frame checks out: open for append.
//! * **torn tail** — the final segment ends in an incomplete frame
//!   (the expected shape of a crash mid-append): truncate to the last
//!   whole record and continue. [`Recovery`] reports the byte offset
//!   and how many bytes were dropped.
//! * **covered** — a segment whose records the snapshot already holds
//!   (a crash between a compaction's rename and its removals): removed.
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
use miopt_engine::hash::{fnv1a_64, Fnv1a};
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
    out.extend_from_slice(&frame_crc(len, seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A frame's checksum: FNV-1a 64 over `len ‖ seq ‖ payload`.
fn frame_crc(len: u32, seq: u64, payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&len.to_le_bytes());
    h.write_u64(seq);
    h.write(payload);
    h.finish()
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Damage found while decoding a file.
#[derive(Debug, Clone)]
struct Damage {
    /// Byte offset of the damage.
    offset: u64,
    /// Whether the damage is consistent with a torn trailing write
    /// (an incomplete frame at end of file) rather than interior
    /// corruption.
    torn: bool,
    /// The sequence number expected at the damage point (0 in a header).
    expected_seq: u64,
    /// The sequence number found, when the frame header was readable.
    found_seq: Option<u64>,
    /// Description.
    detail: String,
}

impl Damage {
    /// Damage that is not a torn tail, at `offset`.
    fn at(offset: usize, expected_seq: u64, found_seq: Option<u64>, detail: String) -> Damage {
        Damage {
            offset: offset as u64,
            torn: false,
            expected_seq,
            found_seq,
            detail,
        }
    }

    /// The same damage, as an end of file that cuts a write short.
    fn torn(self) -> Damage {
        Damage { torn: true, ..self }
    }
}

/// A kind of store file. Segments and snapshots hold the same frames
/// and differ only in their header: `magic ‖ fields ‖ crc`, each field
/// a u64 LE and `crc` FNV-1a 64 over every byte before it.
struct Kind {
    magic: &'static [u8; 8],
    /// The kind's name in damage descriptions.
    name: &'static str,
    /// The file name suffix.
    ext: &'static str,
    /// Header fields: a segment's base sequence; a snapshot's first and
    /// last sequence and its record count.
    fields: usize,
}

const SEGMENT: Kind = Kind {
    magic: SEGMENT_MAGIC,
    name: "segment",
    ext: ".seg",
    fields: 1,
};

const SNAPSHOT: Kind = Kind {
    magic: SNAPSHOT_MAGIC,
    name: "snapshot",
    ext: ".snap",
    fields: 3,
};

impl Kind {
    fn header_len(&self) -> usize {
        16 + 8 * self.fields
    }

    /// The file named by `seq` (a segment's base, a snapshot's last).
    fn file_name(&self, seq: u64) -> String {
        format!("{seq:016x}{}", self.ext)
    }

    /// The header carrying `fields`: the one place header checksums are
    /// computed, for writing and for checking.
    fn header(&self, fields: &[u64]) -> Vec<u8> {
        let mut out = self.magic.to_vec();
        for field in fields {
            out.extend_from_slice(&field.to_le_bytes());
        }
        out.extend_from_slice(&fnv1a_64(&out).to_le_bytes());
        out
    }

    /// The fields of the header `bytes` open with, or its damage.
    fn read_header(&self, bytes: &[u8]) -> Result<Vec<u64>, Damage> {
        let (name, len) = (self.name, self.header_len());
        if bytes.len() < len {
            let detail = format!("incomplete {name} header ({} of {len} bytes)", bytes.len());
            return Err(Damage::at(bytes.len(), 0, None, detail).torn());
        }
        if &bytes[..8] != self.magic {
            return Err(Damage::at(0, 0, None, format!("bad {name} magic")));
        }
        let fields: Vec<u64> = (0..self.fields).map(|i| u64_at(bytes, 8 + 8 * i)).collect();
        if self.header(&fields) != bytes[..len] {
            let detail = format!("{name} header checksum mismatch");
            return Err(Damage::at(len - 8, 0, None, detail));
        }
        Ok(fields)
    }
}

/// Decodes the frame at `at`, which must carry sequence number `seq`:
/// the one frame decoder, for segments and snapshots alike. Returns the
/// payload and the offset just past the frame. A frame the end of the
/// file cuts short is `torn` damage; any other failure is not.
fn decode_frame(bytes: &[u8], at: usize, seq: u64) -> Result<(&[u8], usize), Damage> {
    let rem = bytes.len() - at;
    let damage = |found_seq, detail| Damage::at(at, seq, found_seq, detail);
    if rem < FRAME_HEADER_LEN as usize {
        let detail = format!("incomplete record frame ({rem} of {FRAME_HEADER_LEN} header bytes)");
        return Err(damage(None, detail).torn());
    }
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN {
        return Err(damage(None, format!("implausible record length {len}")));
    }
    let found = u64_at(bytes, at + 4);
    let frame_len = FRAME_HEADER_LEN as usize + len as usize;
    if frame_len > rem {
        let detail = format!("record extends past end of file ({rem} of {frame_len} bytes)");
        return Err(damage(Some(found), detail).torn());
    }
    let payload = &bytes[at + FRAME_HEADER_LEN as usize..at + frame_len];
    let detail = if u64_at(bytes, at + 12) != frame_crc(len, found, payload) {
        "record checksum mismatch on a complete frame"
    } else if found != seq {
        "sequence gap"
    } else if seq == u64::MAX {
        // No record could follow it: the next one would have no number.
        "sequence number overflow"
    } else {
        return Ok((payload, at + frame_len));
    };
    Err(damage(Some(found), detail.to_string()))
}

/// What recovery does to one file: the scan's label for it.
enum Fate {
    /// Its records are folded into the log, and it stays as it is.
    Folded,
    /// It adds nothing to the log and is removed: a segment whose
    /// records the snapshot already holds (a crash between a
    /// compaction's rename and its removals), an empty final segment
    /// behind the snapshot, or a final segment whose header never
    /// reached the disk.
    Covered,
    /// The final segment ends in an incomplete frame, the shape a crash
    /// mid-append leaves: its verified records are folded in and the
    /// rest is truncated.
    TornTail,
    /// Damage that is not a torn tail: the file is quarantined and the
    /// store refuses to open.
    Fatal(Damage),
    /// After a fatal file: neither folded nor touched.
    Unreached,
}

/// One store file, read and decoded once.
struct FileScan {
    path: PathBuf,
    kind: &'static Kind,
    /// The header's fields, or empty when the header did not verify.
    header: Vec<u64>,
    /// Byte offset just past each verified record.
    record_ends: Vec<u64>,
    /// File length in bytes.
    bytes: u64,
    /// The sequence number after the last verified record.
    next_seq: u64,
    /// Why decoding stopped before the end of the file.
    damage: Option<Damage>,
    fate: Fate,
}

impl FileScan {
    /// Decodes `bytes`, the whole file at `path`, into its scan and its
    /// verified records.
    fn decode(path: PathBuf, kind: &'static Kind, bytes: &[u8]) -> (FileScan, Vec<Record>) {
        let (header, damage) = match kind.read_header(bytes) {
            Ok(header) => (header, None),
            Err(d) => (Vec::new(), Some(d)),
        };
        let mut file = FileScan {
            path,
            kind,
            next_seq: header.first().copied().unwrap_or(0),
            header,
            record_ends: Vec::new(),
            bytes: bytes.len() as u64,
            damage,
            fate: Fate::Unreached,
        };
        let mut records = Vec::new();
        let mut at = kind.header_len();
        while file.damage.is_none() && at < bytes.len() {
            match decode_frame(bytes, at, file.next_seq) {
                Ok((payload, end)) => {
                    records.push(Record {
                        seq: file.next_seq,
                        payload: payload.to_vec(),
                    });
                    file.next_seq += 1;
                    file.record_ends.push(end as u64);
                    at = end;
                }
                Err(d) => file.damage = Some(d),
            }
        }
        (file, records)
    }

    fn is_segment(&self) -> bool {
        self.kind.magic == SEGMENT_MAGIC
    }

    /// Every verified byte: the length a torn tail is cut to.
    fn clean_len(&self) -> u64 {
        match self.record_ends.last() {
            Some(&end) => end,
            None if self.header.is_empty() => 0,
            None => self.kind.header_len() as u64,
        }
    }

    /// The file's fate, given whether it is the final segment and the
    /// sequence number the log expects next.
    fn judge(&self, tail: bool, expected: u64) -> Fate {
        if let Some(d) = self.damage.as_ref().filter(|d| !(d.torn && tail)) {
            return Fate::Fatal(d.clone());
        }
        let Some(&base) = self.header.first() else {
            return Fate::Covered;
        };
        if base > expected {
            let detail = format!("{} base leaves a sequence gap", self.kind.name);
            return Fate::Fatal(Damage::at(8, expected, Some(base), detail));
        }
        if let [_, last, count] = self.header[..] {
            if count != self.record_ends.len() as u64 || last.checked_add(1) != Some(self.next_seq)
            {
                let detail = "snapshot header count/last mismatch".to_string();
                return Fate::Fatal(Damage::at(16, expected, None, detail));
            }
        }
        let empty_behind = self.record_ends.is_empty() && base < expected;
        if self.is_segment() && self.next_seq <= expected && (!tail || empty_behind) {
            Fate::Covered
        } else if self.damage.is_some() {
            Fate::TornTail
        } else {
            Fate::Folded
        }
    }
}

/// A store directory as recovery finds it (see [`scan`]).
struct Scan {
    /// Superseded snapshots and leftovers of a crash mid-compaction
    /// (never renamed, so never part of the log): removed on open.
    stale: Vec<PathBuf>,
    /// The newest snapshot, if any, then every segment by base.
    files: Vec<FileScan>,
    /// Durable records in sequence order, up to the first fatal file.
    records: Vec<Record>,
    /// Of `records`, how many came from the snapshot.
    from_snapshot: u64,
    /// The sequence number the next append gets.
    next_seq: u64,
}

impl Scan {
    /// The first fatal file and its damage.
    fn fatal(&self) -> Option<(&FileScan, &Damage)> {
        self.files.iter().find_map(|f| match &f.fate {
            Fate::Fatal(d) => Some((f, d)),
            _ => None,
        })
    }
}

/// Reads every file of the store in `dir` once, labels each with its
/// [`Fate`], and folds the records in sequence order up to the first
/// fatal file. It changes nothing on disk: [`Wal::open`] acts on it and
/// [`Wal::inspect`] renders it.
fn scan(io: &dyn WalIo, dir: &Path) -> Result<Scan, StoreError> {
    let mut segs = Vec::new();
    let mut snaps = Vec::new();
    let mut stale = Vec::new();
    for path in io.list(dir).map_err(|e| StoreError::io("list", dir, e))? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let seq = |kind: &Kind| {
            let stem = name.strip_suffix(kind.ext)?;
            u64::from_str_radix(stem, 16).ok()
        };
        if let Some(n) = seq(&SEGMENT) {
            segs.push((n, path));
        } else if let Some(n) = seq(&SNAPSHOT) {
            snaps.push((n, path));
        } else if name.ends_with(".tmp") {
            stale.push(path);
        }
    }
    segs.sort();
    snaps.sort();
    let newest = snaps.pop().map(|(_, path)| (&SNAPSHOT, path));
    stale.extend(snaps.into_iter().map(|(_, path)| path));
    let count = segs.len() + usize::from(newest.is_some());
    let paths = newest
        .into_iter()
        .chain(segs.into_iter().map(|(_, path)| (&SEGMENT, path)));
    let mut scan = Scan {
        stale,
        files: Vec::with_capacity(count),
        records: Vec::new(),
        from_snapshot: 0,
        next_seq: 1,
    };
    let mut fatal = false;
    for (i, (kind, path)) in paths.enumerate() {
        let bytes = io
            .read(&path)
            .map_err(|e| StoreError::io("read", &path, e))?;
        let (mut file, records) = FileScan::decode(path, kind, &bytes);
        if !fatal {
            file.fate = file.judge(file.is_segment() && i + 1 == count, scan.next_seq);
            match file.fate {
                Fate::Fatal(_) => fatal = true,
                Fate::Folded | Fate::TornTail => {
                    let expected = scan.next_seq;
                    scan.records
                        .extend(records.into_iter().filter(|r| r.seq >= expected));
                    scan.next_seq = expected.max(file.next_seq);
                    if !file.is_segment() {
                        scan.from_snapshot = scan.records.len() as u64;
                    }
                }
                Fate::Covered | Fate::Unreached => {}
            }
        }
        scan.files.push(file);
    }
    Ok(scan)
}

/// Creates the segment whose first record will be `base`: header
/// written and fsynced, directory fsynced.
fn create_segment(
    io: &dyn WalIo,
    dir: &Path,
    base: u64,
) -> Result<(Box<dyn WalFile>, PathBuf), StoreError> {
    let path = dir.join(SEGMENT.file_name(base));
    let mut file = io
        .create(&path)
        .map_err(|e| StoreError::io("create", &path, e))?;
    file.write_all(&SEGMENT.header(&[base]))
        .map_err(|e| StoreError::io("append", &path, e))?;
    file.sync().map_err(|e| StoreError::io("fsync", &path, e))?;
    io.sync_dir(dir)
        .map_err(|e| StoreError::io("fsync", dir, e))?;
    Ok((file, path))
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

impl Appender {
    /// Fsyncs the active segment.
    fn sync(&mut self) -> Result<(), StoreError> {
        self.unsynced = 0;
        self.file
            .sync()
            .map_err(|e| StoreError::io("fsync", &self.seg_path, e))
    }
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
        let scan = scan(io.as_ref(), dir)?;
        if let Some((file, damage)) = scan.fatal() {
            return Err(quarantine(io.as_ref(), dir, &file.path, damage));
        }

        // Act on the scan: drop what adds nothing, cut the torn tail.
        let mut kind = if scan.files.is_empty() {
            RecoveryKind::Fresh
        } else {
            RecoveryKind::Clean
        };
        let remove = |path: &Path| {
            io.remove(path)
                .map_err(|e| StoreError::io("remove", path, e))
        };
        let mut removed = !scan.stale.is_empty();
        for path in &scan.stale {
            remove(path)?;
        }
        let mut sealed = Vec::new();
        for file in &scan.files {
            let clean_len = file.clean_len();
            if file.damage.is_some() {
                kind = RecoveryKind::TornTail {
                    file: file.path.clone(),
                    offset: clean_len,
                    dropped_bytes: file.bytes - clean_len,
                };
            }
            match file.fate {
                Fate::Covered => {
                    remove(&file.path)?;
                    removed = true;
                    continue;
                }
                Fate::TornTail => io
                    .set_len(&file.path, clean_len)
                    .map_err(|e| StoreError::io("truncate", &file.path, e))?,
                _ => {}
            }
            if file.is_segment() {
                sealed.push(file.path.clone());
            }
        }
        if removed {
            io.sync_dir(dir)
                .map_err(|e| StoreError::io("fsync", dir, e))?;
        }

        // Append to the final segment if it is kept and has room;
        // otherwise everything is sealed and a new segment starts.
        let tail = scan.files.last().filter(|f| {
            f.is_segment() && !matches!(f.fate, Fate::Covered) && f.clean_len() < opts.segment_bytes
        });
        let (file, seg_path, seg_len) = match tail {
            Some(tail) => {
                let path = sealed.pop().expect("the kept final segment");
                let file = io
                    .open_append(&path)
                    .map_err(|e| StoreError::io("open", &path, e))?;
                (file, path, tail.clean_len())
            }
            None => {
                let (file, path) = create_segment(io.as_ref(), dir, scan.next_seq)?;
                sealed.retain(|p| p != &path);
                (file, path, SEGMENT_HEADER_LEN)
            }
        };

        let recovery = Recovery {
            records: scan.records.len() as u64,
            last_seq: scan.next_seq - 1,
            from_snapshot: scan.from_snapshot,
            kind,
        };
        let snapshot = scan.files.first().filter(|f| !f.is_segment());
        let wal = Wal {
            dir: dir.to_path_buf(),
            opts,
            io,
            inner: Mutex::new(Appender {
                file,
                seg_path,
                seg_len,
                next_seq: scan.next_seq,
                unsynced: 0,
                sealed,
                snapshot: snapshot.map(|f| f.path.clone()),
            }),
        };
        Ok(Opened {
            wal,
            recovery,
            records: scan.records,
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
        let due = match self.opts.durability {
            Durability::PerRecord => true,
            Durability::PerBatch(n) => {
                a.unsynced += 1;
                a.unsynced >= n.max(1)
            }
            Durability::Never => false,
        };
        if due {
            a.sync()?;
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
        self.inner.lock().expect("wal lock").sync()
    }

    /// Seals the active segment and opens a new one.
    fn roll(&self, a: &mut Appender) -> Result<(), StoreError> {
        // A sealed segment must be fully durable before anything refers
        // past it.
        a.sync()?;
        let (file, path) = create_segment(self.io.as_ref(), &self.dir, a.next_seq)?;
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
        let folded = old_snap.iter().map(|p| (&SNAPSHOT, p));
        for (kind, path) in folded.chain(sealed.iter().map(|p| (&SEGMENT, p))) {
            let bytes = self
                .io
                .read(path)
                .map_err(|e| StoreError::io("read", path, e))?;
            let (file, recs) = FileScan::decode(path.clone(), kind, &bytes);
            let next = records.last().map_or(1, |r| r.seq + 1);
            if let Fate::Fatal(d) = file.judge(false, next) {
                return Err(quarantine(self.io.as_ref(), &self.dir, path, &d));
            }
            records.extend(recs.into_iter().filter(|r| r.seq >= next));
        }
        let (first, last) = match (records.first(), records.last()) {
            (Some(f), Some(l)) => (f.seq, l.seq),
            _ => (1, 0),
        };

        // Write-fsync-rename-fsync the new snapshot.
        let final_path = self.dir.join(SNAPSHOT.file_name(last));
        let tmp_path = self.dir.join(format!("{}.tmp", SNAPSHOT.file_name(last)));
        let mut body = SNAPSHOT.header(&[first, last, records.len() as u64]);
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
        let old_snap = old_snap.iter().filter(|p| **p != final_path);
        for path in old_snap.chain(&sealed) {
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
        let scan = scan(&StdIo, dir)?;
        let segments: Vec<&FileScan> = scan.files.iter().filter(|f| f.is_segment()).collect();
        let tail = segments.len().wrapping_sub(1);
        let state = if let Some((file, d)) = scan.fatal() {
            format!(
                "corrupt: {} at byte {}: {} (expected sequence {}{})",
                file.path.display(),
                d.offset,
                d.detail,
                d.expected_seq,
                d.found_seq
                    .map(|f| format!(", found {f}"))
                    .unwrap_or_default(),
            )
        } else if let Some(d) = segments.last().and_then(|f| f.damage.as_ref()) {
            let file = segments[tail];
            format!(
                "torn tail: {} at byte {} — recovery will truncate \
                 {} byte(s) and keep {} record(s)",
                file.path.display(),
                d.offset,
                file.bytes - file.clean_len(),
                file.record_ends.len()
            )
        } else {
            "clean".to_string()
        };
        let segments = segments
            .iter()
            .enumerate()
            .map(|(i, f)| SegmentStatus {
                path: f.path.clone(),
                base_seq: f.header.first().copied(),
                records: f.record_ends.len() as u64,
                bytes: f.bytes,
                record_ends: f.record_ends.clone(),
                damage: f.damage.as_ref().map(|d| {
                    if i == tail && d.torn {
                        format!("torn tail at byte {} ({})", d.offset, d.detail)
                    } else {
                        format!("corrupt at byte {}: {}", d.offset, d.detail)
                    }
                }),
            })
            .collect();
        Ok(Inspection {
            healthy: scan.fatal().is_none(),
            last_seq: scan.next_seq - 1,
            records: scan.records,
            snapshot_records: scan.from_snapshot,
            segments,
            state,
        })
    }
}

/// Renames a damaged file aside and builds the [`StoreError::Corrupt`].
fn quarantine(io: &dyn WalIo, dir: &Path, path: &Path, damage: &Damage) -> StoreError {
    let mut aside = path.as_os_str().to_os_string();
    aside.push(".quarantined");
    let quarantined = io.rename(path, Path::new(&aside)).is_ok() && io.sync_dir(dir).is_ok();
    StoreError::Corrupt {
        file: path.to_path_buf(),
        offset: damage.offset,
        expected_seq: damage.expected_seq,
        found_seq: damage.found_seq,
        detail: damage.detail.clone(),
        quarantined,
    }
}
