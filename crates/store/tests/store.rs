//! End-to-end proof of the store's crash-safety contract:
//!
//! * a WAL truncated at **every** byte offset recovers to a valid
//!   prefix — no panic, no phantom records;
//! * a crash injected at **every** byte of the write stream (via
//!   [`miopt_store::FaultIo`]) leaves a store that reopens and reports
//!   exactly the durable prefix;
//! * interior damage (bit flips, sequence gaps) is classified as
//!   corruption, quarantined, and reported with byte offsets — never
//!   silently dropped;
//! * random damage to a snapshot and its segments never panics, and
//!   `inspect` and `open` agree on it.

use miopt_engine::hash::fnv1a_64;
use miopt_engine::prop;
use miopt_store::{
    encode_frame, Durability, FaultIo, Record, RecoveryKind, StoreError, StoreOptions, Wal,
    SEGMENT_HEADER_LEN, SEGMENT_MAGIC, SNAPSHOT_HEADER_LEN, SNAPSHOT_MAGIC,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("miopt-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn payload(i: u64) -> Vec<u8> {
    format!(
        "{{\"job\":{i},\"metric\":\"l2.load_hits\",\"value\":{}}}",
        i * 7
    )
    .into_bytes()
}

fn opts(segment_bytes: u64) -> StoreOptions {
    StoreOptions {
        durability: Durability::PerRecord,
        segment_bytes,
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[test]
fn round_trip_across_reopen() {
    let dir = tmp("round-trip");
    let opened = Wal::open(&dir, opts(1 << 20)).unwrap();
    assert_eq!(opened.recovery.kind, RecoveryKind::Fresh);
    assert_eq!(opened.records.len(), 0);
    for i in 0..10 {
        let seq = opened.wal.append(&payload(i)).unwrap();
        assert_eq!(seq, i + 1);
    }
    assert_eq!(opened.wal.last_seq(), 10);
    drop(opened);

    let reopened = Wal::open(&dir, opts(1 << 20)).unwrap();
    assert_eq!(reopened.recovery.kind, RecoveryKind::Clean);
    assert_eq!(reopened.recovery.last_seq, 10);
    assert_eq!(reopened.records.len(), 10);
    for (i, rec) in reopened.records.iter().enumerate() {
        assert_eq!(rec.seq, i as u64 + 1);
        assert_eq!(rec.payload, payload(i as u64));
    }
    // Appending continues from the recovered sequence.
    assert_eq!(reopened.wal.append(b"more").unwrap(), 11);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segments_roll_and_recover() {
    let dir = tmp("roll");
    // Tiny segments: every record or two forces a roll.
    let opened = Wal::open(&dir, opts(96)).unwrap();
    for i in 0..20 {
        opened.wal.append(&payload(i)).unwrap();
    }
    drop(opened);
    let segs = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "seg")
        })
        .count();
    assert!(segs > 3, "expected several segments, got {segs}");
    let reopened = Wal::open(&dir, opts(96)).unwrap();
    assert_eq!(reopened.records.len(), 20);
    assert_eq!(reopened.recovery.kind, RecoveryKind::Clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole property: truncate the log at EVERY byte offset of the
/// final segment; recovery must always succeed with exactly the records
/// whose frames fit inside the cut, and appending must work afterwards.
#[test]
fn truncation_at_every_byte_offset_recovers_the_valid_prefix() {
    let base = tmp("truncate-all");
    let master = base.join("master");
    let opened = Wal::open(&master, opts(1 << 20)).unwrap();
    for i in 0..6 {
        opened.wal.append(&payload(i)).unwrap();
    }
    drop(opened);

    let inspection = Wal::inspect(&master).unwrap();
    assert_eq!(inspection.segments.len(), 1);
    let seg = &inspection.segments[0];
    let seg_name = seg.path.file_name().unwrap().to_owned();
    let ends = seg.record_ends.clone();
    let total = seg.bytes;
    assert_eq!(ends.len(), 6);
    assert_eq!(*ends.last().unwrap(), total);

    for cut in 0..=total {
        let victim = base.join(format!("cut-{cut}"));
        copy_dir(&master, &victim);
        let seg_path = victim.join(&seg_name);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg_path)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let survivors = ends.iter().filter(|&&e| e <= cut).count();
        let reopened = Wal::open(&victim, opts(1 << 20))
            .unwrap_or_else(|e| panic!("cut at byte {cut} failed to recover: {e}"));
        assert_eq!(
            reopened.records.len(),
            survivors,
            "cut at byte {cut}: wrong prefix"
        );
        for (i, rec) in reopened.records.iter().enumerate() {
            assert_eq!(rec.payload, payload(i as u64), "cut at byte {cut}");
        }
        let clean = cut == total || ends.contains(&cut) || cut == SEGMENT_HEADER_LEN;
        match &reopened.recovery.kind {
            RecoveryKind::Clean => assert!(clean, "cut at byte {cut} should be torn"),
            RecoveryKind::TornTail { dropped_bytes, .. } => {
                assert!(!clean, "cut at byte {cut} should be clean");
                let clean_len = if cut < SEGMENT_HEADER_LEN {
                    0 // header itself torn: the whole file is dropped
                } else {
                    ends.iter()
                        .rfind(|&&e| e <= cut)
                        .copied()
                        .unwrap_or(SEGMENT_HEADER_LEN)
                };
                assert_eq!(*dropped_bytes, cut - clean_len, "cut at byte {cut}");
            }
            RecoveryKind::Fresh => panic!("cut at byte {cut} reported fresh"),
        }
        // The repaired store keeps working.
        let next = reopened.wal.append(b"after-recovery").unwrap();
        assert_eq!(next, survivors as u64 + 1);
        drop(reopened);
        let again = Wal::open(&victim, opts(1 << 20)).unwrap();
        assert_eq!(again.records.len(), survivors + 1);
        assert_eq!(again.recovery.kind, RecoveryKind::Clean);
        std::fs::remove_dir_all(&victim).unwrap();
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A bit flip inside a complete frame is corruption, not a tear: the
/// store must refuse to open, quarantine the file, and report the byte
/// offset and sequence numbers.
#[test]
fn bit_flip_is_classified_as_corruption_and_quarantined() {
    let dir = tmp("bit-flip");
    let opened = Wal::open(&dir, opts(1 << 20)).unwrap();
    for i in 0..4 {
        opened.wal.append(&payload(i)).unwrap();
    }
    drop(opened);
    let inspection = Wal::inspect(&dir).unwrap();
    let seg_path = inspection.segments[0].path.clone();
    // Flip a payload byte in record 2 (between end of record 1 and 2).
    let flip_at = (inspection.segments[0].record_ends[0] + 25) as usize;
    let mut bytes = std::fs::read(&seg_path).unwrap();
    bytes[flip_at] ^= 0x40;
    std::fs::write(&seg_path, &bytes).unwrap();

    let err = Wal::open(&dir, opts(1 << 20)).unwrap_err();
    match &err {
        StoreError::Corrupt {
            offset,
            expected_seq,
            quarantined,
            detail,
            ..
        } => {
            assert_eq!(*offset, inspection.segments[0].record_ends[0]);
            assert_eq!(*expected_seq, 2);
            assert!(*quarantined, "damaged segment must be quarantined");
            assert!(detail.contains("checksum"), "detail: {detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let mut aside = seg_path.clone().into_os_string();
    aside.push(".quarantined");
    assert!(Path::new(&aside).exists(), "quarantined file missing");
    assert!(!seg_path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damage in a sealed (non-final) segment is never a torn tail, even
/// when it looks like one: interior truncation means records are
/// missing from the middle of the log.
#[test]
fn damage_in_a_sealed_segment_is_corruption() {
    let dir = tmp("sealed-damage");
    let opened = Wal::open(&dir, opts(96)).unwrap();
    for i in 0..12 {
        opened.wal.append(&payload(i)).unwrap();
    }
    drop(opened);
    let inspection = Wal::inspect(&dir).unwrap();
    assert!(inspection.segments.len() >= 2);
    let first_seg = inspection.segments[0].path.clone();
    let len = std::fs::metadata(&first_seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&first_seg)
        .unwrap()
        .set_len(len - 3)
        .unwrap();
    let err = Wal::open(&dir, opts(96)).unwrap_err();
    assert!(
        matches!(err, StoreError::Corrupt { .. }),
        "expected Corrupt, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forged frame with the wrong sequence number (but a valid checksum)
/// is caught as a sequence gap with both numbers reported.
#[test]
fn sequence_gap_is_reported_with_both_numbers() {
    let dir = tmp("seq-gap");
    let opened = Wal::open(&dir, opts(1 << 20)).unwrap();
    opened.wal.append(b"one").unwrap();
    drop(opened);
    let inspection = Wal::inspect(&dir).unwrap();
    let seg_path = inspection.segments[0].path.clone();
    // Append a validly-checksummed frame with seq 5 instead of 2.
    let mut bytes = std::fs::read(&seg_path).unwrap();
    bytes.extend_from_slice(&encode_frame(5, b"interloper"));
    std::fs::write(&seg_path, &bytes).unwrap();
    let err = Wal::open(&dir, opts(1 << 20)).unwrap_err();
    match err {
        StoreError::Corrupt {
            expected_seq,
            found_seq,
            detail,
            ..
        } => {
            assert_eq!(expected_seq, 2);
            assert_eq!(found_seq, Some(5));
            assert!(detail.contains("gap"), "detail: {detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_folds_sealed_segments_into_a_snapshot() {
    let dir = tmp("compact");
    let opened = Wal::open(&dir, opts(96)).unwrap();
    for i in 0..10 {
        opened.wal.append(&payload(i)).unwrap();
    }
    let stats = opened.wal.compact().unwrap();
    assert!(stats.folded_segments > 0);
    assert!(stats.snapshot_records > 0);
    // Appending keeps working mid-lifecycle, and a second compaction
    // folds the newly sealed segments into the next snapshot.
    for i in 10..16 {
        opened.wal.append(&payload(i)).unwrap();
    }
    opened.wal.compact().unwrap();
    drop(opened);

    let snaps = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "snap")
        })
        .count();
    assert_eq!(snaps, 1, "superseded snapshots must be removed");

    let reopened = Wal::open(&dir, opts(96)).unwrap();
    assert_eq!(reopened.records.len(), 16);
    assert!(reopened.recovery.from_snapshot > 0);
    for (i, rec) in reopened.records.iter().enumerate() {
        assert_eq!(rec.payload, payload(i as u64));
        assert_eq!(rec.seq, i as u64 + 1);
    }
    assert_eq!(reopened.wal.append(b"post-snapshot").unwrap(), 17);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full crash matrix: kill the write path at every byte of the
/// store's write stream. Every record whose append returned `Ok` must
/// survive recovery; the in-flight record must vanish cleanly.
#[test]
fn injected_crash_at_every_byte_recovers_exactly_the_durable_prefix() {
    let base = tmp("fault-matrix");
    // Dry run to size the full write stream.
    let dry = base.join("dry");
    let opened = Wal::open(&dry, opts(128)).unwrap();
    let n_records = 8u64;
    for i in 0..n_records {
        opened.wal.append(&payload(i)).unwrap();
    }
    drop(opened);
    let total: u64 = std::fs::read_dir(&dry)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();

    for budget in 0..=total {
        let victim = base.join(format!("kill-{budget}"));
        let io = FaultIo::new(budget);
        let mut ok = 0u64;
        match Wal::open_with_io(&victim, opts(128), Arc::new(io.clone())) {
            Ok(opened) => {
                for i in 0..n_records {
                    match opened.wal.append(&payload(i)) {
                        Ok(_) => ok += 1,
                        Err(_) => break,
                    }
                }
            }
            Err(_) => {
                // Crashed while creating the store; nothing durable yet.
            }
        }

        let recovered = Wal::open(&victim, opts(128))
            .unwrap_or_else(|e| panic!("budget {budget}: recovery failed: {e}"));
        assert_eq!(
            recovered.records.len() as u64,
            ok,
            "budget {budget}: recovery disagrees with the acknowledged prefix"
        );
        for (i, rec) in recovered.records.iter().enumerate() {
            assert_eq!(rec.payload, payload(i as u64), "budget {budget}");
        }
        // The recovered store accepts appends at the right sequence.
        assert_eq!(recovered.wal.append(b"rebirth").unwrap(), ok + 1);
        std::fs::remove_dir_all(&victim).unwrap();
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Relaxed durability modes still recover the clean-shutdown log and
/// never corrupt structure.
#[test]
fn batch_and_never_durability_round_trip() {
    for durability in [Durability::PerBatch(4), Durability::Never] {
        let dir = tmp(match durability {
            Durability::PerBatch(_) => "batch",
            _ => "never",
        });
        let o = StoreOptions {
            durability,
            segment_bytes: 256,
        };
        let opened = Wal::open(&dir, o).unwrap();
        for i in 0..9 {
            opened.wal.append(&payload(i)).unwrap();
        }
        opened.wal.sync().unwrap();
        drop(opened);
        let reopened = Wal::open(&dir, o).unwrap();
        assert_eq!(reopened.records.len(), 9);
        assert_eq!(reopened.recovery.kind, RecoveryKind::Clean);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn inspect_reports_torn_and_corrupt_without_repairing() {
    let dir = tmp("inspect");
    let opened = Wal::open(&dir, opts(1 << 20)).unwrap();
    for i in 0..3 {
        opened.wal.append(&payload(i)).unwrap();
    }
    drop(opened);

    let clean = Wal::inspect(&dir).unwrap();
    assert_eq!(clean.state, "clean");
    assert!(clean.healthy);
    assert_eq!(clean.records.len(), 3);
    assert_eq!(clean.last_seq, 3);

    // Tear the tail: inspect reports it but leaves the file alone.
    let seg_path = clean.segments[0].path.clone();
    let torn_len = clean.segments[0].record_ends[1] + 7;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg_path)
        .unwrap()
        .set_len(torn_len)
        .unwrap();
    let torn = Wal::inspect(&dir).unwrap();
    assert!(torn.state.starts_with("torn tail"), "state: {}", torn.state);
    assert!(torn.healthy, "a torn tail is recoverable");
    assert_eq!(torn.records.len(), 2);
    assert_eq!(
        std::fs::metadata(&seg_path).unwrap().len(),
        torn_len,
        "inspect must not repair"
    );

    // Corrupt the interior: unhealthy, still no mutation.
    let mut bytes = std::fs::read(&seg_path).unwrap();
    let flip = SEGMENT_HEADER_LEN as usize + 22;
    bytes[flip] ^= 0xff;
    std::fs::write(&seg_path, &bytes).unwrap();
    let corrupt = Wal::inspect(&dir).unwrap();
    assert!(!corrupt.healthy);
    assert!(
        corrupt.state.starts_with("corrupt"),
        "state: {}",
        corrupt.state
    );
    assert!(seg_path.exists(), "inspect must not quarantine");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Payloads survive byte-for-byte, including empty and binary ones.
#[test]
fn arbitrary_payloads_round_trip() {
    let dir = tmp("payloads");
    let cases: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0u8; 1],
        (0..=255u8).collect(),
        vec![0xff; 4096],
        b"{\"nested\":{\"json\":[1,2,3]}}\n".to_vec(),
    ];
    let opened = Wal::open(&dir, opts(512)).unwrap();
    for c in &cases {
        opened.wal.append(c).unwrap();
    }
    drop(opened);
    let reopened = Wal::open(&dir, opts(512)).unwrap();
    let got: Vec<Vec<u8>> = reopened
        .records
        .iter()
        .map(|r: &Record| r.payload.clone())
        .collect();
    assert_eq!(got, cases);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file header as the store writes it: `magic`, the fields as u64 LE,
/// and FNV-1a 64 over both.
fn header(magic: &[u8; 8], fields: &[u64]) -> Vec<u8> {
    let mut out = magic.to_vec();
    for field in fields {
        out.extend_from_slice(&field.to_le_bytes());
    }
    out.extend_from_slice(&fnv1a_64(&out).to_le_bytes());
    out
}

/// Checksummed headers whose sequence numbers leave no room for the
/// next record are corruption, not an overflow: a segment based at
/// `u64::MAX` holding one valid frame, and an empty snapshot whose last
/// sequence is `u64::MAX`.
#[test]
fn sequence_numbers_at_the_top_of_the_range_are_corruption() {
    let dir = tmp("seq-overflow");
    let forged: [(&str, Vec<u8>, u64); 2] = [
        (
            "ffffffffffffffff.seg",
            {
                let mut bytes = header(SEGMENT_MAGIC, &[u64::MAX]);
                bytes.extend_from_slice(&encode_frame(u64::MAX, b"last"));
                bytes
            },
            SEGMENT_HEADER_LEN,
        ),
        (
            "ffffffffffffffff.snap",
            header(SNAPSHOT_MAGIC, &[1, u64::MAX, 0]),
            16,
        ),
    ];
    for (name, bytes, offset) in forged {
        write_store(&dir, &[(name.to_string(), bytes)]);
        let inspection = Wal::inspect(&dir).unwrap();
        assert!(!inspection.healthy, "{name}: {}", inspection.state);
        assert!(
            inspection.state.starts_with("corrupt"),
            "{}",
            inspection.state
        );
        match Wal::open(&dir, opts(1 << 20)) {
            Err(StoreError::Corrupt {
                file, offset: at, ..
            }) => {
                assert_eq!(file, dir.join(name));
                assert_eq!(at, offset, "{name}");
            }
            other => panic!("{name}: expected Corrupt, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A random stretch `start..end` of `0..len`.
fn span(c: &mut prop::Case, len: usize) -> std::ops::Range<usize> {
    let start = c.below(len as u64 + 1) as usize;
    start..start + c.below((len - start) as u64 + 1) as usize
}

/// Writes `files` (name, bytes) as the store directory `dir`.
fn write_store(dir: &Path, files: &[(String, Vec<u8>)]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// Random damage to a store of a snapshot and four segments: bit flips,
/// splices of any of its files, duplicated spans and truncations. Neither
/// `inspect` nor `open` panics; `inspect` calls the store healthy exactly
/// when `open` succeeds, and then both give the same records, which are
/// a prefix of what was appended. One flipped bit inside a complete frame
/// is corruption at that frame's first byte (outside the length field of
/// the final segment's frames, where a longer length reads as a torn
/// tail).
#[test]
fn damaged_stores_are_refused_or_recover_a_prefix_of_the_appends() {
    let base = tmp("mutate");
    let master = base.join("master");
    let opened = Wal::open(&master, opts(96)).unwrap();
    for i in 0..10 {
        opened.wal.append(&payload(i)).unwrap();
    }
    opened.wal.compact().unwrap();
    for i in 10..16 {
        opened.wal.append(&payload(i)).unwrap();
    }
    drop(opened);
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&master)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    // Name order is sequence order: the snapshot, then the segments.
    files.sort();
    let segments = files.iter().filter(|(n, _)| n.ends_with(".seg")).count();
    assert!(files[0].0.ends_with(".snap") && segments >= 3, "{files:?}");
    // Every frame of every file, as (file, first byte, end).
    let mut frames = Vec::new();
    for (f, (name, bytes)) in files.iter().enumerate() {
        let snapshot = name.ends_with(".snap");
        let mut at = if snapshot {
            SNAPSHOT_HEADER_LEN
        } else {
            SEGMENT_HEADER_LEN
        } as usize;
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            frames.push((f, at, at + 20 + len));
            at += 20 + len;
        }
    }
    let victim = base.join("victim");
    let copy = base.join("copy");

    prop::check("damaged_stores_are_refused_or_recover_a_prefix", 64, |c| {
        let mut store = files.clone();
        for _ in 0..c.steps(1..5) {
            let f = c.below(store.len() as u64) as usize;
            let bytes = &mut store[f].1;
            let at = c.below(bytes.len() as u64 + 1) as usize;
            match c.below(4) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= 1 << c.below(8),
                2 => {
                    let from = &files[c.below(files.len() as u64) as usize].1;
                    let stretch = span(c, from.len());
                    bytes.splice(at..at, from[stretch].iter().copied());
                }
                _ => {
                    let stretch = span(c, bytes.len());
                    let dup = bytes[stretch.clone()].to_vec();
                    bytes.splice(stretch.start..stretch.start, dup);
                }
            }
        }
        write_store(&victim, &store);
        write_store(&copy, &store);
        let inspection = Wal::inspect(&victim).unwrap();
        let opened = Wal::open(&copy, opts(96));
        assert_eq!(
            inspection.healthy,
            opened.is_ok(),
            "inspect: {}; open: {:?}",
            inspection.state,
            opened.as_ref().err()
        );
        if let Ok(opened) = opened {
            assert_eq!(opened.records, inspection.records);
            assert_eq!(opened.recovery.last_seq, inspection.last_seq);
            for (i, rec) in opened.records.iter().enumerate() {
                assert_eq!(rec.seq, i as u64 + 1);
                assert_eq!(rec.payload, payload(i as u64), "record {}", rec.seq);
            }
        }

        let (f, start, end) = frames[c.below(frames.len() as u64) as usize];
        let tail = f + 1 == files.len();
        let at = c.range(if tail { start + 4 } else { start } as u64..end as u64) as usize;
        let mut store = files.clone();
        store[f].1[at] ^= 1 << c.below(8);
        write_store(&copy, &store);
        match Wal::open(&copy, opts(96)) {
            Err(StoreError::Corrupt { file, offset, .. }) => {
                assert_eq!(file, copy.join(&files[f].0));
                assert_eq!(offset, start as u64, "flip at byte {at} of {}", files[f].0);
            }
            other => panic!("flip at byte {at} of {}: {other:?}", files[f].0),
        }
    });
    let _ = std::fs::remove_dir_all(&base);
}
