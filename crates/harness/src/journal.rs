//! Crash-resilient sweeps: a checksummed write-ahead job journal and
//! partial reports.
//!
//! A journaled sweep appends one record per completed job to the
//! result store at `results/runs/<name>.journal/` *before* the sweep
//! finishes, so a sweep killed mid-flight (OOM killer, Ctrl-C, a power
//! cut) leaves a durable record of everything already computed.
//! Re-running with `miopt-harness --resume <name>` replays the
//! journaled outcomes — successes *and* failures — without
//! re-simulating them, runs only the missing jobs, and produces a
//! final report identical to an uninterrupted run modulo timing
//! fields.
//!
//! The journal is a [`miopt_store::Wal`] — a segmented log where every
//! record carries a length prefix, a monotonic sequence number, and an
//! FNV-1a checksum (see `miopt-store` for the format and the recovery
//! state machine):
//!
//! * Record 1 — a header object: `{"journal": <name>, ["kind": …,]
//!   "schema_version": …, "journal_version": …, "fingerprint": <grid
//!   fingerprint>, <the kind's extras>, "jobs": <total job count>}`.
//! * Records 2.. — one compact [`JobKind::Record`] per completed job,
//!   in completion order (job ids make the order irrelevant on replay).
//!
//! This module is the only place that knows the header layout, the
//! fingerprint check and what a damaged store means for a resume; the
//! [`JobKind`] supplies the fingerprint, the header extras and the
//! record codec, so figure and serve sweeps share every line of it.
//!
//! On resume, a torn final record (the in-flight write at kill time)
//! is truncated away and the sweep continues; *interior* damage — a
//! bit flip, a missing record in the middle — is refused with a
//! descriptive error naming the byte offset, and the damaged file is
//! quarantined for forensics.
//!
//! The [`JobKind::fingerprint`] ties a journal to the exact sweep that
//! wrote it: the machine config, the job grid (workload identities and
//! policy labels), the run options, and any injected faults. Resuming
//! with different CLI flags (a different `--scale`, an added policy, a
//! changed cycle budget) is refused rather than silently mixing results
//! from two different experiments.
//!
//! Alongside the journal, the sweep rewrites
//! `results/runs/<name>.partial.json` (write-fsync-rename, so readers
//! never observe a torn file and a power cut never loses the previous
//! version) after every job. This is the graceful-interruption story:
//! the simulator forbids `unsafe` and links no signal-handling crate,
//! so instead of intercepting Ctrl-C the harness makes sure a current
//! partial report *already* exists at every instant one could arrive.
//! Both files are removed once the final report is safely on disk.

use crate::json::Json;
use crate::kind::JobKind;
use crate::results::SCHEMA_VERSION;
use miopt::runner::SweepSpec;
use miopt_store::{Durability, RecoveryKind, StoreOptions, Wal};
use std::path::{Path, PathBuf};

/// Version tag of the journal layout. Version 1 was a plain JSONL
/// file; version 2 is the checksummed segmented store.
pub const JOURNAL_VERSION: u32 = 2;

/// The journal store directory for a sweep named `name` under
/// `runs_dir`.
#[must_use]
pub fn journal_dir(runs_dir: &Path, name: &str) -> PathBuf {
    runs_dir.join(format!("{name}.journal"))
}

/// The store configuration every harness journal uses: fsync per
/// record (a kill loses at most the in-flight job). The journal only
/// appends, one record per job; a quick-scale `--all` sweep (about
/// 140 KB) stays in the first segment.
const STORE_OPTIONS: StoreOptions = StoreOptions {
    durability: Durability::PerRecord,
    segment_bytes: 256 * 1024,
};

/// Builds the header payload (record 1 of every journal store).
fn header_json<K: JobKind>(name: &str, kind: &K) -> String {
    let mut pairs = vec![("journal", Json::str(name))];
    pairs.extend(K::KIND.map(|tag| ("kind", Json::str(tag))));
    pairs.extend([
        ("schema_version", Json::U64(u64::from(SCHEMA_VERSION))),
        ("journal_version", Json::U64(u64::from(JOURNAL_VERSION))),
        ("fingerprint", Json::str(kind.fingerprint())),
    ]);
    pairs.extend(kind.header_extras());
    pairs.push(("jobs", Json::U64(kind.jobs().len() as u64)));
    Json::obj(pairs).to_compact()
}

/// An append-only journal of one sweep. Each appended record is
/// checksummed, sequence-numbered, and fsynced before `append` returns,
/// so a `SIGKILL` loses at most the in-flight record.
pub struct Journal<K: JobKind> {
    wal: Wal,
    /// Directory the journal store lives under.
    pub runs_dir: PathBuf,
    /// The sweep (and run id) the journal belongs to.
    pub name: String,
    /// Records of the jobs that completed before the run being resumed
    /// died, in the order they completed; empty for a fresh journal.
    pub entries: Vec<K::Record>,
}

/// The figure sweeps' journal.
pub type JournalWriter = Journal<SweepSpec>;

impl<K: JobKind> Journal<K> {
    /// Creates (replacing any previous journal of the same name) the
    /// journal store for `kind` and writes the header record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(runs_dir: &Path, name: &str, kind: &K) -> std::io::Result<Journal<K>> {
        std::fs::create_dir_all(runs_dir)?;
        let dir = journal_dir(runs_dir, name);
        if dir.is_dir() {
            std::fs::remove_dir_all(&dir)?;
        }
        let opened = Wal::open(&dir, STORE_OPTIONS)?;
        opened.wal.append(header_json(name, kind).as_bytes())?;
        Ok(Journal {
            wal: opened.wal,
            runs_dir: runs_dir.to_path_buf(),
            name: name.to_string(),
            entries: Vec::new(),
        })
    }

    /// Reopens the journal store at `<runs_dir>/<name>.journal/` for a
    /// resume: validates that it belongs to `kind` (same fingerprint)
    /// before trusting any entry, loads [`Journal::entries`], and
    /// leaves the journal ready for further appends. A torn final
    /// record (the in-flight write at kill time) is repaired and
    /// dropped; interior corruption is a hard error naming the damaged
    /// file and byte offset (the file is quarantined with a
    /// `.quarantined` suffix).
    ///
    /// # Errors
    ///
    /// Returns a description when the journal is missing, unreadable,
    /// corrupt, or was written by a different sweep.
    pub fn resume(runs_dir: &Path, name: &str, kind: &K) -> Result<Journal<K>, String> {
        let dir = journal_dir(runs_dir, name);
        if !dir.is_dir() {
            return Err(format!(
                "no journal for run `{name}` at {} \
                 (was the sweep started without journaling, or already completed?)",
                dir.display()
            ));
        }
        let opened = Wal::open(&dir, STORE_OPTIONS)
            .map_err(|e| format!("journal {} is damaged: {e}", dir.display()))?;
        if let RecoveryKind::TornTail {
            file,
            offset,
            dropped_bytes,
        } = &opened.recovery.kind
        {
            eprintln!(
                "note: journal {}: torn tail repaired at byte {offset} \
                 ({dropped_bytes} byte(s) from the in-flight record dropped)",
                file.display()
            );
        }
        let mut records = opened.records.iter();
        let header = records
            .next()
            .ok_or_else(|| format!("journal {} is empty", dir.display()))?;
        let header_text = std::str::from_utf8(&header.payload)
            .map_err(|_| format!("journal {} has a non-UTF-8 header", dir.display()))?;
        let header = Json::parse(header_text)
            .map_err(|e| format!("journal {} has a malformed header: {e}", dir.display()))?;
        let fingerprint = header
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("journal {} header lacks a fingerprint", dir.display()))?;
        let expected = kind.fingerprint();
        if fingerprint != expected {
            return Err(format!(
                "journal {} was written by a different {}sweep \
                 (fingerprint {fingerprint}, this invocation is {expected}); \
                 resume with the exact flags of the original run, or delete \
                 the journal to start over",
                dir.display(),
                K::KIND.map_or(String::new(), |tag| format!("{tag} "))
            ));
        }
        let total = kind.jobs().len();
        let mut entries = Vec::new();
        for rec in records {
            // Every payload here survived a checksum, so parse failures
            // are logic errors, not torn writes: refuse loudly.
            let text = std::str::from_utf8(&rec.payload).map_err(|_| {
                format!("journal {} record {} is not UTF-8", dir.display(), rec.seq)
            })?;
            let doc = Json::parse(text).map_err(|e| {
                format!("journal {} record {} invalid: {e}", dir.display(), rec.seq)
            })?;
            let rec = K::decode(&doc)
                .map_err(|e| format!("journal {} entry invalid: {e}", dir.display()))?;
            let id = K::record_id(&rec);
            if id >= total {
                return Err(format!(
                    "journal {} names job {id} but the sweep has {total} jobs",
                    dir.display()
                ));
            }
            entries.push(rec);
        }
        Ok(Journal {
            wal: opened.wal,
            runs_dir: runs_dir.to_path_buf(),
            name: name.to_string(),
            entries,
        })
    }

    /// Where this sweep's partial report lives.
    #[must_use]
    pub fn partial_path(&self) -> PathBuf {
        self.runs_dir.join(format!("{}.partial.json", self.name))
    }

    /// Appends one job record, fsyncing it before returning.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&self, record: &K::Record) -> std::io::Result<()> {
        self.wal.append(K::encode(record).as_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::JobRecord;
    use miopt::SystemConfig;
    use miopt_workloads::{by_name, SuiteConfig};
    use std::io::Write as _;

    fn spec() -> SweepSpec {
        let s = SuiteConfig::quick();
        SweepSpec::statics(
            SystemConfig::small_test(),
            vec![by_name(&s, "FwSoft").unwrap()],
        )
    }

    fn record(id: usize) -> JobRecord {
        JobRecord {
            id,
            workload: "FwSoft".to_string(),
            workload_id: "soft:quick".to_string(),
            policy: "CacheR".to_string(),
            cache_key: "00112233".to_string(),
            cached: false,
            elapsed_ms: 7,
            status: "ok".to_string(),
            attempts: 1,
            metrics: None,
            diagnostic: None,
        }
    }

    fn only_segment(dir: &Path) -> PathBuf {
        let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        segs.sort();
        assert_eq!(segs.len(), 1);
        segs.pop().unwrap()
    }

    #[test]
    fn fingerprint_tracks_the_grid_and_options() {
        let base = spec();
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let mut narrower = base.clone();
        narrower.policies.pop();
        assert_ne!(base.fingerprint(), narrower.fingerprint());
        let mut other_opts = base.clone();
        other_opts.run_opts.max_cycles /= 2;
        assert_ne!(base.fingerprint(), other_opts.fingerprint());
        let mut checked = base.clone();
        checked.run_opts.check_invariants = true;
        assert_ne!(base.fingerprint(), checked.fingerprint());
    }

    fn ids(entries: &[JobRecord]) -> Vec<usize> {
        entries.iter().map(|r| r.id).collect()
    }

    #[test]
    fn journal_round_trips_and_tolerates_a_torn_tail() {
        let dir = std::env::temp_dir().join("miopt-journal-test");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = spec();
        let w = JournalWriter::create(&dir, "t", &spec).unwrap();
        w.append(&record(0)).unwrap();
        w.append(&record(2)).unwrap();
        drop(w);
        // Simulate a SIGKILL mid-append: a torn trailing frame.
        let seg = only_segment(&journal_dir(&dir, "t"));
        let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0x2a, 0x00, 0x00, 0x00, 0x03]).unwrap(); // 5 of 20 header bytes
        drop(f);
        let w = Journal::resume(&dir, "t", &spec).unwrap();
        assert_eq!(
            ids(&w.entries),
            vec![0, 2],
            "torn tail dropped, intact entries kept"
        );
        assert_eq!(w.entries[0].status, "ok");
        // After repair the journal accepts appends again.
        w.append(&record(1)).unwrap();
        drop(w);
        let w = Journal::resume(&dir, "t", &spec).unwrap();
        assert_eq!(ids(&w.entries), vec![0, 2, 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_corruption_is_refused_with_the_byte_offset() {
        let dir = std::env::temp_dir().join("miopt-journal-corrupt-test");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = spec();
        let w = JournalWriter::create(&dir, "t", &spec).unwrap();
        w.append(&record(0)).unwrap();
        w.append(&record(1)).unwrap();
        drop(w);
        let seg = only_segment(&journal_dir(&dir, "t"));
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let err = Journal::resume(&dir, "t", &spec).err().unwrap();
        assert!(err.contains("damaged"), "{err}");
        assert!(err.contains("byte offset"), "{err}");
        assert!(err.contains("quarantined"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_foreign_journal() {
        let dir = std::env::temp_dir().join("miopt-journal-fingerprint-test");
        let _ = std::fs::remove_dir_all(&dir);
        let original = spec();
        JournalWriter::create(&dir, "t", &original).unwrap();
        let mut different = original.clone();
        different.run_opts.max_cycles /= 2;
        let err = Journal::resume(&dir, "t", &different).err().unwrap();
        assert!(err.contains("different sweep"), "{err}");
        // Missing journals get a descriptive error, not a panic.
        let err = Journal::resume(&dir, "absent", &original).err().unwrap();
        assert!(err.contains("no journal"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
