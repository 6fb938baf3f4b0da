//! Deterministic crash injection across the journaled sweep: the
//! on-disk journal is cut at every record boundary (a kill between
//! appends) and at seeded offsets inside records (a kill mid-write),
//! and every cut must recover to exactly the durable prefix and resume
//! to a report byte-identical to the uninterrupted run. The job kind is
//! one more input: the figure and the serve journal take the same cuts.
//!
//! The byte-exhaustive versions of these cuts — every offset of the
//! write stream, via the fault-point I/O layer — live in
//! `crates/store/tests/store.rs`; this test proves the same guarantee
//! end-to-end through the sweep orchestrator.

use miopt::runner::SweepSpec;
use miopt::{CachePolicy, PolicyConfig, SystemConfig};
use miopt_engine::rng::SplitMix64;
use miopt_harness::journal::Journal;
use miopt_harness::json::Json;
use miopt_harness::results::JobRecord;
use miopt_harness::serve::{ServeJobRecord, ServeSweepSpec, TenantResult};
use miopt_harness::sweep::{open_journal, run_kind, JournalOptions, SweepRun};
use miopt_harness::{JobError, JobKind, PoolOptions};
use miopt_store::{StoreOptions, Wal};
use miopt_workloads::{by_name, SuiteConfig};
use std::path::Path;

fn figure_spec() -> SweepSpec {
    SweepSpec::statics(
        SystemConfig::small_test(),
        vec![by_name(&SuiteConfig::quick(), "FwSoft").unwrap()],
    )
}

fn serve_spec() -> ServeSweepSpec {
    ServeSweepSpec {
        system: SystemConfig::small_test(),
        tenants: vec![
            (
                "t0".to_string(),
                by_name(&SuiteConfig::quick(), "FwSoft").unwrap(),
            ),
            (
                "t1".to_string(),
                by_name(&SuiteConfig::quick(), "FwPool").unwrap(),
            ),
        ],
        policies: vec![
            PolicyConfig::of(CachePolicy::Uncached),
            PolicyConfig::of(CachePolicy::CacheR),
            PolicyConfig::of(CachePolicy::CacheRW),
        ],
        loads: vec![60_000],
        requests: 3,
        seed: 0,
        partition: true,
        max_batch: 2,
        budget: 500_000_000,
        no_skip: false,
        check_invariants: false,
    }
}

/// Strips the timing fields a resume legitimately changes, leaving
/// everything that must be byte-identical.
fn stable_json<K: JobKind>(report: &K::Report) -> String {
    let mut doc = K::document(report);
    fn scrub(doc: &mut Json) {
        if let Json::Obj(pairs) = doc {
            pairs.retain(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "elapsed_ms" | "started_unix_ms" | "git_dirty" | "git_rev"
                )
            });
            for (_, v) in pairs.iter_mut() {
                scrub(v);
            }
        }
        if let Json::Arr(items) = doc {
            for v in items.iter_mut() {
                scrub(v);
            }
        }
    }
    scrub(&mut doc);
    doc.to_pretty()
}

/// The journaled sweep `victim` of `kind` under `dir`, fresh or resumed.
fn run_journaled<K: JobKind>(kind: &K, dir: &Path, resume: bool) -> Result<SweepRun<K>, String> {
    let opts = JournalOptions {
        dir: dir.to_path_buf(),
        resume,
    };
    let journal = open_journal(kind, "victim", &opts)?;
    let pool = PoolOptions::default();
    Ok(run_kind(kind, "victim", &pool, None, Some(journal)))
}

#[test]
fn every_kill_point_recovers_and_resumes_byte_identically() {
    every_kill_point("figures", &figure_spec());
    every_kill_point("serve", &serve_spec());
}

fn every_kill_point<K: JobKind>(tag: &str, spec: &K) {
    let dir = std::env::temp_dir().join(format!("miopt-crash-inject-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = spec.jobs().len();

    // The uninterrupted reference run, journal left in place: its one
    // segment is the complete write stream a crash would have cut.
    let full = run_journaled(spec, &dir, false).expect("journaled sweep runs");
    full.results(spec).expect("every job succeeds");
    let reference = stable_json::<K>(&full.report);

    let store = dir.join("victim.journal");
    let intact = Wal::inspect(&store).expect("intact journal inspects");
    assert!(intact.healthy, "state: {}", intact.state);
    assert_eq!(intact.state, "clean");
    assert_eq!(
        intact.records.len(),
        jobs + 1,
        "header + one record per job"
    );
    assert_eq!(intact.segments.len(), 1, "small sweeps stay in one segment");
    let seg_path = intact.segments[0].path.clone();
    let bytes = std::fs::read(&seg_path).unwrap();
    let ends = intact.segments[0].record_ends.clone();
    assert_eq!(*ends.last().unwrap() as usize, bytes.len());

    // Kill points: every record boundary (a crash between appends), and
    // one seeded offset strictly inside every record after the header (a
    // crash mid-append). ends[0] closes the header record — below that
    // the journal loses its identity and resume must refuse, which is
    // covered separately below.
    let mut rng = SplitMix64::new(0xC8A5_11ED);
    let mut cuts: Vec<u64> = ends.clone();
    for pair in ends.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        cuts.push(lo + 1 + rng.next_below(hi - lo - 1));
    }
    cuts.sort_unstable();

    for &cut in &cuts {
        // Restore the intact journal, then cut it: the exact on-disk
        // state a SIGKILL at this point of the write stream leaves.
        std::fs::write(&seg_path, &bytes[..cut as usize]).unwrap();

        let info = Wal::inspect(&store).expect("cut journal inspects");
        assert!(info.healthy, "cut {cut}: state {}", info.state);
        let boundary = ends.contains(&cut);
        assert_eq!(
            info.state == "clean",
            boundary,
            "cut {cut}: boundary cuts are clean, interior cuts torn (state: {})",
            info.state
        );
        // Recovery reports exactly the durable prefix: all records
        // whose frames fit wholly below the cut.
        let durable = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(info.records.len(), durable, "cut {cut}");

        let resumed = run_journaled(spec, &dir, true)
            .unwrap_or_else(|e| panic!("cut {cut}: resume failed: {e}"));
        let replayed = resumed.outcomes.iter().filter(|o| o.cached).count();
        assert_eq!(replayed, durable - 1, "cut {cut}: journaled jobs replay");
        assert_eq!(
            stable_json::<K>(&resumed.report),
            reference,
            "cut {cut}: resumed report must be byte-identical"
        );
    }

    // A cut inside the header record destroys the journal's identity:
    // resume must refuse with a descriptive error, not fabricate state.
    std::fs::write(&seg_path, &bytes[..(ends[0] - 3) as usize]).unwrap();
    let info = Wal::inspect(&store).unwrap();
    assert!(info.records.is_empty());
    let err = run_journaled(spec, &dir, true).err().unwrap();
    assert!(err.contains("is empty"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corruption_below_the_cut_refuses_resume_with_the_byte_offset() {
    corruption_below_the_cut("figures", &figure_spec());
    corruption_below_the_cut("serve", &serve_spec());
}

fn corruption_below_the_cut<K: JobKind>(tag: &str, spec: &K) {
    let dir =
        std::env::temp_dir().join(format!("miopt-crash-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _full = run_journaled(spec, &dir, false).expect("journaled sweep runs");

    let store = dir.join("victim.journal");
    let intact = Wal::inspect(&store).unwrap();
    let seg_path = intact.segments[0].path.clone();
    let mut bytes = std::fs::read(&seg_path).unwrap();
    // Flip one payload byte in the middle of the second record: a
    // complete frame with a bad checksum is damage, never a torn tail.
    let mid =
        ((intact.segments[0].record_ends[0] + intact.segments[0].record_ends[1]) / 2) as usize;
    bytes[mid] ^= 0x01;
    std::fs::write(&seg_path, &bytes).unwrap();

    let info = Wal::inspect(&store).unwrap();
    assert!(!info.healthy);
    assert!(info.state.contains("corrupt"), "{}", info.state);
    let err = run_journaled(spec, &dir, true).err().unwrap();
    assert!(err.contains("damaged"), "{err}");
    assert!(err.contains("byte offset"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The on-disk format, pinned byte for byte: the header record of each
/// kind's journal and one encoded job record of each, as the commit
/// before the `JobKind` seam wrote them — so journals it left behind
/// stay resumable. The fingerprints inside the headers hash the test
/// machine and grids; a deliberate change to either moves them, and
/// this literal with them.
#[test]
fn journal_bytes_are_pinned_for_both_kinds() {
    fn header<K: JobKind>(dir: &Path, name: &str, kind: &K) -> String {
        drop(Journal::create(dir, name, kind).expect("a fresh journal opens"));
        let store = Wal::inspect(&dir.join(format!("{name}.journal"))).expect("it inspects");
        String::from_utf8(store.records[0].payload.clone()).expect("the header is UTF-8")
    }
    let dir = std::env::temp_dir().join(format!("miopt-journal-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        header(&dir, "fig", &figure_spec()),
        r#"{"journal":"fig","schema_version":2,"journal_version":2,"fingerprint":"075027782345ea00","jobs":3}"#
    );
    assert_eq!(
        header(&dir, "srv", &serve_spec()),
        r#"{"journal":"srv","kind":"serve","schema_version":2,"journal_version":2,"fingerprint":"a97cab7088d5811a","arrival_seed":0,"arrivals_fingerprint":"1b65c88e29e4e2fb","jobs":3}"#
    );

    let record = JobRecord {
        id: 1,
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
    };
    let line = r#"{"id":1,"workload":"FwSoft","workload_id":"soft:quick","policy":"CacheR","cache_key":"00112233","cached":false,"elapsed_ms":7,"status":"ok","attempts":1}"#;
    assert_eq!(SweepSpec::encode(&record), line);
    let back = SweepSpec::decode(&Json::parse(line).unwrap()).unwrap();
    assert_eq!(SweepSpec::encode(&back), line);

    let record = ServeJobRecord {
        id: 2,
        policy: "CacheRW".to_string(),
        load: 60_000,
        status: "ok".to_string(),
        cycles: 123_456,
        tenants: vec![TenantResult {
            name: "t0".to_string(),
            workload: "FwSoft".to_string(),
            requested: 3,
            completed: 3,
            batches: 2,
            kernels: 4,
            busy_cycles: 5000,
            queue_peak: 2,
            dram_reads: 10,
            dram_writes: 11,
            noc_req_transfers: 12,
            noc_resp_transfers: 13,
            latency_sum: 9000,
            p50: 2500,
            p95: 4000,
            p99: 4100,
        }],
    };
    let line = r#"{"id":2,"policy":"CacheRW","load":60000,"status":"ok","cycles":123456,"tenants":[{"name":"t0","workload":"FwSoft","requested":3,"completed":3,"batches":2,"kernels":4,"busy_cycles":5000,"queue_peak":2,"dram_reads":10,"dram_writes":11,"noc_req_transfers":12,"noc_resp_transfers":13,"latency_sum":9000,"p50":2500,"p95":4000,"p99":4100}]}"#;
    assert_eq!(ServeSweepSpec::encode(&record), line);
    let back = ServeSweepSpec::decode(&Json::parse(line).unwrap()).unwrap();
    assert_eq!(back, record);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Failure records resume: one of an older harness that re-ran failed
/// jobs journaled `quarantined after 2 attempts: …` with `attempts` 2,
/// one that ran jobs under a wall-clock limit journaled `timed out
/// after 1.0s`, and a budget halt. Each record replays verbatim as a
/// failed job, and only the jobs the journal lacks are simulated.
#[test]
fn a_quarantined_record_of_an_older_journal_replays_verbatim() {
    let dir = std::env::temp_dir().join(format!("miopt-journal-old-{}", std::process::id()));
    let spec = figure_spec();
    let policy = spec.jobs()[1].policy.label();
    let label = format!("FwSoft/{policy}: ");
    let halted = format!("{label}simulation exceeded 10 cycles");
    for (status, attempts, elapsed_ms) in [
        (
            "quarantined after 2 attempts: timed out after 2.0s",
            2,
            4213,
        ),
        ("timed out after 1.0s", 1, 1000),
        (halted.as_str(), 1, 3),
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        drop(Journal::create(&dir, "victim", &spec).expect("a fresh journal opens"));
        let line = format!(
            r#"{{"id":1,"workload":"FwSoft","workload_id":"soft:quick","policy":"{policy}","cache_key":"00112233","cached":false,"elapsed_ms":{elapsed_ms},"status":"{status}","attempts":{attempts}}}"#
        );
        let store = Wal::open(&dir.join("victim.journal"), StoreOptions::default()).unwrap();
        store.wal.append(line.as_bytes()).unwrap();
        drop(store);

        let resumed = run_journaled(&spec, &dir, true).expect("the old journal resumes");
        let replayed = &resumed.outcomes[1];
        assert!(
            replayed.cached,
            "{status}: the journaled failure is not re-run"
        );
        assert_eq!(
            replayed.result.as_ref().err(),
            Some(&JobError::Journaled(status.to_string()))
        );
        assert_eq!(SweepSpec::encode(&resumed.report.jobs[1]), line);
        for id in [0, 2] {
            let o = &resumed.outcomes[id];
            assert!(o.result.is_ok() && !o.cached && o.attempts == 1, "job {id}");
        }
        assert!(
            resumed.results(&spec).is_err(),
            "{status}: the sweep reports a failure"
        );
        // The failure list names the job once, also when the status (a
        // halt's) already starts with its label.
        let failure = format!("{label}{}", status.trim_start_matches(&label));
        assert_eq!(resumed.results(&spec).err(), Some(failure));
        let provenance = SweepSpec::document(&resumed.report)
            .get("provenance")
            .cloned();
        assert!(provenance.is_some_and(|p| p.get("quarantined").is_none()));
    }

    let _ = std::fs::remove_dir_all(&dir);
}
