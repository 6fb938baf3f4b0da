//! End-to-end guarantees of the `serve` sweep: byte-identical results
//! at any worker count and in both stepping modes, and a resume that
//! provably replays identical traffic.

use miopt::{CachePolicy, PolicyConfig, SystemConfig};
use miopt_harness::journal::Journal;
use miopt_harness::json::Json;
use miopt_harness::provenance::Provenance;
use miopt_harness::serve::{report_json, run_serve_job, ServeJobRecord, ServeSweepSpec};
use miopt_harness::sweep::run_kind;
use miopt_harness::{JobKind, PoolOptions};
use miopt_workloads::SuiteConfig;

/// Runs the grid on `workers` threads (0 = every core), replaying
/// `journal` first, and returns every record in job-id order.
fn execute(
    spec: &ServeSweepSpec,
    workers: usize,
    journal: Option<Journal<ServeSweepSpec>>,
) -> Vec<ServeJobRecord> {
    let pool = PoolOptions {
        workers,
        ..PoolOptions::default()
    };
    let run = run_kind(spec, "t", &pool, None, journal);
    run.outcomes.iter().map(|o| spec.record(o)).collect()
}

fn tiny_spec() -> ServeSweepSpec {
    ServeSweepSpec {
        system: SystemConfig::small_test(),
        scale: SuiteConfig::quick(),
        tenants: vec![
            ("t0".to_string(), "FwSoft".to_string()),
            ("t1".to_string(), "FwPool".to_string()),
        ],
        policies: vec![
            PolicyConfig::of(CachePolicy::Uncached),
            PolicyConfig::of(CachePolicy::CacheR),
            PolicyConfig::of(CachePolicy::CacheRW),
        ],
        loads: vec![60_000, 15_000],
        requests: 3,
        seed: 0,
        partition: true,
        max_batch: 2,
        budget: 500_000_000,
        no_skip: false,
        check_invariants: false,
    }
}

/// The deterministic part of the report: everything below `jobs` and
/// `summary` (provenance carries wall-clock and git state).
fn stable_report_slice(doc: &Json) -> String {
    format!(
        "{}\n{}",
        doc.get("jobs").expect("report has jobs").to_pretty(),
        doc.get("summary").expect("report has summary").to_pretty()
    )
}

#[test]
fn serve_sweep_is_byte_identical_across_worker_counts() {
    let spec = tiny_spec();
    let serial = execute(&spec, 1, None);
    let parallel = execute(&spec, 4, None);
    assert_eq!(serial, parallel);
    for (i, rec) in serial.iter().enumerate() {
        assert_eq!(rec.id, i, "records must come back in job-id order");
        assert_eq!(rec.status, "ok");
        for t in &rec.tenants {
            assert_eq!(t.completed, t.requested);
            assert!(t.p99 >= t.p50);
        }
    }
}

#[test]
fn serve_sweep_is_byte_identical_across_skip_modes() {
    let mut spec = tiny_spec();
    // One load level keeps the no-skip (per-cycle) arm affordable.
    spec.loads = vec![30_000];
    let skipped = execute(&spec, 2, None);
    spec.no_skip = true;
    let stepped = execute(&spec, 2, None);
    // no_skip is part of the journal fingerprint but must not change a
    // single simulated number.
    assert_eq!(skipped, stepped);
}

#[test]
fn resumed_serve_sweep_reproduces_the_full_report() {
    let dir = std::env::temp_dir().join("miopt-serve-resume-test");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = tiny_spec();

    // The uninterrupted reference run.
    let full = execute(&spec, 2, None);
    let reference = report_json(&spec, "ref", &Provenance::collect(&spec.system, 2), &full);

    // A run that "dies" after two journaled jobs (we just stop driving
    // it), leaving a torn trailing frame like a real SIGKILL would: the
    // first bytes of record 4's header, cut mid-write.
    let writer = Journal::create(&dir, "victim", &spec).unwrap();
    let jobs = spec.jobs();
    writer.append(&run_serve_job(&spec, &jobs[0])).unwrap();
    writer.append(&run_serve_job(&spec, &jobs[3])).unwrap();
    drop(writer);
    let store = dir.join("victim.journal");
    let seg = std::fs::read_dir(&store)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("the journal store has a segment");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x2a, 0x00, 0x00, 0x00, 0x03]);
    std::fs::write(&seg, &bytes).unwrap();

    // Resume: replay the journal, run only the missing jobs.
    let journal = Journal::resume(&dir, "victim", &spec).unwrap();
    assert_eq!(
        journal.entries.iter().map(|r| r.id).collect::<Vec<_>>(),
        vec![0, 3],
        "torn tail dropped, intact entries kept"
    );
    let resumed = execute(&spec, 2, Some(journal));
    assert_eq!(resumed, full, "resume must not change any record");
    let resumed_report = report_json(
        &spec,
        "ref",
        &Provenance::collect(&spec.system, 2),
        &resumed,
    );
    assert_eq!(
        stable_report_slice(&reference),
        stable_report_slice(&resumed_report),
        "jobs and summary must be byte-identical after a resume"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_foreign_traffic() {
    let dir = std::env::temp_dir().join("miopt-serve-fingerprint-test");
    let _ = std::fs::remove_dir_all(&dir);
    let original = tiny_spec();
    Journal::create(&dir, "t", &original).unwrap();

    // Same grid, different arrival seed: different traffic, refused.
    let mut reseeded = original.clone();
    reseeded.seed = 1;
    let err = Journal::resume(&dir, "t", &reseeded).err().unwrap();
    assert!(err.contains("different serve sweep"), "{err}");

    // Different run options are refused too.
    let mut rebudgeted = original.clone();
    rebudgeted.budget /= 2;
    let err = Journal::resume(&dir, "t", &rebudgeted).err().unwrap();
    assert!(err.contains("different serve sweep"), "{err}");

    let err = Journal::resume(&dir, "absent", &original).err().unwrap();
    assert!(err.contains("no journal"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sweep's reason to exist: a config where the policy ranking by
/// p99 request latency differs from the ranking by mean dispatch
/// runtime (documented in EXPERIMENTS.md §"Tail latency under
/// multi-tenant serving").
#[test]
fn tail_diverges_from_mean_at_the_documented_config() {
    let mut spec = tiny_spec();
    spec.policies = vec![
        PolicyConfig::of(CachePolicy::Uncached),
        PolicyConfig::of(CachePolicy::CacheR),
        PolicyConfig::of(CachePolicy::CacheRW),
    ];
    spec.loads = vec![5_000];
    spec.requests = 16;
    spec.seed = 1;
    spec.partition = false;
    spec.max_batch = 4;
    let records = execute(&spec, 0, None);
    let summary = report_json(
        &spec,
        "div",
        &Provenance::collect(&spec.system, 1),
        &records,
    );
    let row = &summary.get("summary").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(
        row.get("best_by_p99").and_then(Json::as_str),
        Some("CacheRW"),
        "queueing at load 5000 favours CacheRW's tail"
    );
    assert_eq!(
        row.get("best_by_mean_batch").and_then(Json::as_str),
        Some("CacheR"),
        "isolated dispatch runtime favours CacheR"
    );
    assert_eq!(
        row.get("tail_diverges_from_mean").and_then(Json::as_bool),
        Some(true)
    );
}

#[test]
fn report_carries_traffic_provenance() {
    let spec = tiny_spec();
    let records = execute(&spec, 2, None);
    let doc = report_json(&spec, "t", &Provenance::collect(&spec.system, 2), &records);
    let prov = doc.get("provenance").expect("report has provenance");
    assert_eq!(
        prov.get("arrival_seed").and_then(Json::as_u64),
        Some(spec.seed)
    );
    assert_eq!(
        prov.get("arrivals_fingerprint").and_then(Json::as_str),
        Some(format!("{:016x}", spec.arrivals_fingerprint()).as_str())
    );
    // The summary names a best policy per load level.
    let summary = doc.get("summary").and_then(Json::as_arr).unwrap();
    assert_eq!(summary.len(), spec.loads.len());
    for row in summary {
        assert!(row.get("best_by_p99").and_then(Json::as_str).is_some());
        assert!(row
            .get("best_by_mean_batch")
            .and_then(Json::as_str)
            .is_some());
    }
}
