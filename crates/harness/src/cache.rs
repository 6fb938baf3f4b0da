//! Persistent result caching keyed by experiment identity.
//!
//! A sweep job is fully determined by `(system config, workload, policy)`
//! — the simulator is deterministic — so its [`Metrics`](miopt::Metrics) can be reused
//! across runs. The cache stores one JSON file per completed job under a
//! cache directory (default `results/cache/`), named by an FNV-1a 64
//! digest of:
//!
//! * the [`config_hash`] of the machine,
//! * the workload's [`stable_id`](miopt_workloads::Workload::stable_id),
//! * the policy label,
//! * the results [`SCHEMA_VERSION`] and
//!   the global seed.
//!
//! Any change to machine parameters, workload geometry, policy, schema,
//! or seed therefore misses the cache instead of resurrecting stale
//! numbers. Corrupt or unreadable entries are treated as misses. This is
//! also the schema migration mechanism: the v1→v2 stat-name flattening
//! bumped `SCHEMA_VERSION`, so every old entry simply misses and is
//! re-simulated (stale files can be deleted at leisure).
//!
//! Cache entries store metrics only, never telemetry time series (those
//! can be hundreds of epochs per run); telemetry-enabled sweeps bypass
//! the cache entirely so every run records a full series.

use crate::json::Json;
use crate::provenance::{config_hash, GLOBAL_SEED};
use crate::results::{metrics_from_json, metrics_to_json, SCHEMA_VERSION};
use miopt::runner::{Job, RunResult, SweepSpec};
use miopt_engine::hash::Fnv1a;
use std::path::PathBuf;

/// The identity of one cached experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey(u64);

impl CacheKey {
    /// The key for one job of a sweep.
    #[must_use]
    pub fn for_job(spec: &SweepSpec, job: &Job) -> CacheKey {
        let mut h = Fnv1a::new();
        h.write(config_hash(&spec.cfg).as_bytes());
        h.write(spec.workloads[job.workload].stable_id().as_bytes());
        h.write(job.policy.label().as_bytes());
        h.write_u64(u64::from(SCHEMA_VERSION));
        h.write_u64(GLOBAL_SEED);
        CacheKey(h.finish())
    }

    /// The key as fixed-width hex (the cache file stem).
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A directory of cached job results.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache { dir: dir.into() }
    }

    fn path_of(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// Loads a cached result, or `None` on miss/corruption. The stored
    /// workload name and policy must match the requesting job (hash
    /// collisions or hand-edited files downgrade to a miss).
    #[must_use]
    pub fn load(&self, spec: &SweepSpec, job: &Job) -> Option<RunResult> {
        let key = CacheKey::for_job(spec, job);
        let text = std::fs::read_to_string(self.path_of(key)).ok()?;
        let doc = Json::parse(&text).ok()?;
        let workload = spec.workloads[job.workload].name.clone();
        if doc.get("workload")?.as_str()? != workload
            || doc.get("policy")?.as_str()? != job.policy.label()
        {
            return None;
        }
        let metrics = metrics_from_json(doc.get("metrics")?).ok()?;
        Some(RunResult {
            workload,
            policy: job.policy,
            metrics,
            telemetry: None,
        })
    }

    /// Stores a completed job's result. Write errors are reported, not
    /// fatal: a read-only checkout still runs sweeps, just uncached.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store(&self, spec: &SweepSpec, job: &Job, result: &RunResult) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let key = CacheKey::for_job(spec, job);
        let doc = Json::obj([
            ("workload", Json::str(&result.workload)),
            (
                "workload_id",
                Json::str(spec.workloads[job.workload].stable_id()),
            ),
            ("policy", Json::str(job.policy.label())),
            ("config_hash", Json::str(config_hash(&spec.cfg))),
            ("schema_version", Json::U64(u64::from(SCHEMA_VERSION))),
            ("metrics", metrics_to_json(&result.metrics)),
        ]);
        // Write-then-rename so a crashed run never leaves a truncated
        // entry that would poison later lookups.
        let tmp = self.dir.join(format!(".{}.tmp", key.hex()));
        std::fs::write(&tmp, doc.to_pretty())?;
        std::fs::rename(&tmp, self.path_of(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miopt::SystemConfig;
    use miopt_workloads::{by_name, SuiteConfig};

    fn test_spec() -> SweepSpec {
        SweepSpec::statics(
            SystemConfig::small_test(),
            vec![by_name(&SuiteConfig::quick(), "FwSoft").unwrap()],
        )
    }

    #[test]
    fn keys_separate_every_identity_component() {
        let spec = test_spec();
        let jobs = spec.jobs();
        let base = CacheKey::for_job(&spec, &jobs[0]);
        // Different policy.
        assert_ne!(base, CacheKey::for_job(&spec, &jobs[1]));
        // Different machine.
        let mut other = spec.clone();
        other.cfg.queue_capacity += 1;
        assert_ne!(base, CacheKey::for_job(&other, &jobs[0]));
        // Same everything: equal.
        assert_eq!(base, CacheKey::for_job(&test_spec(), &jobs[0]));
    }

    #[test]
    fn store_load_round_trip_and_mismatch_rejection() {
        let dir = std::env::temp_dir().join(format!("miopt-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let spec = test_spec();
        let jobs = spec.jobs();

        // Miss on empty cache.
        assert!(cache.load(&spec, &jobs[0]).is_none());

        let fresh = spec.run_job(&jobs[0]).expect("job runs");
        cache.store(&spec, &jobs[0], &fresh).unwrap();
        let hit = cache.load(&spec, &jobs[0]).expect("hit after store");
        assert_eq!(hit.metrics, fresh.metrics);
        assert_eq!(hit.workload, fresh.workload);

        // Other jobs still miss.
        assert!(cache.load(&spec, &jobs[1]).is_none());

        // Corrupt entry downgrades to a miss.
        let path = dir.join(format!("{}.json", CacheKey::for_job(&spec, &jobs[0]).hex()));
        std::fs::write(&path, "{ not json").unwrap();
        assert!(cache.load(&spec, &jobs[0]).is_none());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
