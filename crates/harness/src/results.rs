//! Structured results: converting run metrics to and from JSON, and the
//! on-disk sweep report written under `results/runs/`.
//!
//! The schema (version [`SCHEMA_VERSION`]) is documented in DESIGN.md
//! §"miopt-harness". The important property is *exactness*: every counter
//! is a JSON integer and the clock is written with shortest round-trip
//! float formatting, so deserializing a cached result reproduces the
//! original [`Metrics`] bit for bit — the determinism guarantees of the
//! simulator extend through the results layer.

use crate::json::Json;
use crate::provenance::Provenance;
use miopt::Metrics;
use miopt::StallDiagnostic;
use miopt_cache::CacheStats;
use miopt_dram::DramStats;
use miopt_gpu::GpuStats;
use miopt_telemetry::StatSnapshot;
use std::path::Path;

/// Version tag of the results/cache JSON schema. Bump on any change to
/// the serialized layout; cached results from other versions are ignored.
///
/// Version history:
/// * **2** (current) — additionally carries per-job `attempts` and, for
///   wedged runs, a `diagnostic` object; both are additive report-only
///   fields, so the cache file format (and therefore the version) is
///   unchanged. Counters flattened to the workspace-wide dotted stat-name
///   registry (`l2.load_hits`, `dram.row_conflicts`, …) shared with
///   telemetry. Because the cache key includes this constant, every v1
///   cache entry misses and is transparently re-simulated; stale
///   `results/cache/*.json` files can simply be deleted.
/// * **1** — nested per-component objects (`{"dram": {"reads": …}}`).
pub const SCHEMA_VERSION: u32 = 2;

/// Appends `pairs` under `scope` as flat `scope.name` keys.
fn push_scoped(out: &mut Vec<(String, Json)>, scope: &str, pairs: Vec<(&'static str, u64)>) {
    for (name, value) in pairs {
        out.push((format!("{scope}.{name}"), Json::U64(value)));
    }
}

/// A `from_pairs` getter reading flat `scope.name` keys off `obj`.
fn scoped_field<'a>(obj: &'a Json, scope: &'a str) -> impl FnMut(&str) -> Option<u64> + 'a {
    move |key| obj.get(&format!("{scope}.{key}"))?.as_u64()
}

/// Serializes metrics to a flat JSON object keyed by the dotted
/// stat-name registry (`gpu.valu_lane_ops`, `dram.row_conflicts`,
/// `l1.load_hits`, `l2.store_allocs`, …) plus `cycles` and
/// `gpu_clock_hz`.
#[must_use]
pub fn metrics_to_json(m: &Metrics) -> Json {
    let mut pairs = vec![
        ("cycles".to_string(), Json::U64(m.cycles)),
        ("gpu_clock_hz".to_string(), Json::F64(m.gpu_clock_hz())),
    ];
    push_scoped(&mut pairs, "gpu", m.gpu.stat_pairs());
    push_scoped(&mut pairs, "dram", m.dram.stat_pairs());
    push_scoped(&mut pairs, "l1", m.l1.stat_pairs());
    push_scoped(&mut pairs, "l2", m.l2.stat_pairs());
    Json::Obj(pairs)
}

/// Rebuilds metrics from [`metrics_to_json`] output.
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
pub fn metrics_from_json(obj: &Json) -> Result<Metrics, String> {
    let cycles = obj
        .get("cycles")
        .and_then(Json::as_u64)
        .ok_or("missing or invalid `cycles`")?;
    let clock = obj
        .get("gpu_clock_hz")
        .and_then(Json::as_f64)
        .ok_or("missing or invalid `gpu_clock_hz`")?;
    let gpu = GpuStats::from_pairs(scoped_field(obj, "gpu"))?;
    let dram = DramStats::from_pairs(scoped_field(obj, "dram"))?;
    let l1 = CacheStats::from_pairs(scoped_field(obj, "l1"))?;
    let l2 = CacheStats::from_pairs(scoped_field(obj, "l2"))?;
    Ok(Metrics::from_parts(cycles, gpu, dram, l1, l2, clock))
}

/// One job's entry in a sweep report.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id within the sweep (assembly order).
    pub id: usize,
    /// Workload display name.
    pub workload: String,
    /// Stable workload identity ([`miopt_workloads::Workload::stable_id`]).
    pub workload_id: String,
    /// Policy label (e.g. `CacheRW-PCby`).
    pub policy: String,
    /// The persistent result-cache key of this job, as hex.
    pub cache_key: String,
    /// Whether the result was loaded from the cache rather than
    /// simulated.
    pub cached: bool,
    /// Wall milliseconds this job took in this sweep (≈0 when cached).
    pub elapsed_ms: u64,
    /// `"ok"`, or the failure description for halted, panicked or
    /// cancelled jobs.
    pub status: String,
    /// How many times the job was executed: 1 when it ran, 0 when it
    /// was served from the cache or cancelled. A journal written by an
    /// older harness that re-ran failed jobs may replay 2 or more.
    pub attempts: usize,
    /// The metrics, when the job succeeded.
    pub metrics: Option<Metrics>,
    /// The stall diagnostic, when the simulator halted: its cycle budget
    /// ran out, or an invariant check or the watchdog stopped it (see
    /// [`stall_diagnostic_to_json`]).
    pub diagnostic: Option<Json>,
}

impl JobRecord {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id".to_string(), Json::U64(self.id as u64)),
            ("workload".to_string(), Json::str(&self.workload)),
            ("workload_id".to_string(), Json::str(&self.workload_id)),
            ("policy".to_string(), Json::str(&self.policy)),
            ("cache_key".to_string(), Json::str(&self.cache_key)),
            ("cached".to_string(), Json::Bool(self.cached)),
            ("elapsed_ms".to_string(), Json::U64(self.elapsed_ms)),
            ("status".to_string(), Json::str(&self.status)),
            ("attempts".to_string(), Json::U64(self.attempts as u64)),
        ];
        if let Some(m) = &self.metrics {
            pairs.push(("metrics".to_string(), metrics_to_json(m)));
        }
        if let Some(d) = &self.diagnostic {
            pairs.push(("diagnostic".to_string(), d.clone()));
        }
        Json::Obj(pairs)
    }

    /// The record as one compact JSON line (the journal entry format).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        self.to_json().to_compact()
    }

    /// Rebuilds a record from its JSON form (used when replaying a
    /// resume journal).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<JobRecord, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
        let text = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` is not a string"))
        };
        let int = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("`{key}` is not an integer"))
        };
        let metrics = match doc.get("metrics") {
            Some(m) => Some(metrics_from_json(m)?),
            None => None,
        };
        Ok(JobRecord {
            id: int("id")? as usize,
            workload: text("workload")?,
            workload_id: text("workload_id")?,
            policy: text("policy")?,
            cache_key: text("cache_key")?,
            cached: field("cached")?.as_bool().ok_or("`cached` is not a bool")?,
            elapsed_ms: int("elapsed_ms")?,
            status: text("status")?,
            attempts: int("attempts")? as usize,
            metrics,
            diagnostic: doc.get("diagnostic").cloned(),
        })
    }
}

/// Serializes a simulator stall diagnostic for the sweep report: the
/// stall cycle/phase/reason, the oldest in-flight request, per-queue
/// occupancies, MSHR contents, wavefront states, blocked cache units,
/// and any invariant violations — everything `miopt-core` gathered when the run wedged.
#[must_use]
pub fn stall_diagnostic_to_json(d: &StallDiagnostic) -> Json {
    let mut pairs = vec![
        ("cycle".to_string(), Json::U64(d.cycle)),
        ("phase".to_string(), Json::str(d.phase)),
        ("reason".to_string(), Json::str(d.reason.to_string())),
    ];
    if let Some(oldest) = &d.oldest_request {
        pairs.push(("oldest_request".to_string(), Json::str(oldest)));
    }
    pairs.push((
        "queues".to_string(),
        Json::Arr(
            d.queues
                .iter()
                .map(|(name, occ)| {
                    Json::obj([
                        ("queue", Json::str(name)),
                        ("occupancy", Json::U64(*occ as u64)),
                    ])
                })
                .collect(),
        ),
    ));
    pairs.push((
        "mshrs".to_string(),
        Json::Arr(
            d.mshrs
                .iter()
                .map(|(component, entries)| {
                    Json::obj([
                        ("component", Json::str(component)),
                        (
                            "entries",
                            Json::Arr(entries.iter().map(Json::str).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    pairs.push((
        "wavefronts".to_string(),
        Json::Arr(d.wavefronts.iter().map(Json::str).collect()),
    ));
    pairs.push((
        "blocked_units".to_string(),
        Json::Arr(d.blocked_units.iter().map(Json::str).collect()),
    ));
    pairs.push((
        "violations".to_string(),
        Json::Arr(
            d.violations
                .iter()
                .map(|v| {
                    Json::obj([
                        ("component", Json::str(&v.component)),
                        ("invariant", Json::str(v.invariant)),
                        ("detail", Json::str(&v.detail)),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(pairs)
}

/// A complete sweep report: provenance plus one record per job.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Sweep name (also the `results/runs/<name>.json` file stem).
    pub name: String,
    /// Run provenance.
    pub provenance: Provenance,
    /// Per-job records, in job-id order.
    pub jobs: Vec<JobRecord>,
}

impl SweepReport {
    /// The report as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sweep", Json::str(&self.name)),
            ("schema_version", Json::U64(u64::from(SCHEMA_VERSION))),
            ("provenance", self.provenance.to_json()),
            (
                "jobs",
                Json::Arr(self.jobs.iter().map(JobRecord::to_json).collect()),
            ),
        ])
    }

    /// Durably writes the report under `dir` as `<name>.json`
    /// ([`miopt_store::atomic_replace`]), creating the directory if
    /// needed, and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_under(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        miopt_store::atomic_replace(&path, self.to_json().to_pretty().as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miopt::runner::{run_one, run_one_with, RunOptions};
    use miopt::{CachePolicy, PolicyConfig, SystemConfig};
    use miopt_workloads::{by_name, SuiteConfig};

    #[test]
    fn metrics_round_trip_bit_exactly() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let r = run_one(
            &SystemConfig::small_test(),
            &w,
            PolicyConfig::of(CachePolicy::CacheRW),
        )
        .expect("run finishes");
        let doc = metrics_to_json(&r.metrics);
        let text = doc.to_pretty();
        let back = metrics_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r.metrics);
        // And the derived figure metrics agree exactly.
        assert_eq!(back.gvops().to_bits(), r.metrics.gvops().to_bits());
        assert_eq!(
            back.stalls_per_request().to_bits(),
            r.metrics.stalls_per_request().to_bits()
        );
    }

    #[test]
    fn missing_fields_are_reported() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let r = run_one(
            &SystemConfig::small_test(),
            &w,
            PolicyConfig::of(CachePolicy::Uncached),
        )
        .expect("run finishes");
        let mut doc = metrics_to_json(&r.metrics);
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "dram.row_conflicts");
        }
        let err = metrics_from_json(&doc).unwrap_err();
        assert!(err.contains("row_conflicts"), "{err}");
    }

    #[test]
    fn serialized_keys_follow_the_dotted_registry() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let opts = RunOptions {
            telemetry_interval: Some(5_000),
            ..RunOptions::default()
        };
        let r = run_one_with(
            &SystemConfig::small_test(),
            &w,
            PolicyConfig::of(CachePolicy::CacheR),
            &opts,
        )
        .expect("run finishes");
        // One dotted namespace: every counter key the results schema
        // writes is a telemetry registry name, and no name repeats.
        let names = r.telemetry.expect("telemetry enabled").names;
        let registry: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(registry.len(), names.len(), "duplicate telemetry names");
        let doc = metrics_to_json(&r.metrics);
        let Json::Obj(pairs) = &doc else {
            panic!("metrics serialize to an object")
        };
        for (key, _) in pairs {
            assert!(
                key == "cycles" || key == "gpu_clock_hz" || registry.contains(key),
                "results key {key} is not a telemetry name"
            );
        }
        for key in [
            "gpu.valu_lane_ops",
            "dram.row_conflicts",
            "l1.load_hits",
            "l2.load_hits",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
    }
}
