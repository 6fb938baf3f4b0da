//! Run provenance: everything needed to answer "where did this number
//! come from?" months after a sweep ran.
//!
//! A [`Provenance`] block is embedded in every sweep report under
//! `results/runs/`. It records the exact simulated machine (as a stable
//! FNV-1a fingerprint of the full [`SystemConfig`]), the simulator
//! version and results schema, the git revision (and whether the tree was
//! dirty), the deterministic seed, the worker count, and wall time.

use crate::json::Json;
use miopt::SystemConfig;
use miopt_engine::hash::fnv1a_64;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The simulator's global seed. The miopt simulator derives all of its
/// pseudo-randomness from fixed per-component SplitMix64 seeds, so runs
/// are bit-reproducible without a user-supplied seed; this constant is
/// recorded so the schema already has the field when a configurable seed
/// arrives.
pub const GLOBAL_SEED: u64 = 0;

/// Fingerprint of a system configuration: FNV-1a 64 over the canonical
/// (Debug) rendering of every field, as fixed-width hex.
///
/// Two configs hash equal iff every parameter matches; the hash changes
/// when a config field is added, which conservatively invalidates cached
/// results rather than silently reusing them.
#[must_use]
pub fn config_hash(cfg: &SystemConfig) -> String {
    format!("{:016x}", fnv1a_64(format!("{cfg:?}").as_bytes()))
}

/// Provenance of one sweep run.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `miopt-harness` crate version.
    pub sim_version: String,
    /// Git `HEAD` revision, or `"unknown"` outside a repository.
    pub git_rev: String,
    /// Whether the working tree had uncommitted changes.
    pub git_dirty: bool,
    /// [`config_hash`] of the simulated machine.
    pub config_hash: String,
    /// The deterministic global seed ([`GLOBAL_SEED`]).
    pub seed: u64,
    /// Worker threads the sweep ran with (1 = serial).
    pub workers: usize,
    /// Telemetry sampling interval in cycles, when telemetry was enabled
    /// for the sweep (`None` = telemetry off).
    pub telemetry_interval: Option<u64>,
    /// Milliseconds since the Unix epoch at sweep start.
    pub started_unix_ms: u64,
    /// Total sweep wall time in milliseconds.
    pub elapsed_ms: u64,
}

impl Provenance {
    /// Collects provenance at sweep start; `elapsed_ms` is zero until
    /// filled in at completion.
    #[must_use]
    pub fn collect(cfg: &SystemConfig, workers: usize) -> Provenance {
        let (git_rev, git_dirty) = git_state();
        Provenance {
            sim_version: env!("CARGO_PKG_VERSION").to_string(),
            git_rev,
            git_dirty,
            config_hash: config_hash(cfg),
            seed: GLOBAL_SEED,
            workers,
            telemetry_interval: None,
            started_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            elapsed_ms: 0,
        }
    }

    /// The provenance block as JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sim_version", Json::str(&self.sim_version)),
            ("git_rev", Json::str(&self.git_rev)),
            ("git_dirty", Json::Bool(self.git_dirty)),
            ("config_hash", Json::str(&self.config_hash)),
            ("seed", Json::U64(self.seed)),
            ("workers", Json::U64(self.workers as u64)),
            (
                "telemetry_interval",
                self.telemetry_interval.map_or(Json::Null, Json::U64),
            ),
            ("started_unix_ms", Json::U64(self.started_unix_ms)),
            ("elapsed_ms", Json::U64(self.elapsed_ms)),
        ])
    }
}

/// `(HEAD revision, dirty?)`, or `("unknown", false)` when git is
/// unavailable.
fn git_state() -> (String, bool) {
    let rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    (rev, dirty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_separates_configs_and_is_stable() {
        let a = SystemConfig::paper_table1();
        let b = SystemConfig::small_test();
        assert_eq!(config_hash(&a), config_hash(&a.clone()));
        assert_ne!(config_hash(&a), config_hash(&b));
        assert_eq!(config_hash(&a).len(), 16);
        let mut c = SystemConfig::paper_table1();
        c.queue_capacity += 1;
        assert_ne!(config_hash(&a), config_hash(&c), "every field must count");
    }

    #[test]
    fn provenance_serializes_all_fields() {
        let mut p = Provenance::collect(&SystemConfig::small_test(), 4);
        p.elapsed_ms = 1234;
        p.telemetry_interval = Some(50_000);
        let doc = p.to_json();
        assert_eq!(doc.get("workers").and_then(Json::as_u64), Some(4));
        assert_eq!(
            doc.get("telemetry_interval").and_then(Json::as_u64),
            Some(50_000)
        );
        assert_eq!(doc.get("elapsed_ms").and_then(Json::as_u64), Some(1234));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(GLOBAL_SEED));
        assert_eq!(
            doc.get("config_hash").and_then(Json::as_str).map(str::len),
            Some(16)
        );
        assert!(doc.get("git_rev").is_some());
    }
}
