//! Sweep progress reporting.
//!
//! One completion line per job to stderr, so long sweeps are observable
//! without polluting stdout (which carries tables/CSV). Reporting is
//! serialized internally; the output never interleaves across workers.

use crate::kind::JobKind;
use crate::pool::JobOutcome;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A thread-safe per-job progress reporter.
pub struct Progress {
    total: usize,
    done: AtomicUsize,
    enabled: bool,
}

impl Progress {
    /// A reporter over `total` jobs; disabled reporters are free.
    #[must_use]
    pub fn new(total: usize, enabled: bool) -> Progress {
        Progress {
            total,
            done: AtomicUsize::new(0),
            enabled,
        }
    }

    /// Reports one completed (or skipped) job.
    pub fn report<K: JobKind>(&self, label: &str, outcome: &JobOutcome<K>) {
        let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
        if !self.enabled {
            return;
        }
        let status = match &outcome.result {
            Ok(_) if outcome.cached => "cached".to_string(),
            Ok(_) => format!("{:.2}s", outcome.elapsed.as_secs_f64()),
            Err(e) => e.to_string(),
        };
        // A single write per line keeps concurrent reports intact.
        let line = format!(
            "[{done:>width$}/{total}] {label}: {status}\n",
            total = self.total,
            width = self.total.to_string().len(),
        );
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_reporter_still_counts() {
        let p = Progress::new(3, false);
        assert_eq!(p.done.load(Ordering::SeqCst), 0);
        // Reporting without output must not panic and must advance.
        let spec = {
            use miopt::SystemConfig;
            use miopt_workloads::{by_name, SuiteConfig};
            miopt::runner::SweepSpec::statics(
                SystemConfig::small_test(),
                vec![by_name(&SuiteConfig::quick(), "FwSoft").unwrap()],
            )
        };
        let job = spec.jobs()[0];
        let outcome: JobOutcome<miopt::runner::SweepSpec> = JobOutcome {
            job,
            result: Err(crate::pool::JobError::DepFailed(0)),
            elapsed: std::time::Duration::ZERO,
            cached: false,
            attempts: 0,
        };
        p.report("x", &outcome);
        assert_eq!(p.done.load(Ordering::SeqCst), 1);
    }
}
