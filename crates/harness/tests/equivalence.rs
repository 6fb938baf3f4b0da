//! Event-core vs per-cycle equivalence.
//!
//! The discrete-event core must be **bit-identical** to `--no-skip`
//! per-cycle stepping: every actor dispatches at exactly the cycles the
//! per-cycle loop's corresponding stage would act, in the same
//! intra-cycle order, and telemetry samples and sentinel checks fire as
//! scheduled events at the same cycles. These tests enforce the
//! contract across the whole policy grid — identical
//! [`miopt::runner::RunResult`] metrics, identical telemetry time series
//! (every epoch boundary, phase span, and event instant at the same
//! cycle), and identical figure CSVs. The grid includes FwGRU, a
//! multi-kernel latency-bound RNN — the shape with the longest
//! event-free stretches and the most drain/flush boundaries, i.e. the
//! one the event core accelerates (and could plausibly corrupt) most —
//! and FwAct and BwBN, bandwidth-bound streams that keep the L1 input
//! queues full, where CUs sleep on backpressure and wake on a credit.

use miopt::runner::{run_one_with, RunOptions, SweepSpec};
use miopt::{CachePolicy, PolicyConfig, SystemConfig};
use miopt_harness::figures::{fig10, fig6};
use miopt_harness::telemetry::to_jsonl;
use miopt_workloads::{by_name, SuiteConfig};

fn assert_grid_equivalent(workload_names: &[&str]) {
    let s = SuiteConfig::quick();
    let workloads = workload_names
        .iter()
        .map(|n| by_name(&s, n).expect("suite workload"))
        .collect();
    // All six policies (three statics plus the optimization ladder),
    // with telemetry on so the comparison covers the recorded stream.
    let mut spec = SweepSpec::figures(SystemConfig::small_test(), workloads);
    spec.run_opts.telemetry_interval = Some(2048);
    let per_cycle_opts = RunOptions {
        no_skip: true,
        ..spec.run_opts
    };
    let mut fast_results = Vec::new();
    let mut slow_results = Vec::new();
    for job in spec.jobs() {
        let label = spec.job_label(&job);
        let fast = spec.run_job(&job).expect("event-core run");
        let slow = run_one_with(
            &spec.cfg,
            &spec.workloads[job.workload],
            job.policy,
            &per_cycle_opts,
        )
        .expect("per-cycle run");
        assert_eq!(fast.metrics, slow.metrics, "{label}");
        assert_eq!(fast.telemetry, slow.telemetry, "{label}");
        fast_results.push(fast);
        slow_results.push(slow);
    }
    // The figure pipeline consumes only the metrics, so equality is
    // already implied — but the CSVs are the artifact the paper
    // reproduction ships, so compare them character for character too.
    assert_eq!(
        fig6(&spec.assemble_statics(&fast_results)).to_csv(),
        fig6(&spec.assemble_statics(&slow_results)).to_csv()
    );
    assert_eq!(
        fig10(&spec.assemble_ladders(&fast_results)).to_csv(),
        fig10(&spec.assemble_ladders(&slow_results)).to_csv()
    );
}

#[test]
fn event_core_matches_per_cycle_across_the_policy_grid() {
    assert_grid_equivalent(&["FwSoft", "BwSoft"]);
}

/// The softmax grid never fills an L1 input queue. FwAct streams with no
/// reuse and keeps every CU backpressured for most of the run — the
/// state in which a CU sleeps until its queue returns a credit, and the
/// one wake the event core has to deliver that the per-cycle loop gets
/// for free.
#[test]
fn event_core_matches_per_cycle_on_a_saturated_stream() {
    assert_grid_equivalent(&["FwAct"]);
}

/// The exported stream, not only the in-memory series, at an interval
/// that is a multiple of nothing in the machine: on a saturated stream
/// most samples land while cache units sleep on a blocked request, and
/// the stall cycles slept through so far must already be in the sample,
/// as they are when the oracle books one per cycle.
#[test]
fn telemetry_jsonl_on_a_saturated_stream_is_byte_identical_across_engines() {
    let w = by_name(&SuiteConfig::quick(), "FwAct").expect("suite workload");
    for policy in CachePolicy::ALL {
        let export = |no_skip: bool| {
            let opts = RunOptions {
                telemetry_interval: Some(500),
                no_skip,
                ..RunOptions::default()
            };
            let r = run_one_with(
                &SystemConfig::small_test(),
                &w,
                PolicyConfig::of(policy),
                &opts,
            )
            .expect("run finishes");
            let run = r.telemetry.as_ref().expect("telemetry enabled");
            assert!(run.epochs.len() > 20, "{policy}: many samples");
            let clock = r.metrics.gpu_clock_hz();
            (
                to_jsonl(run, &r.workload, &r.policy.label(), clock),
                r.metrics.cache_stalls(),
            )
        };
        let (event, stalls) = export(false);
        let (oracle, _) = export(true);
        assert!(event == oracle, "{policy}: JSONL differs between engines");
        if policy != CachePolicy::Uncached {
            assert!(stalls > 10_000, "{policy}: saturated ({stalls} stalls)");
        }
    }
}

/// The same full-grid pin on FwGRU: a multi-kernel latency-bound RNN —
/// the shape with the longest event-free stretches and the most
/// drain/flush boundaries per run, too slow for the debug tier-1 suite
/// (release-only via `ci.sh --full`'s `--include-ignored`).
#[test]
#[ignore = "slow in debug; run in release via --include-ignored"]
fn event_core_matches_per_cycle_on_a_latency_bound_rnn() {
    assert_grid_equivalent(&["FwGRU"]);
}

/// The saturated pin with BwBN beside FwAct: the bandwidth-bound case
/// whose store revisits reach the L1 queues through a different kernel
/// shape (release-only, as above).
#[test]
#[ignore = "slow in debug; run in release via --include-ignored"]
fn event_core_matches_per_cycle_on_a_saturated_store_stream() {
    assert_grid_equivalent(&["FwAct", "BwBN"]);
}
