//! The benchmark's contract in one table: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root is this table serialised (a self-test pins the
//! two to each other), and every run prints exactly these names.

use miopt_harness::Json;
use std::collections::BTreeMap;

/// How long one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 26;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Wall seconds one pass over the cases takes on the reference
    /// container. A run does `--seconds` ÷ this many rounds of reps, so
    /// the rep count — and with it the bias of a minimum — is the same
    /// on every run instead of flipping with the noise of the moment.
    pub nominal_pass_s: f64,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "rnn_latency",
        why: "Latency-bound: five paper-scale RNN cases, 150-360 tiny kernels each; engine, kernel-boundary and CU-tick cost show here, cache-array work does not",
        nominal_pass_s: 3.5,
    },
    WorkloadDef {
        name: "stream_large",
        why: "Bandwidth-bound single kernels, three at 4.7x the L2 (the family that is 74% of paper-scale figures --all); cache, DRAM and NoC cost show here, kernel launch does not",
        nominal_pass_s: 6.5,
    },
    WorkloadDef {
        name: "sweep_grid",
        why: "60 quick-scale jobs of 6 ms-0.75 s through the journaled 2-worker sweep, report and figure stack: construction cost, pool makespan and tooling show only here",
        nominal_pass_s: 3.6,
    },
    WorkloadDef {
        name: "serve_tail",
        why: "Six serving jobs on one persistent system each: hundreds of tiny kernels, idle gaps and policy switches driven through the serve hooks, arrivals from the seed",
        nominal_pass_s: 6.5,
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEndDef; 4] = [
    EndToEndDef {
        name: "host_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndDef {
        name: "sim_mcycles_per_s",
        unit: "Mcycle/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Must repeat bit-for-bit between two runs of one commit with one
    /// seed; `--compare` lists every exact metric that differs.
    pub exact: bool,
}

const fn exact(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str, exact: bool) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Higher,
        exact,
    }
}

/// The event-core actors that get a `<prefix>.events` /
/// `<prefix>.ns_per_event` pair, as `(profiler row name, metric prefix)`.
pub const ACTORS: [(&str, &str); 10] = [
    ("phase", "core.phase"),
    ("gpu_resp", "gpu.gpu_resp"),
    ("l1_service", "cache.l1_service"),
    ("l1_fill", "cache.l1_fill"),
    ("l2_service", "cache.l2_service"),
    ("l2_fill", "cache.l2_fill"),
    ("l2_to_dram", "cache.l2_to_dram"),
    ("dram", "dram"),
    ("req_xbar", "noc.req_xbar"),
    ("resp_xbar", "noc.resp_xbar"),
];

pub const PER_LAYER: [LayerDef; 91] = [
    exact("core.sim_cycles", "cycle"),
    exact("core.events", "count"),
    exact("core.active_cycles", "cycle"),
    timed("core.allocs", "count"),
    exact("core.phase.events", "count"),
    timed("core.construct_ms", "ms"),
    timed("core.run_ms", "ms"),
    timed("core.unattributed_share", "ratio"),
    timed("core.phase.ns_per_event", "ns"),
    timed("engine.wheel_near_ns", "ns"),
    timed("engine.wheel_far_ns", "ns"),
    timed("engine.arena_ns", "ns"),
    timed("engine.fifo_ns", "ns"),
    timed("engine.timedqueue_ns", "ns"),
    exact("gpu.mem_requests", "count"),
    exact("gpu.gpu_resp.events", "count"),
    timed("gpu.gpu_resp.ns_per_event", "ns"),
    timed("gpu.tick_ns_per_wf_op", "ns"),
    timed("gpu.coalesce_ns", "ns"),
    exact("cache.l1_service.events", "count"),
    exact("cache.l1_fill.events", "count"),
    exact("cache.l2_service.events", "count"),
    exact("cache.l2_fill.events", "count"),
    exact("cache.l2_to_dram.events", "count"),
    exact("cache.l1_accesses", "count"),
    exact("cache.l2_accesses", "count"),
    exact("cache.l2_stalls", "cycle"),
    exact("cache.l2_bypasses", "count"),
    exact("cache.l2_rinse_writebacks", "count"),
    timed("cache.l1_service.ns_per_event", "ns"),
    timed("cache.l1_fill.ns_per_event", "ns"),
    timed("cache.l2_service.ns_per_event", "ns"),
    timed("cache.l2_fill.ns_per_event", "ns"),
    timed("cache.l2_to_dram.ns_per_event", "ns"),
    timed("cache.access_hit_ns", "ns"),
    timed("cache.access_miss_fill_ns", "ns"),
    timed("cache.access_bypass_ns", "ns"),
    timed("cache.dbi_insert_rinse_ns", "ns"),
    timed("cache.predictor_ns", "ns"),
    timed("cache.self_invalidate_us", "us"),
    exact("dram.events", "count"),
    exact("dram.accesses", "count"),
    higher("dram.row_hit_ratio", "ratio", true),
    timed("dram.ns_per_event", "ns"),
    timed("dram.rowhit_ns_per_req", "ns"),
    timed("dram.conflict_ns_per_req", "ns"),
    timed("dram.idle_tick_ns", "ns"),
    exact("noc.req_xbar.events", "count"),
    exact("noc.resp_xbar.events", "count"),
    exact("noc.transfers", "count"),
    timed("noc.req_xbar.ns_per_event", "ns"),
    timed("noc.resp_xbar.ns_per_event", "ns"),
    timed("noc.xbar_dense_tick_ns", "ns"),
    timed("noc.xbar_sparse_tick_ns", "ns"),
    timed("workloads.generate_ms", "ms"),
    exact("workloads.kernels", "count"),
    exact("workloads.footprint_mb", "MB"),
    timed("telemetry.hist_record_ns", "ns"),
    timed("telemetry.hist_merge_ns", "ns"),
    timed("telemetry.hist_quantile_ns", "ns"),
    timed("telemetry.sampling_overhead_share", "ratio"),
    exact("serve.requests", "count"),
    exact("serve.batches", "count"),
    exact("serve.worst_p99_cycles", "cycle"),
    timed("serve.arrival_expand_us", "us"),
    timed("serve.run_ms", "ms"),
    timed("serve.ms_per_request", "ms"),
    timed("store.append_never_us", "us"),
    timed("store.append_batch_us", "us"),
    timed("store.append_per_record_us", "us"),
    timed("store.open_recover_ms", "ms"),
    timed("store.compact_ms", "ms"),
    exact("harness.jobs", "count"),
    exact("harness.resume_jobs_rerun", "count"),
    timed("harness.sweep_ms", "ms"),
    higher("harness.parallel_efficiency", "ratio", false),
    timed("harness.pool_overhead_ms_per_job", "ms"),
    timed("harness.journal_append_us", "us"),
    timed("harness.cache_store_us", "us"),
    timed("harness.cache_load_us", "us"),
    timed("harness.report_write_ms", "ms"),
    timed("harness.figures_ms", "ms"),
    timed("harness.warm_pass_ms", "ms"),
    timed("harness.resume_ms", "ms"),
    higher("harness.json_parse_mb_per_s", "MB/s", false),
    higher("bench.reps", "count", false),
    timed("bench.host_median_s", "s"),
    timed("bench.host_spread", "ratio"),
    timed("bench.timer_ns", "ns"),
    timed("bench.trace_overhead", "ratio"),
    timed("bench.verify_s", "s"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Accumulators the traced run adds into, keyed by layer-metric name
/// (plus `raw.*` intermediates that never leave the process).
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn add(&mut self, name: &str, delta: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += delta;
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric in table order; a layer this workload never
    /// exercised reads 0.
    ///
    /// # Panics
    ///
    /// Panics if a non-`raw.` accumulator is not in [`PER_LAYER`] — a
    /// typo in a metric name must not silently drop the number.
    pub fn metrics(&self) -> Vec<Metric> {
        for key in self.values.keys() {
            assert!(
                key.starts_with("raw.") || PER_LAYER.iter().any(|d| d.name == key),
                "layer metric `{key}` is not declared in PER_LAYER"
            );
        }
        PER_LAYER
            .iter()
            .map(|d| Metric {
                name: d.name,
                unit: d.unit,
                value: self.get(d.name),
            })
            .collect()
    }
}

/// `name` is made of at most 64 letters, digits, `_`, `.` and `-`, and
/// starts with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `unit` is made of 1 to 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the tables against the limits the benchmark contract sets.
pub fn validate_tables() -> Result<(), String> {
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err("2 to 8 workloads".to_string());
    }
    if END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        return Err("at most 16 end-to-end and 128 layer metrics".to_string());
    }
    let mut seen = Vec::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!("invalid name `{name}`"));
        }
        if seen.contains(&name) {
            return Err(format!("name `{name}` used twice"));
        }
        seen.push(name);
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        if !valid_unit(unit) {
            return Err(format!("invalid unit `{unit}`"));
        }
    }
    for w in &WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!("`why` of {} is not one line of <= 200", w.name));
        }
    }
    for m in &END_TO_END {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            return Err(format!("bound of {} outside (0, 0.25]", m.name));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
    {
        return Err("one end-to-end metric must be setup_s [s, lower]".to_string());
    }
    Ok(())
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "bench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["bench"])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_follow_the_contract() {
        assert!(valid_name("core.phase.ns_per_event"));
        assert!(valid_name("9lives-x_y"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("Mcycle/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("seconds per cycle"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn tables_are_within_the_contract_limits() {
        assert_eq!(validate_tables(), Ok(()));
        assert_eq!(PER_LAYER.len(), 91);
        for (_, prefix) in ACTORS {
            for suffix in ["events", "ns_per_event"] {
                let name = format!("{prefix}.{suffix}");
                assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
            }
        }
    }

    #[test]
    fn benchmark_json_is_the_serialised_table() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(on_disk).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `--print-manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn layers_report_every_name_and_zero_for_untouched() {
        let mut l = Layers::default();
        l.add("core.events", 3.0);
        l.add("core.events", 4.0);
        l.add("raw.scratch", 1.0);
        let m = l.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m[1].name, "core.events");
        assert_eq!(m[1].value, 7.0);
        assert_eq!(m[0].value, 0.0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_layer_names_are_rejected() {
        let mut l = Layers::default();
        l.add("core.evnets", 1.0);
        let _ = l.metrics();
    }
}
