//! `rnn_latency` and `stream_large`: single simulations on the Table 1
//! system, one `ApuSystem` per case, caches of the modelled machine
//! empty at the start of every case (as the paper's kernels start).
//!
//! The timed region of a case is `ApuSystem::new` + `run_to_completion`
//! (which ends by collecting `metrics()`), because `runner::run_one`
//! pays exactly that per grid cell. The Table 2 generators are seedless
//! by design, so these inputs are the same for every `--seed`.

use crate::clock::Stopwatch;
use crate::workload::{Outcome, Tally, Traced, Workload};
use miopt::runner::{run_one_with, RunOptions, DEFAULT_MAX_CYCLES};
use miopt::{ApuSystem, CachePolicy, Metrics, OptimizationSet, PolicyConfig, SystemConfig};
use miopt_harness::results::metrics_to_json;
use miopt_workloads::{by_name, SuiteConfig};

struct Case {
    workload: &'static str,
    /// `SuiteConfig::footprint_divisor`: 16 is paper scale, 256 quick.
    divisor: u64,
    policy: PolicyConfig,
}

pub struct SimCases {
    cases: Vec<Case>,
    cfg: SystemConfig,
    inputs: Vec<miopt_workloads::Workload>,
}

const PAPER: u64 = 16;
const QUICK: u64 = 256;

pub fn policy(policy: CachePolicy, opts: OptimizationSet) -> PolicyConfig {
    PolicyConfig::new(policy, opts).expect("the paper's optimisation ladder is consistent")
}

fn text(m: &Metrics) -> String {
    metrics_to_json(m).to_compact()
}

impl SimCases {
    fn new(smoke: bool, cases: Vec<(&'static str, u64, PolicyConfig)>) -> SimCases {
        let cases: Vec<Case> = cases
            .into_iter()
            .map(|(workload, divisor, policy)| Case {
                workload,
                divisor: if smoke { QUICK } else { divisor },
                policy,
            })
            .collect();
        for case in &cases {
            case.policy.validate().expect("a valid policy");
        }
        SimCases {
            cfg: SystemConfig::builder()
                .build()
                .expect("the Table 1 configuration is self-consistent"),
            inputs: cases.iter().map(SimCases::input).collect(),
            cases,
        }
    }

    /// 150–360 tiny kernels per case, under 1 MB of footprint, 2–3
    /// events per simulated cycle.
    pub fn rnn_latency(smoke: bool) -> SimCases {
        use CachePolicy::{CacheR, CacheRW, Uncached};
        SimCases::new(
            smoke,
            vec![
                ("FwGRU", PAPER, PolicyConfig::of(Uncached)),
                (
                    "FwGRU",
                    PAPER,
                    policy(CacheRW, OptimizationSet::ab_cr_pcby()),
                ),
                ("FwLSTM", PAPER, PolicyConfig::of(Uncached)),
                ("FwLSTM", PAPER, PolicyConfig::of(CacheRW)),
                ("FwBwGRU", PAPER, PolicyConfig::of(CacheR)),
            ],
        )
    }

    /// One kernel per case, 8–9 events per simulated cycle. Divisor 64
    /// makes the activation footprints 18.75 MB, 4.7x the 4 MB L2 —
    /// footprint relative to the L2 (and to the host's own cache) is the
    /// dimension the earlier benches never varied.
    pub fn stream_large(smoke: bool) -> SimCases {
        use CachePolicy::{CacheR, CacheRW, Uncached};
        SimCases::new(
            smoke,
            vec![
                ("FwAct", 64, PolicyConfig::of(Uncached)),
                ("BwAct", 64, policy(CacheRW, OptimizationSet::ab_cr())),
                ("FwLRN", 64, PolicyConfig::of(CacheR)),
                ("BwBN", PAPER, PolicyConfig::of(CacheRW)),
                ("FwFc", PAPER, PolicyConfig::of(CacheRW)),
            ],
        )
    }

    fn input(case: &Case) -> miopt_workloads::Workload {
        let suite = SuiteConfig {
            footprint_divisor: case.divisor,
        };
        by_name(&suite, case.workload).expect("a Table 2 workload name")
    }

    fn outcome(host_s: f64, result: Result<Metrics, String>) -> Outcome {
        Outcome {
            parts: vec![host_s],
            sim_cycles: result.as_ref().map_or(0, |m| m.cycles),
            ops: vec![result.map(|m| text(&m))],
        }
    }

    fn run_traced(&self, i: usize, t: &mut Traced) -> Outcome {
        let case = &self.cases[i];
        let mut on_cpu_s = 0.0;
        let case_span = t.trace.begin("case");
        let span = t.trace.begin("workloads.generate");
        let input = SimCases::input(case);
        t.trace.end(span);
        let span = t.trace.begin("core.construct");
        let timer = Stopwatch::start();
        let mut sys = ApuSystem::new(self.cfg.clone(), case.policy, &input);
        on_cpu_s += timer.seconds();
        t.trace.end(span);
        sys.enable_profiler();
        let run = t.trace.begin("core.run");
        let timer = Stopwatch::start();
        let result = sys.run_to_completion(DEFAULT_MAX_CYCLES);
        on_cpu_s += timer.seconds();
        let run_ns = t.trace.end(run);
        let profile = sys.take_profile().expect("profiler was enabled");
        for row in profile.actors.iter().filter(|r| r.events > 0) {
            t.trace.leaf(run, &format!("actor.{}", row.name), row.nanos);
        }
        let span = t.trace.begin("core.metrics");
        let metrics = sys.metrics();
        t.trace.end(span);
        t.trace.end(case_span);

        t.add_profile(run_ns, &profile);
        t.add_metrics(&metrics);
        let (events, active_cycles) = sys.event_stats();
        let (req, resp) = sys.noc_transfers();
        let l = &mut t.layers;
        l.add("core.events", events as f64);
        l.add("core.active_cycles", active_cycles as f64);
        l.add("noc.transfers", (req + resp) as f64);
        l.add("workloads.kernels", input.total_kernels() as f64);
        l.add(
            "workloads.footprint_mb",
            input.footprint_bytes() as f64 / (1024.0 * 1024.0),
        );
        SimCases::outcome(on_cpu_s, result.map_err(|e| e.to_string()))
    }

    /// Re-runs case `i` through `run_one_with` and compares with rep 1.
    fn recheck(&self, i: usize, opts: &RunOptions, reference: &Outcome) -> Result<(), String> {
        let case = &self.cases[i];
        let got = run_one_with(&self.cfg, &self.inputs[i], case.policy, opts)
            .map_err(|e| e.to_string())?;
        if Ok(text(&got.metrics)) == reference.ops[0] {
            Ok(())
        } else {
            Err("simulated metrics differ from the event-core run".to_string())
        }
    }
}

impl Workload for SimCases {
    fn cases(&self) -> Vec<String> {
        self.cases
            .iter()
            .map(|c| format!("{}/{} div{}", c.workload, c.policy.label(), c.divisor))
            .collect()
    }

    fn run_case(&mut self, i: usize, traced: Option<&mut Traced>) -> Outcome {
        if let Some(t) = traced {
            return self.run_traced(i, t);
        }
        let timer = Stopwatch::start();
        let mut sys = ApuSystem::new(self.cfg.clone(), self.cases[i].policy, &self.inputs[i]);
        let result = sys.run_to_completion(DEFAULT_MAX_CYCLES);
        SimCases::outcome(timer.seconds(), result.map_err(|e| e.to_string()))
    }

    fn checks(&mut self, reference: &[Outcome], tally: &mut Tally, _traced: &mut Traced) {
        let labels = self.cases();
        // The per-cycle oracle on the two cheapest cases: the event core
        // must be bit-identical to it.
        let mut by_cost: Vec<usize> = (0..self.cases.len()).collect();
        by_cost.sort_by(|&a, &b| reference[a].host_s().total_cmp(&reference[b].host_s()));
        let no_skip = RunOptions {
            no_skip: true,
            ..RunOptions::default()
        };
        for &i in by_cost.iter().take(2) {
            tally.check(
                &format!("{} no-skip oracle", labels[i]),
                self.recheck(i, &no_skip, &reference[i]),
            );
        }
        let checked = RunOptions {
            check_invariants: true,
            ..RunOptions::default()
        };
        for i in 0..self.cases.len() {
            tally.check(
                &format!("{} invariant-checked", labels[i]),
                self.recheck(i, &checked, &reference[i]),
            );
        }
    }
}
