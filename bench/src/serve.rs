//! `serve_tail`: six serving jobs (3 policies x 2 loads) on the `small`
//! system, run one after the other through `run_serve_job`.
//!
//! Each job drives one persistent `ApuSystem` with `enqueue_kernel`,
//! `idle_until` and `set_policy_config`: hundreds of tiny kernels, idle
//! gaps, policy switches at idle boundaries and per-tenant delta
//! accounting. Arrivals are an open loop in simulated time, expanded
//! from `--seed`; on the host the jobs form a closed loop. The
//! worst-tenant p99 in cycles is the exact fidelity pin.

use crate::clock::Stopwatch;
use crate::workload::{Outcome, Tally, Traced, Workload};
use miopt_harness::serve::{parse_serve_args, run_serve_job, ServeJob};
use miopt_harness::{Json, ServeJobRecord, ServeSweepSpec};

pub struct ServeTail {
    spec: ServeSweepSpec,
    jobs: Vec<ServeJob>,
}

impl ServeTail {
    pub fn new(seed: u64, smoke: bool) -> ServeTail {
        let seed = seed.to_string();
        let requests = if smoke { "4" } else { "24" };
        let args = [
            "--system",
            "small",
            "--scale",
            "quick",
            "--tenants",
            "t0=FwSoft,t1=FwPool",
            "--policies",
            "Uncached,CacheR,CacheRW",
            "--loads",
            "5000,20000",
            "--requests",
            requests,
            "--max-batch",
            "4",
            "--seed",
            &seed,
        ];
        let args = parse_serve_args(args.iter().map(|s| (*s).to_string()));
        let spec = ServeSweepSpec::from_args(&args);
        spec.system.validate().expect("the small system is valid");
        // Arrival expansion for every (tenant, load) column of the grid.
        for &load in &spec.loads {
            for tenant in 0..spec.tenants.len() {
                std::hint::black_box(spec.schedule_of(tenant, load));
            }
        }
        ServeTail {
            jobs: spec.jobs(),
            spec,
        }
    }

    /// The job's record as an operation: it must have finished and have
    /// completed every request it was given.
    fn op(rec: &ServeJobRecord) -> Result<String, String> {
        if rec.status != "ok" {
            return Err(format!("{} load {}: {}", rec.policy, rec.load, rec.status));
        }
        if let Some(t) = rec.tenants.iter().find(|t| t.completed != t.requested) {
            return Err(format!(
                "{} load {}: tenant {} completed {} of {} requests",
                rec.policy, rec.load, t.name, t.completed, t.requested
            ));
        }
        Ok(rec.to_json_line())
    }

    /// The job through the same entry point, wrapped in spans. The
    /// record is all the harness lets out of a serving job, so it is
    /// the source of this workload's layer counts.
    fn run_traced(&self, i: usize, t: &mut Traced) -> Outcome {
        let (spec, job) = (&self.spec, &self.jobs[i]);
        let job_span = t.trace.begin("job");
        // `run_serve_job` builds the scenario itself; build it once more
        // out here to size that step on its own.
        let span = t.trace.begin("serve.config");
        std::hint::black_box(spec.serve_config(job));
        t.trace.end(span);
        let span = t.trace.begin("serve.run");
        let timer = Stopwatch::start();
        let rec = run_serve_job(spec, job);
        let on_cpu_s = timer.seconds();
        let run_ns = t.trace.end(span);
        // What the journal pays per job: the record's encode and decode.
        let span = t.trace.begin("harness.record");
        let line = rec.to_json_line();
        let decoded = Json::parse(&line).and_then(|doc| ServeJobRecord::from_json(&doc));
        t.trace.end(span);
        t.trace.end(job_span);

        let l = &mut t.layers;
        l.add("core.sim_cycles", rec.cycles as f64);
        l.add("core.run_ms", run_ns as f64 / 1e6);
        for tenant in &rec.tenants {
            l.add("serve.requests", tenant.requested as f64);
            l.add("serve.batches", tenant.batches as f64);
            l.add("workloads.kernels", tenant.kernels as f64);
            l.add(
                "dram.accesses",
                (tenant.dram_reads + tenant.dram_writes) as f64,
            );
            l.add(
                "noc.transfers",
                (tenant.noc_req_transfers + tenant.noc_resp_transfers) as f64,
            );
            let worst = l.get("serve.worst_p99_cycles").max(tenant.p99 as f64);
            l.set("serve.worst_p99_cycles", worst);
        }
        let op = match decoded {
            Ok(back) if back == rec => ServeTail::op(&rec),
            Ok(_) => Err("record changed in a JSON round trip".to_string()),
            Err(e) => Err(format!("record does not decode: {e}")),
        };
        Outcome {
            parts: vec![on_cpu_s],
            sim_cycles: rec.cycles,
            ops: vec![op],
        }
    }
}

impl Workload for ServeTail {
    fn cases(&self) -> Vec<String> {
        self.jobs
            .iter()
            .map(|j| format!("{} load {}", j.policy.label(), j.load))
            .collect()
    }

    fn run_case(&mut self, i: usize, traced: Option<&mut Traced>) -> Outcome {
        if let Some(t) = traced {
            return self.run_traced(i, t);
        }
        let timer = Stopwatch::start();
        let rec = run_serve_job(&self.spec, &self.jobs[i]);
        Outcome {
            parts: vec![timer.seconds()],
            sim_cycles: rec.cycles,
            ops: vec![ServeTail::op(&rec)],
        }
    }

    fn checks(&mut self, reference: &[Outcome], tally: &mut Tally, _traced: &mut Traced) {
        let labels = self.cases();
        let mut checked = self.spec.clone();
        checked.check_invariants = true;
        for (i, job) in self.jobs.iter().enumerate() {
            let got = ServeTail::op(&run_serve_job(&checked, job));
            tally.check(
                &format!("{} invariant-checked", labels[i]),
                match got {
                    Err(e) => Err(e),
                    Ok(text) if Ok(&text) != reference[i].ops[0].as_ref() => {
                        Err("record differs from the unchecked run".to_string())
                    }
                    Ok(_) => Ok(()),
                },
            );
        }
    }
}
