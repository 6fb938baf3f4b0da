//! The `miopt-harness serve` subcommand: the policy × load tail-latency
//! sweep over multi-tenant serving scenarios.
//!
//! Where the figure sweeps ask "which cache policy minimizes kernel
//! runtime?", this sweep asks the serving question: with several model
//! instances sharing the GPU under open-loop traffic, which policy
//! minimizes *p99 request latency*? Each job fixes one candidate policy
//! (applied to every tenant) and one load level (the mean inter-arrival
//! gap), replays the *same* pre-expanded arrival schedules against it,
//! and reports per-tenant p50/p95/p99 latency and throughput.
//!
//! Traffic is part of the experiment's identity: the arrival seed and
//! the FNV-1a hash of every tenant's expanded schedule are recorded in
//! the report's provenance block and folded into the resume-journal
//! fingerprint, so `--resume` provably replays identical traffic and
//! the final report is byte-identical in all simulation-derived fields.
//!
//! Its flags are the rows of `ServeArgs`'s flag table plus the flags it
//! shares with the figure command ([`CommonArgs`]); a refused command
//! line prints the usage generated from them (see [`crate::flags`]).

use crate::cli::{drive, known_workloads, shared_flags, CommonArgs};
use crate::flags::{self, at_most, list, num, one_of, positive, put, Command, Flag};
use crate::journal::JOURNAL_VERSION;
use crate::json::Json;
use crate::kind::JobKind;
use crate::pool::{JobError, JobOutcome};
use crate::provenance::{config_hash, Provenance};
use crate::results::SCHEMA_VERSION;
use miopt::runner::RunOptions;
use miopt::{CachePolicy, PolicyConfig, SystemConfig, WayRange};
use miopt_engine::hash::{fnv1a_64, Fnv1a};
pub use miopt_serve::TenantResult;
use miopt_serve::{ArrivalSchedule, ServeConfig, ServeError, TenantSpec};
use miopt_workloads::{SuiteConfig, Workload};

/// Parsed `serve` subcommand options: the flags that name things, as
/// given, and the sweep they resolve to.
#[derive(Default)]
pub struct ServeArgs {
    /// The machine (`"small"` or `"paper"`).
    pub system_name: String,
    /// Workload suite scale name (`"quick"` or `"paper"`).
    pub scale_name: String,
    /// `(tenant name, workload name)` pairs, as given.
    pub tenants: Vec<(String, String)>,
    /// The sweep: the other `serve` flags write into it, and `check`
    /// resolves the names above into it.
    pub spec: ServeSweepSpec,
    /// The options shared with the figure sweeps.
    pub common: CommonArgs,
}

impl AsMut<CommonArgs> for ServeArgs {
    fn as_mut(&mut self) -> &mut CommonArgs {
        &mut self.common
    }
}

/// One `--tenants` entry, `name=Workload`.
fn tenant(pair: &str) -> Result<(String, String), String> {
    let Some((name, workload)) = pair.split_once('=') else {
        return Err(format!("wants name=Workload, got {pair:?}"));
    };
    Ok((name.to_string(), workload.to_string()))
}

/// One `--policies` entry: a static policy by name.
fn policy(name: &str) -> Result<PolicyConfig, String> {
    let policy = CachePolicy::ALL.into_iter().find(|p| p.to_string() == name);
    policy
        .map(PolicyConfig::of)
        .ok_or(format!("unknown policy {name:?}"))
}

/// The most requests per tenant `--requests` takes: a job draws every
/// arrival up front, so the count is an allocation.
const MAX_REQUESTS: usize = 1_000_000;

impl Command for ServeArgs {
    const NAME: &'static str = "serve";

    #[rustfmt::skip]
    fn flags() -> Vec<Flag<ServeArgs>> {
        let rows: &[Flag<ServeArgs>] = &[
            ("--system <S>", "small", "machine: small | paper", |a, v| put(&mut a.system_name, one_of(v, &["small", "paper"])?)),
            ("--scale <S>", "quick", "workload scale: quick | paper", |a, v| put(&mut a.scale_name, one_of(v, &["quick", "paper"])?)),
            ("--tenants <T=W,...>", "t0=FwSoft,t1=FwPool", "tenants as name=Workload pairs", |a, v| put(&mut a.tenants, list(v, tenant)?)),
            ("--policies <P,...>", "Uncached,CacheR,CacheRW", "policies: Uncached | CacheR | CacheRW", |a, v| put(&mut a.spec.policies, list(v, policy)?)),
            ("--loads <N,...>", "60000,15000", "mean inter-arrival gaps in cycles, each a row", |a, v| put(&mut a.spec.loads, list(v, positive)?)),
            ("--requests <N>", "12", "requests per tenant per job", |a, v| put(&mut a.spec.requests, at_most(positive(v)?, MAX_REQUESTS)?)),
            ("--seed <N>", "0", "arrival seed", |a, v| put(&mut a.spec.seed, num(v)?)),
            ("--partition", "", "give each tenant an equal share of L2 ways", |a, _| put(&mut a.spec.partition, true)),
            ("--max-batch <N>", "4", "most requests per dispatch", |a, v| put(&mut a.spec.max_batch, positive(v)?)),
            ("--budget <N>", "2000000000", "per-job cycle budget", |a, v| put(&mut a.spec.budget, positive(v)?)),
        ];
        [rows, &shared_flags()].concat()
    }

    /// Resolves the machine and each tenant's workload (names match
    /// without regard to case; the suite is built once), then refuses
    /// what [`ServeSweepSpec`] cannot run.
    fn check(&mut self) -> Result<(), String> {
        let spec = &mut self.spec;
        spec.system = match self.system_name.as_str() {
            "paper" => SystemConfig::paper_table1(),
            _ => SystemConfig::small_test(),
        };
        let scale = match self.scale_name.as_str() {
            "paper" => SuiteConfig::paper(),
            _ => SuiteConfig::quick(),
        };
        let workloads = self.tenants.iter().map(|(_, w)| w.as_str());
        let (suite, picks) =
            known_workloads(&scale, workloads).map_err(|e| format!("--tenants: {e}"))?;
        let names = self.tenants.iter().map(|(name, _)| name.clone());
        spec.tenants = names.zip(picks.iter().map(|&i| suite[i].clone())).collect();
        spec.no_skip = self.common.no_skip;
        spec.check_invariants = self.common.check_invariants;
        spec.check()?;
        self.common
            .check(format!("serve-{}-{}", self.system_name, self.scale_name))
    }
}

/// Parses the arguments after `serve`, panicking with the refusal's
/// message on bad ones (the binary reports them through [`crate::main`]).
#[must_use]
pub fn parse_serve_args(args: impl Iterator<Item = String>) -> ServeArgs {
    flags::parse(&args.collect::<Vec<_>>()).unwrap_or_else(|e| panic!("{}", e.message))
}

/// The fully resolved serve sweep: every job's scenario is derivable
/// from this value alone, which is what the fingerprint hashes.
#[derive(Debug, Clone, Default)]
pub struct ServeSweepSpec {
    /// The simulated machine.
    pub system: SystemConfig,
    /// `(tenant name, workload)` pairs, each workload built at the
    /// sweep's suite scale.
    pub tenants: Vec<(String, Workload)>,
    /// Candidate policies.
    pub policies: Vec<PolicyConfig>,
    /// Mean inter-arrival gaps in cycles.
    pub loads: Vec<u64>,
    /// Requests per tenant per job.
    pub requests: usize,
    /// Arrival seed.
    pub seed: u64,
    /// Equal-share L2 way partitioning.
    pub partition: bool,
    /// Batching limit.
    pub max_batch: u32,
    /// Per-job cycle budget.
    pub budget: u64,
    /// Force per-cycle stepping.
    pub no_skip: bool,
    /// Sentinel invariant checking.
    pub check_invariants: bool,
}

/// One cell of the policy × load grid.
#[derive(Debug, Clone)]
pub struct ServeJob {
    /// Job id (assembly order: policies outer, loads inner).
    pub id: usize,
    /// The policy applied to every tenant.
    pub policy: PolicyConfig,
    /// Mean inter-arrival gap in cycles.
    pub load: u64,
}

impl ServeSweepSpec {
    /// The spec that parsing `args` resolved (see [`parse_serve_args`]).
    #[must_use]
    pub fn from_args(args: &ServeArgs) -> ServeSweepSpec {
        args.spec.clone()
    }

    /// Refuses empty and duplicate tenant names, and more tenants than L2
    /// ways to partition.
    fn check(&self) -> Result<(), String> {
        for (i, (name, _)) in self.tenants.iter().enumerate() {
            if name.is_empty() {
                return Err("--tenants: tenant names must be nonempty".to_string());
            }
            if self.tenants[..i].iter().any(|(other, _)| other == name) {
                return Err(format!("--tenants: duplicate tenant name {name:?}"));
            }
        }
        let (tenants, ways) = (self.tenants.len(), self.system.l2.ways);
        if self.partition && tenants > ways {
            return Err(format!("--partition: {tenants} tenants, {ways} L2 ways"));
        }
        Ok(())
    }

    /// The job grid, policies outer and loads inner.
    #[must_use]
    pub fn jobs(&self) -> Vec<ServeJob> {
        let mut jobs = Vec::with_capacity(self.policies.len() * self.loads.len());
        for policy in &self.policies {
            for &load in &self.loads {
                jobs.push(ServeJob {
                    id: jobs.len(),
                    policy: *policy,
                    load,
                });
            }
        }
        jobs
    }

    /// The equal-share L2 partition of tenant `i`, when partitioning is
    /// on (the last tenant absorbs the remainder ways).
    fn partition_of(&self, i: usize) -> Option<WayRange> {
        if !self.partition {
            return None;
        }
        let n = self.tenants.len();
        let share = self.system.l2.ways / n;
        assert!(share >= 1, "fewer L2 ways than tenants");
        let count = if i == n - 1 {
            self.system.l2.ways - i * share
        } else {
            share
        };
        Some(WayRange::new(i * share, count))
    }

    /// The arrival schedule of tenant `i` at load level `load`. Streams
    /// are derived from the sweep seed, the tenant name, and the load —
    /// but *not* the policy, so every policy in a column faces
    /// byte-identical traffic.
    #[must_use]
    pub fn schedule_of(&self, i: usize, load: u64) -> ArrivalSchedule {
        let stream = self.seed ^ fnv1a_64(format!("{}:{load}", self.tenants[i].0).as_bytes());
        ArrivalSchedule::poisson(stream, load as f64, self.requests)
    }

    /// The full scenario for one job.
    ///
    /// # Panics
    ///
    /// Panics when partitioning is on and there are more tenants than L2
    /// ways (refused when parsing).
    #[must_use]
    pub fn serve_config(&self, job: &ServeJob) -> ServeConfig {
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, (name, workload))| TenantSpec {
                name: name.clone(),
                workload: workload.clone(),
                policy: job.policy,
                schedule: self.schedule_of(i, job.load),
                l2_partition: self.partition_of(i),
                max_batch: self.max_batch,
            })
            .collect();
        ServeConfig {
            system: self.system.clone(),
            tenants,
            run: RunOptions {
                max_cycles: self.budget,
                no_skip: self.no_skip,
                check_invariants: self.check_invariants,
                telemetry_interval: None,
            },
        }
    }

    /// FNV-1a over every tenant's schedule at every load level — the
    /// traffic identity of the whole sweep.
    #[must_use]
    pub fn arrivals_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for &load in &self.loads {
            for i in 0..self.tenants.len() {
                h.write_u64(self.schedule_of(i, load).hash());
            }
        }
        h.finish()
    }
}

/// One job's entry in a serve sweep report. Contains no wall-clock
/// fields: a resumed sweep reproduces these records byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeJobRecord {
    /// Job id within the sweep.
    pub id: usize,
    /// Policy label.
    pub policy: String,
    /// Mean inter-arrival gap in cycles.
    pub load: u64,
    /// `"ok"`, or the failure description.
    pub status: String,
    /// Cycle at which the last dispatch completed (0 on failure).
    pub cycles: u64,
    /// Per-tenant results (empty on failure).
    pub tenants: Vec<TenantResult>,
}

impl ServeJobRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::U64(self.id as u64)),
            ("policy", Json::str(&self.policy)),
            ("load", Json::U64(self.load)),
            ("status", Json::str(&self.status)),
            ("cycles", Json::U64(self.cycles)),
            (
                "tenants",
                Json::Arr(
                    self.tenants
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("name", Json::str(&t.name)),
                                ("workload", Json::str(&t.workload)),
                                ("requested", Json::U64(t.requested)),
                                ("completed", Json::U64(t.completed)),
                                ("batches", Json::U64(t.batches)),
                                ("kernels", Json::U64(t.kernels)),
                                ("busy_cycles", Json::U64(t.busy_cycles)),
                                ("queue_peak", Json::U64(t.queue_peak)),
                                ("dram_reads", Json::U64(t.dram_reads)),
                                ("dram_writes", Json::U64(t.dram_writes)),
                                ("noc_req_transfers", Json::U64(t.noc_req_transfers)),
                                ("noc_resp_transfers", Json::U64(t.noc_resp_transfers)),
                                ("latency_sum", Json::U64(t.latency_sum)),
                                ("p50", Json::U64(t.p50)),
                                ("p95", Json::U64(t.p95)),
                                ("p99", Json::U64(t.p99)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The record as one compact JSON line (the journal entry format).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        self.to_json().to_compact()
    }

    /// Rebuilds a record from its JSON form (journal replay).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<ServeJobRecord, String> {
        let int = |doc: &Json, key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or invalid `{key}`"))
        };
        let text = |doc: &Json, key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or invalid `{key}`"))
        };
        let mut tenants = Vec::new();
        for t in doc
            .get("tenants")
            .and_then(Json::as_arr)
            .ok_or("missing or invalid `tenants`")?
        {
            tenants.push(TenantResult {
                name: text(t, "name")?,
                workload: text(t, "workload")?,
                requested: int(t, "requested")?,
                completed: int(t, "completed")?,
                batches: int(t, "batches")?,
                kernels: int(t, "kernels")?,
                busy_cycles: int(t, "busy_cycles")?,
                queue_peak: int(t, "queue_peak")?,
                dram_reads: int(t, "dram_reads")?,
                dram_writes: int(t, "dram_writes")?,
                noc_req_transfers: int(t, "noc_req_transfers")?,
                noc_resp_transfers: int(t, "noc_resp_transfers")?,
                latency_sum: int(t, "latency_sum")?,
                p50: int(t, "p50")?,
                p95: int(t, "p95")?,
                p99: int(t, "p99")?,
            });
        }
        Ok(ServeJobRecord {
            id: int(doc, "id")? as usize,
            policy: text(doc, "policy")?,
            load: int(doc, "load")?,
            status: text(doc, "status")?,
            cycles: int(doc, "cycles")?,
            tenants,
        })
    }
}

/// The record of a job that produced no result.
fn failed(job: &ServeJob, status: String) -> ServeJobRecord {
    ServeJobRecord {
        id: job.id,
        policy: job.policy.label(),
        load: job.load,
        status,
        cycles: 0,
        tenants: Vec::new(),
    }
}

/// Runs one grid cell; a simulator-level failure becomes the record's
/// `status`.
#[must_use]
pub fn run_serve_job(spec: &ServeSweepSpec, job: &ServeJob) -> ServeJobRecord {
    spec.run(job).unwrap_or_else(|e| failed(job, e.to_string()))
}

/// The serving sweeps: one multi-tenant scenario per (policy, load)
/// cell. A job's output is its record, which holds no wall-clock field.
impl JobKind for ServeSweepSpec {
    type Job = ServeJob;
    type Output = ServeJobRecord;
    type Error = ServeError;
    type Record = ServeJobRecord;
    type Report = Json;

    const KIND: Option<&'static str> = Some("serve");

    fn system(&self) -> &SystemConfig {
        &self.system
    }

    fn jobs(&self) -> Vec<ServeJob> {
        ServeSweepSpec::jobs(self)
    }

    fn job_id(job: &ServeJob) -> usize {
        job.id
    }

    fn label(&self, job: &ServeJob) -> String {
        format!("{} @ load {}", job.policy.label(), job.load)
    }

    fn describe(&self, job: &ServeJob) -> String {
        format!(
            "policy {}, load {}, arrival seed {}",
            job.policy.label(),
            job.load,
            self.seed
        )
    }

    fn run(&self, job: &ServeJob) -> Result<ServeJobRecord, ServeError> {
        let result = miopt_serve::run(&self.serve_config(job))?;
        Ok(ServeJobRecord {
            id: job.id,
            policy: job.policy.label(),
            load: job.load,
            status: "ok".to_string(),
            cycles: result.cycles,
            tenants: result.tenants,
        })
    }

    /// Machine, schema, grid, tenant workload identities, run options,
    /// and the arrival seed plus expanded-schedule hashes (so resumed
    /// traffic is provably identical).
    fn fingerprint(&self) -> String {
        let mut h = Fnv1a::new();
        h.write(b"serve");
        h.write(config_hash(&self.system).as_bytes());
        h.write_u64(u64::from(SCHEMA_VERSION));
        h.write_u64(u64::from(JOURNAL_VERSION));
        let jobs = ServeSweepSpec::jobs(self);
        h.write_u64(jobs.len() as u64);
        for job in &jobs {
            h.write(job.policy.label().as_bytes());
            h.write_u64(job.load);
        }
        for (name, workload) in &self.tenants {
            h.write(name.as_bytes());
            h.write(workload.stable_id().as_bytes());
        }
        h.write_u64(self.requests as u64);
        h.write_u64(self.seed);
        h.write_u64(u64::from(self.partition));
        h.write_u64(u64::from(self.max_batch));
        h.write_u64(self.budget);
        h.write_u64(u64::from(self.no_skip));
        h.write_u64(u64::from(self.check_invariants));
        h.write_u64(self.arrivals_fingerprint());
        format!("{:016x}", h.finish())
    }

    /// The traffic identity, so a resumed run can prove it replays the
    /// same arrivals.
    fn header_extras(&self) -> Vec<(&'static str, Json)> {
        let arrivals = format!("{:016x}", self.arrivals_fingerprint());
        vec![
            ("arrival_seed", Json::U64(self.seed)),
            ("arrivals_fingerprint", Json::str(arrivals)),
        ]
    }

    fn record(&self, outcome: &JobOutcome<ServeSweepSpec>) -> ServeJobRecord {
        match &outcome.result {
            Ok(record) => record.clone(),
            Err(e) => failed(&outcome.job, e.to_string()),
        }
    }

    fn replay(
        &self,
        _: &ServeJob,
        record: &ServeJobRecord,
    ) -> Result<ServeJobRecord, JobError<ServeError>> {
        if record.status == "ok" {
            Ok(record.clone())
        } else {
            Err(JobError::Journaled(record.status.clone()))
        }
    }

    fn record_id(record: &ServeJobRecord) -> usize {
        record.id
    }

    fn encode(record: &ServeJobRecord) -> String {
        record.to_json_line()
    }

    fn decode(doc: &Json) -> Result<ServeJobRecord, String> {
        ServeJobRecord::from_json(doc)
    }

    fn report(&self, name: &str, provenance: Provenance, records: Vec<ServeJobRecord>) -> Json {
        report_json(self, name, &provenance, &records)
    }

    fn document(report: &Json) -> Json {
        report.clone()
    }
}

/// The worst (maximum) tenant p99 of a job — the sweep's tail metric.
fn worst_p99(rec: &ServeJobRecord) -> u64 {
    rec.tenants.iter().map(|t| t.p99).max().unwrap_or(u64::MAX)
}

/// One load level's winners: the policy with the lowest worst-tenant
/// p99 and the one with the lowest mean dispatch runtime (GPU busy
/// cycles per batch), `"none"` when no job at the load finished. When
/// they differ, queueing has inverted the paper's isolated-runtime
/// ranking — the effect the sweep exists to expose.
struct LoadWinners<'a> {
    load: u64,
    by_p99: &'a str,
    by_mean_batch: &'a str,
}

impl LoadWinners<'_> {
    fn tail_diverges(&self) -> bool {
        self.by_p99 != self.by_mean_batch
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("load", Json::U64(self.load)),
            ("best_by_p99", Json::str(self.by_p99)),
            ("best_by_mean_batch", Json::str(self.by_mean_batch)),
            ("tail_diverges_from_mean", Json::Bool(self.tail_diverges())),
        ])
    }
}

/// The winners at each load level of `spec`, in `--loads` order.
fn summarize<'a>(spec: &ServeSweepSpec, records: &'a [ServeJobRecord]) -> Vec<LoadWinners<'a>> {
    spec.loads
        .iter()
        .map(|&load| {
            let at_load: Vec<&ServeJobRecord> = records
                .iter()
                .filter(|r| r.load == load && r.status == "ok")
                .collect();
            let by_p99 = at_load.iter().min_by_key(|r| worst_p99(r));
            // Exact rational compare of busy/batches, no float rounding.
            let by_mean = at_load.iter().min_by(|a, b| {
                let (ab, an): (u128, u128) = (
                    a.tenants.iter().map(|t| u128::from(t.busy_cycles)).sum(),
                    a.tenants.iter().map(|t| u128::from(t.batches)).sum(),
                );
                let (bb, bn): (u128, u128) = (
                    b.tenants.iter().map(|t| u128::from(t.busy_cycles)).sum(),
                    b.tenants.iter().map(|t| u128::from(t.batches)).sum(),
                );
                (ab * bn.max(1)).cmp(&(bb * an.max(1)))
            });
            LoadWinners {
                load,
                by_p99: by_p99.map_or("none", |r| r.policy.as_str()),
                by_mean_batch: by_mean.map_or("none", |r| r.policy.as_str()),
            }
        })
        .collect()
}

/// Assembles the full report document: provenance (including the
/// arrival seed and schedule hash), the grid, per-job records, and the
/// per-load summary.
#[must_use]
pub fn report_json(
    spec: &ServeSweepSpec,
    name: &str,
    provenance: &Provenance,
    records: &[ServeJobRecord],
) -> Json {
    let mut prov = provenance.to_json();
    if let Json::Obj(pairs) = &mut prov {
        let extras = spec.header_extras().into_iter();
        pairs.extend(extras.map(|(key, value)| (key.to_string(), value)));
    }
    let summary = summarize(spec, records)
        .iter()
        .map(LoadWinners::to_json)
        .collect();
    Json::obj([
        ("sweep", Json::str(name)),
        ("kind", Json::str("serve")),
        ("schema_version", Json::U64(u64::from(SCHEMA_VERSION))),
        ("provenance", prov),
        (
            "grid",
            Json::obj([
                (
                    "tenants",
                    Json::Arr(
                        spec.tenants
                            .iter()
                            .map(|(n, w)| {
                                Json::obj([
                                    ("name", Json::str(n)),
                                    ("workload", Json::str(&w.name)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "policies",
                    Json::Arr(spec.policies.iter().map(|p| Json::str(p.label())).collect()),
                ),
                (
                    "loads",
                    Json::Arr(spec.loads.iter().map(|&l| Json::U64(l)).collect()),
                ),
                ("requests", Json::U64(spec.requests as u64)),
                ("max_batch", Json::U64(u64::from(spec.max_batch))),
                ("partition", Json::Bool(spec.partition)),
            ]),
        ),
        (
            "jobs",
            Json::Arr(records.iter().map(ServeJobRecord::to_json).collect()),
        ),
        ("summary", Json::Arr(summary)),
    ])
}

/// Prints the human-readable sweep table to stdout.
fn print_table(spec: &ServeSweepSpec, records: &[ServeJobRecord]) {
    println!("== serve: policy x load -> tail latency (cycles) ==");
    println!(
        "{:14} {:>10} {:>10}  per-tenant p50/p95/p99 (completed)",
        "policy", "load", "cycles"
    );
    for r in records {
        let tenants = if r.status == "ok" {
            r.tenants
                .iter()
                .map(|t| {
                    format!(
                        "{}: {}/{}/{} ({})",
                        t.name, t.p50, t.p95, t.p99, t.completed
                    )
                })
                .collect::<Vec<_>>()
                .join("  ")
        } else {
            format!("FAILED: {}", r.status)
        };
        println!("{:14} {:>10} {:>10}  {tenants}", r.policy, r.load, r.cycles);
    }
    for w in summarize(spec, records) {
        let mark = if w.tail_diverges() {
            "  <-- tail diverges"
        } else {
            ""
        };
        let (load, p99, mean) = (w.load, w.by_p99, w.by_mean_batch);
        println!("load {load}: best by p99 = {p99}, best by mean batch = {mean}{mark}");
    }
}

/// Runs the `serve` subcommand. Returns the process exit code.
#[must_use]
pub fn run_serve(args: &ServeArgs) -> i32 {
    let spec = &args.spec;
    eprintln!(
        "running serve sweep: {} policies x {} loads = {} jobs, {} tenants ...",
        spec.policies.len(),
        spec.loads.len(),
        spec.policies.len() * spec.loads.len(),
        spec.tenants.len()
    );
    let pool = args.common.pool_options();
    let run = match drive(spec, &args.common, &pool, None, !args.common.no_journal) {
        Ok(run) => run,
        Err(code) => return code,
    };
    // A serve job's outcome and its record are one and the same thing,
    // replayed or fresh, so the records need no second copy in the run.
    let records: Vec<ServeJobRecord> = run.outcomes.iter().map(|o| spec.record(o)).collect();
    print_table(spec, &records);
    let failed = records.iter().filter(|r| r.status != "ok").count();
    if failed > 0 {
        eprintln!("error: {failed} serve job(s) failed");
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use miopt_workloads::by_name;

    /// The message `list` is refused with.
    fn refusal(list: &[&str]) -> String {
        let argv: Vec<String> = list.iter().map(|s| (*s).to_string()).collect();
        flags::parse::<ServeArgs>(&argv)
            .err()
            .expect("refused")
            .message
    }

    pub(crate) fn tiny_spec() -> ServeSweepSpec {
        let quick = |name| by_name(&SuiteConfig::quick(), name).unwrap();
        ServeSweepSpec {
            system: SystemConfig::small_test(),
            tenants: vec![
                ("t0".to_string(), quick("FwSoft")),
                ("t1".to_string(), quick("FwPool")),
            ],
            policies: vec![
                PolicyConfig::of(CachePolicy::CacheR),
                PolicyConfig::of(CachePolicy::CacheRW),
            ],
            loads: vec![30_000],
            requests: 3,
            seed: 0,
            partition: true,
            max_batch: 2,
            budget: 500_000_000,
            no_skip: false,
            check_invariants: false,
        }
    }

    #[test]
    fn serve_args_parse() {
        let a = parse_serve_args(
            [
                "--system",
                "paper",
                "--scale",
                "paper",
                "--tenants",
                "a=FwSoft,b=SGEMM",
                "--policies",
                "CacheR,CacheRW",
                "--loads",
                "50000,10000",
                "--requests",
                "8",
                "--seed",
                "9",
                "--partition",
                "--max-batch",
                "2",
                "--jobs",
                "3",
                "--sweep-name",
                "myserve",
            ]
            .iter()
            .map(|s| (*s).to_string()),
        );
        assert_eq!(a.system_name, "paper");
        assert_eq!(a.tenants[1], ("b".to_string(), "SGEMM".to_string()));
        assert_eq!(a.spec.policies.len(), 2);
        assert_eq!(a.spec.loads, vec![50_000, 10_000]);
        assert_eq!(a.spec.requests, 8);
        assert_eq!(a.spec.seed, 9);
        assert!(a.spec.partition);
        assert_eq!(a.spec.max_batch, 2);
        assert_eq!(a.common.jobs, 3);
        assert_eq!(a.common.sweep_name, "myserve");
        let d = parse_serve_args(std::iter::empty());
        assert_eq!(d.common.sweep_name, "serve-small-quick");
        assert_eq!(d.spec.policies.len(), 3);
        // Workloads match without regard to case; the spec, and so the
        // report's grid, spells them as the suite does.
        let args = parse_serve_args(["--tenants", "a=fwsoft"].iter().map(|s| (*s).to_string()));
        let spec = ServeSweepSpec::from_args(&args);
        assert_eq!(spec.tenants.len(), 1);
        assert_eq!(
            (spec.tenants[0].0.as_str(), spec.tenants[0].1.name.as_str()),
            ("a", "FwSoft")
        );
    }

    #[test]
    fn tenants_resolve_once_to_the_suite_workloads() {
        let spec = |tenants: &str| {
            let argv = ["--tenants", tenants].map(String::from);
            ServeSweepSpec::from_args(&parse_serve_args(argv.into_iter()))
        };
        let (lower, suite) = (spec("t0=fwsoft,t1=FWPOOL"), spec("t0=FwSoft,t1=FwPool"));
        for ((name, workload), expected) in lower.tenants.iter().zip(["FwSoft", "FwPool"]) {
            let built = by_name(&SuiteConfig::quick(), expected).unwrap();
            assert_eq!(workload.name, expected, "tenant {name}");
            assert_eq!(workload.stable_id(), built.stable_id(), "tenant {name}");
        }
        assert_eq!(lower.fingerprint(), suite.fingerprint());
    }

    #[test]
    fn serve_rejects_unknown_flags() {
        // Values the arrival generator would otherwise assert on, and
        // the flag pair that contradicts itself, are refused by name.
        for (flags, named) in [
            (["--loads", "5000,0"], "--loads"),
            (["--requests", "0"], "--requests"),
            (["--max-batch", "0"], "--max-batch"),
        ] {
            let refusal = refusal(&flags);
            assert!(refusal.starts_with(named), "{flags:?}: {refusal}");
        }
        let both = refusal(&["--no-journal", "--resume", "x"]);
        assert!(both.contains("--resume") && both.contains("--no-journal"));
        assert_eq!(
            refusal(&["--frobnicate"]),
            "unexpected argument \"--frobnicate\""
        );
    }

    #[test]
    fn fingerprint_tracks_grid_options_and_traffic() {
        let base = tiny_spec();
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let mut seeded = base.clone();
        seeded.seed = 1;
        assert_ne!(base.fingerprint(), seeded.fingerprint());
        let mut loaded = base.clone();
        loaded.loads.push(10_000);
        assert_ne!(base.fingerprint(), loaded.fingerprint());
        let mut batched = base.clone();
        batched.max_batch = 1;
        assert_ne!(base.fingerprint(), batched.fingerprint());
        // The traffic identity alone separates sweeps too.
        assert_ne!(base.arrivals_fingerprint(), seeded.arrivals_fingerprint());
    }

    #[test]
    fn schedules_are_shared_across_policies_not_tenants() {
        let spec = tiny_spec();
        let jobs = spec.jobs();
        let a = spec.serve_config(&jobs[0]);
        let b = spec.serve_config(&jobs[1]);
        // Same load, different policy: byte-identical traffic.
        assert_eq!(a.tenants[0].schedule, b.tenants[0].schedule);
        // Different tenants: different streams.
        assert_ne!(a.tenants[0].schedule, a.tenants[1].schedule);
    }

    #[test]
    fn record_round_trips_through_json() {
        let spec = tiny_spec();
        let rec = run_serve_job(&spec, &spec.jobs()[0]);
        assert_eq!(rec.status, "ok");
        assert_eq!(rec.tenants[1].workload, spec.tenants[1].1.name);
        let line = rec.to_json_line();
        let back = ServeJobRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn a_panicking_job_is_reported_as_panicked_not_propagated() {
        use crate::pool::PoolOptions;
        use crate::sweep::run_kind;
        let pool = PoolOptions {
            workers: 1,
            ..PoolOptions::default()
        };
        let records = |spec: ServeSweepSpec| -> Vec<ServeJobRecord> {
            let run = run_kind(&spec, "t", &pool, None, None);
            run.outcomes.iter().map(|o| spec.record(o)).collect()
        };
        assert_eq!(records(tiny_spec())[0].status, "ok");

        // Fewer L2 ways than partitioned tenants makes serve_config
        // panic; the pool must report it in the job's status, not
        // propagate it.
        let mut broken = tiny_spec();
        broken.system.l2.ways = 1;
        let rec = &records(broken)[0];
        assert!(rec.status.starts_with("panicked:"), "{}", rec.status);
        assert_eq!(rec.id, 0);
        assert!(rec.tenants.is_empty());
    }

    #[test]
    fn equal_share_partitions_cover_the_l2() {
        let spec = tiny_spec();
        let p0 = spec.partition_of(0).unwrap();
        let p1 = spec.partition_of(1).unwrap();
        assert_eq!(p0.first, 0);
        assert_eq!(p0.end(), p1.first);
        assert_eq!(p1.end(), spec.system.l2.ways);
    }
}
