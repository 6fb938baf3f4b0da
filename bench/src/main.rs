//! The miopt benchmark. One command runs one workload, checks its
//! outputs, prints every metric by name with its unit, and ends with one
//! JSON line; see `README.md` beside this package and `BENCHMARK.json`
//! at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
//! cargo run --release --manifest-path bench/Cargo.toml -- --compare <set-a> [<set-b>]
//! ```

mod clock;
mod compare;
mod estimator;
mod metric;
mod micro;
mod serve;
mod sim;
mod sweep;
mod trace;
mod workload;

use clock::Stopwatch;
use estimator::CaseTimes;
use metric::{Metric, WorkloadDef, END_TO_END, WORKLOADS};
use miopt_harness::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Outcome, Tally, Traced, Workload};

/// System allocator wrapper that reports every allocation into
/// `miopt_engine::alloc_track`, so the profiled runs can attribute heap
/// traffic per event-core actor. One relaxed atomic increment per
/// allocation; the steady-state hot path allocates nothing, so the timed
/// runs do not see it.
struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; the wrapper only adds
// a side-effect-free counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        miopt_engine::alloc_track::note_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        miopt_engine::alloc_track::note_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        miopt_engine::alloc_track::note_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per set-up sample: one takes well under a millisecond, so a
/// sample times several back to back.
const SETUPS_PER_SAMPLE: u32 = 16;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One rep of quick-scale cases: a functional check in under 20 s.
    smoke: bool,
    /// Where run files and scratch state go.
    out: PathBuf,
}

const USAGE: &str = "usage: --workload <rnn_latency|stream_large|sweep_grid|serve_tail|all> \
[--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]\n       \
--compare <set-a> [<set-b>]\n       --print-manifest";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: metric::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            "--trace" => {
                // `--trace` alone switches tracing on; `--trace 0|1` is
                // the form the benchmark driver passes.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let known = args.workload == "all" || WORKLOADS.iter().any(|w| w.name == args.workload);
    if !known {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run of one workload produced.
struct Report {
    workload: String,
    args: Args,
    tally: Tally,
    metrics: Vec<Metric>,
    /// Per case: label, Σ over parts of the minimum rep, each rep's total.
    cases: Vec<(String, f64, Vec<f64>)>,
    traced: Option<Traced>,
}

impl Report {
    fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }

    /// The line the benchmark contract asks for, last on stdout.
    fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.tally.attempted)),
            ("failed", Json::U64(self.tally.failed)),
            ("metrics", self.metrics_json()),
        ])
        .to_compact()
    }

    /// The run file `--compare` reads.
    fn run_file(&self) -> Json {
        let mut doc = vec![
            ("schema", Json::str(compare::RUN_SCHEMA)),
            ("workload", Json::str(&self.workload)),
            ("seed", Json::U64(self.args.seed)),
            ("trace", Json::Bool(self.args.trace)),
            ("smoke", Json::Bool(self.args.smoke)),
            ("seconds", Json::F64(self.args.seconds)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.tally.attempted)),
            ("failed", Json::U64(self.tally.failed)),
            (
                "messages",
                Json::Arr(self.tally.messages.iter().map(Json::str).collect()),
            ),
            ("metrics", self.metrics_json()),
            (
                "cases",
                Json::Arr(
                    self.cases
                        .iter()
                        .map(|(label, host_s, reps)| {
                            Json::obj([
                                ("case", Json::str(label)),
                                ("host_s", Json::F64(*host_s)),
                                (
                                    "rep_s",
                                    Json::Arr(reps.iter().map(|s| Json::F64(*s)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(t) = &self.traced {
            doc.push(("spans", t.trace.to_json()));
        }
        Json::obj(doc)
    }

    fn print(&self) {
        println!(
            "== {} (seed {}, {}{}) ==",
            self.workload,
            self.args.seed,
            if self.args.trace { "traced" } else { "timed" },
            if self.args.smoke { ", smoke" } else { "" }
        );
        for (label, host_s, reps) in &self.cases {
            println!(
                "  case {label}: {host_s:.4} s (median rep {:.4} s, {} rep(s))",
                estimator::median(reps),
                reps.len()
            );
        }
        if let Some(t) = &self.traced {
            println!("  {:24} {:>12} {:>12}", "span", "total ms", "self ms");
            for name in t.trace.names() {
                println!(
                    "  {name:24} {:>12.3} {:>12.3}",
                    t.trace.total_ms(name),
                    t.trace.self_ms(name)
                );
            }
        }
        for m in &self.metrics {
            println!("{:36} {:>18.6} {}", m.name, m.value, m.unit);
        }
        for msg in &self.tally.messages {
            eprintln!("FAILED {msg}");
        }
        println!(
            "{} of {} operations failed",
            self.tally.failed, self.tally.attempted
        );
    }
}

/// Everything between process start and the first timed rep: argument
/// parsing, the scratch directory, and the workload with the inputs of
/// every case generated and its configurations validated.
fn set_up(argv: &[String], name: &str) -> Result<(Args, PathBuf, Box<dyn Workload>), String> {
    let args = parse_args(argv)?;
    let scratch = args.out.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let w = workload::make(name, args.seed, args.smoke, &scratch)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    Ok((args, scratch, w))
}

/// Runs one workload: the timed loop, then (with `--trace`) one traced
/// pass, the output checks and the micro-kernels.
fn run_workload(argv: &[String], def: &WorkloadDef) -> Result<Report, String> {
    let name = def.name;
    let (args, scratch, mut w) = set_up(argv, name)?;
    let labels = w.cases();

    // A traced run spends a quarter of its time, and at least two reps,
    // on untraced reference timings; the traced pass, the checks and the
    // micro-kernels that follow are fixed work.
    let reps = if args.smoke {
        1
    } else if args.trace {
        ((args.seconds / 4.0 / def.nominal_pass_s) as usize).max(2)
    } else {
        ((args.seconds / def.nominal_pass_s) as usize).max(1)
    };
    let mut times: Vec<CaseTimes> = labels.iter().map(|_| CaseTimes::default()).collect();
    let mut tally = Tally::default();
    let mut reference: Vec<Outcome> = Vec::new();
    let mut setup_s = Vec::new();
    let mut slowest_round_s: f64 = 0.0;
    let measuring = Instant::now();
    for rep in 1..=reps {
        // Cases run round-robin, and a set-up sample is taken before
        // every round, so both kinds of sample are spread over the run.
        let round = Instant::now();
        let timer = Stopwatch::start();
        for _ in 0..SETUPS_PER_SAMPLE {
            w = set_up(argv, name)?.2;
        }
        setup_s.push(timer.seconds() / f64::from(SETUPS_PER_SAMPLE));
        for (i, label) in labels.iter().enumerate() {
            let outcome = w.run_case(i, None);
            times[i].push(&outcome.parts);
            if rep == 1 {
                reference.push(outcome.clone());
            }
            tally.count(&format!("{label} rep {rep}"), &outcome, &reference[i]);
        }
        // The rep count is fixed; the wall clock only guards against a
        // host so slow that the run would take twice what was asked.
        slowest_round_s = slowest_round_s.max(round.elapsed().as_secs_f64());
        if measuring.elapsed().as_secs_f64() + slowest_round_s > 2.0 * args.seconds {
            break;
        }
    }
    let host_s: f64 = times.iter().map(CaseTimes::sum_of_min).sum();
    let host_median_s: f64 = times
        .iter()
        .map(|t| estimator::median(&t.rep_totals()))
        .sum();
    let sim_cycles: u64 = reference.iter().map(|o| o.sim_cycles).sum();
    let cases = labels
        .iter()
        .zip(&times)
        .map(|(l, t)| (l.clone(), t.sum_of_min(), t.rep_totals()))
        .collect();

    let (metrics, traced) = if args.trace {
        let timer_ns = micro::timer_ns();
        let mut t = Traced::new();
        let pass = t.trace.begin_pass();
        let mut traced_host_s = 0.0;
        for (i, label) in labels.iter().enumerate() {
            let outcome = w.run_case(i, Some(&mut t));
            traced_host_s += outcome.host_s();
            tally.count(&format!("{label} traced"), &outcome, &reference[i]);
        }
        t.trace.end(pass);
        let t0 = Instant::now();
        w.checks(&reference, &mut tally, &mut t);
        let verify_s = t0.elapsed().as_secs_f64();
        micro::run(args.seed, args.smoke, &scratch, &mut t.layers);
        t.derive(timer_ns);
        let l = &mut t.layers;
        l.set("bench.reps", setup_s.len() as f64);
        l.set("bench.host_median_s", host_median_s);
        l.set("bench.host_spread", host_median_s / host_s - 1.0);
        l.set("bench.timer_ns", timer_ns);
        l.set("bench.trace_overhead", traced_host_s / host_s - 1.0);
        l.set("bench.verify_s", verify_s);
        (t.layers.metrics(), Some(t))
    } else {
        let values = [
            host_s,
            sim_cycles as f64 / 1e6 / host_s,
            estimator::min(&setup_s),
            peak_rss_mb(),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(d, value)| Metric {
                name: d.name,
                unit: d.unit,
                value,
            })
            .collect();
        (metrics, None)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(Report {
        workload: name.to_string(),
        args,
        tally,
        metrics,
        cases,
        traced,
    })
}

fn main() {
    miopt_engine::alloc_track::set_installed();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        // The harness CLI, for the traced `sweep_grid` run's child
        // process: the two calls `miopt-harness`'s own `main` makes.
        Some("--harness-cli") => {
            let args = miopt_harness::cli::parse_args(argv[1..].iter().cloned());
            std::process::exit(miopt_harness::cli::run(&args));
        }
        Some("--compare") => std::process::exit(compare::main(&argv[1..])),
        Some("--print-manifest") => {
            print!("{}", metric::manifest().to_pretty());
            return;
        }
        _ => {}
    }
    metric::validate_tables().expect("the metric tables meet the benchmark contract");
    let usage = |e: String| -> ! {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    };
    let args = parse_args(&argv).unwrap_or_else(|e| usage(e));
    let mut all_correct = true;
    for def in WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || args.workload == w.name)
    {
        let name = def.name;
        let report = run_workload(&argv, def).unwrap_or_else(|e| usage(e));
        report.print();
        let file = args.out.join(if args.trace {
            format!("{name}.trace.json")
        } else {
            format!("{name}.json")
        });
        if let Err(e) = std::fs::write(&file, report.run_file().to_pretty()) {
            eprintln!("warning: could not write {}: {e}", file.display());
        }
        all_correct &= report.correct();
        println!("{}", report.result_line());
    }
    std::process::exit(i32::from(!all_correct));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn driver_and_shorthand_flag_forms_parse() {
        let a = parse_args(&argv(&[
            "--workload",
            "rnn_latency",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, false));
        let a = parse_args(&argv(&["--workload", "all", "--trace", "1", "--smoke"])).unwrap();
        assert!(a.trace && a.smoke);
        let a = parse_args(&argv(&["--trace", "--workload", "serve_tail"])).unwrap();
        assert!(a.trace);
        assert_eq!(a.seconds, metric::RUN_SECONDS as f64);
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--workload", "all", "--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--workload"])).is_err());
        assert!(parse_args(&argv(&[])).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys_and_escapes_strings() {
        let report = Report {
            workload: "rnn_latency".to_string(),
            args: parse_args(&argv(&["--workload", "rnn_latency"])).unwrap(),
            tally: Tally {
                attempted: 3,
                failed: 1,
                messages: vec!["case \"a\\b\"\nrep 2: boom".to_string()],
            },
            metrics: vec![Metric {
                name: "host_s",
                unit: "s",
                value: 3.25,
            }],
            cases: vec![("FwGRU/\"quoted\"".to_string(), 1.0, vec![1.0, 2.0])],
            traced: None,
        };
        assert_eq!(
            report.result_line(),
            r#"{"correct":false,"attempted":3,"failed":1,"metrics":{"host_s":{"value":3.25,"unit":"s"}}}"#
        );
        // Quotes, backslashes and newlines survive the run file.
        let back = Json::parse(&report.run_file().to_pretty()).unwrap();
        assert_eq!(
            back.get("messages").unwrap().as_arr().unwrap()[0].as_str(),
            Some("case \"a\\b\"\nrep 2: boom")
        );
        assert_eq!(
            compare::RunFile::from_json(&back).unwrap().metrics["host_s"],
            3.25
        );
    }
}
