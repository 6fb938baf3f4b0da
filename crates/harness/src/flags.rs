//! The flag grammar of `miopt-harness`: one table of `Flag` rows per
//! subcommand (`Command`) and one parser over them (`parse`). A refusal
//! is a `CliError` carrying the usage generated from the table;
//! [`main`] prints both and exits 2.

use crate::{cli, figures, query, serve};
use std::fmt;
use std::str::FromStr;

/// One row of a flag table: the flag as the usage shows it (`--name`, a
/// switch; `--name <V>`, a value, given as `--name V` or `--name=V`;
/// `--name[=V]`, an optional value), its default (the value when the
/// flag is absent, or for an optional value, given bare; empty: none),
/// its help line, and its setter.
pub(crate) type Flag<A> = (&'static str, &'static str, &'static str, Setter<A>);

/// Sets a flag from its value, or a switch from its own name (so one
/// setter can serve many switches).
pub(crate) type Setter<A> = fn(&mut A, &str) -> Result<(), String>;

/// The arguments of one subcommand. [`Default`] is the value the parser
/// starts from, before the table's defaults are set.
pub(crate) trait Command: Default {
    /// The subcommand word (empty for the figure command).
    const NAME: &'static str;

    /// The flag table, in usage order.
    fn flags() -> Vec<Flag<Self>>;

    /// The rules that span flags, run once every flag is set.
    fn check(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// A refused command line.
#[derive(Debug)]
pub(crate) struct CliError {
    /// What is wrong, naming the flag or value.
    pub(crate) message: String,
    /// The subcommand's usage, generated from its flag table.
    pub(crate) usage: String,
}

/// Parses `argv` (the arguments after the subcommand word): `A`'s
/// defaults, then each flag in turn, then `A`'s check.
pub(crate) fn parse<A: Command>(argv: &[String]) -> Result<A, CliError> {
    let rows = A::flags();
    let refuse = |message| CliError {
        message,
        usage: usage(A::NAME, &rows),
    };
    let mut args = A::default();
    for (spec, default, _, set) in rows
        .iter()
        .filter(|row| !row.1.is_empty() && !row.0.contains('['))
    {
        set(&mut args, default).map_err(|e| refuse(format!("default of {spec}: {e}")))?;
    }
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let row = rows
            .iter()
            .find(|row| row.0.split([' ', '[']).next() == Some(name));
        let Some((spec, default, _, set)) = row else {
            return Err(refuse(format!("unexpected argument {arg:?}")));
        };
        let value = match (inline, spec.contains('<'), spec.contains('[')) {
            (Some(""), ..) => return Err(refuse(format!("{name}= needs a value after `=`"))),
            (Some(_), false, false) => return Err(refuse(format!("{name} takes no value"))),
            (Some(value), ..) => value,
            (None, true, _) => argv
                .next()
                .ok_or_else(|| refuse(format!("{name} needs a value")))?,
            (None, false, true) => default,
            (None, false, false) => name,
        };
        set(&mut args, value).map_err(|e| refuse(format!("{name}: {e}")))?;
    }
    args.check().map_err(refuse)?;
    Ok(args)
}

/// The usage of subcommand `name`: one line per flag table row.
fn usage<A>(name: &str, rows: &[Flag<A>]) -> String {
    let command = format!("miopt-harness {name}");
    let mut text = format!("usage: {} [flag]...\n", command.trim_end());
    for (spec, default, help, _) in rows {
        let default = match *default {
            "" => String::new(),
            default => format!(" (default {default})"),
        };
        text.push_str(&format!("  {spec:<22} {help}{default}\n"));
    }
    text
}

/// Runs `miopt-harness` on `argv` (the arguments after the program
/// name): the `serve`, `query` or `check` subcommand when `argv` starts
/// with that word, the figure command otherwise. Returns the exit code:
/// 0 on success, 1 when the run fails, 2 when the arguments are refused
/// (after printing `error: <message>` and the usage to stderr).
pub fn main(argv: impl IntoIterator<Item = String>) -> i32 {
    let argv: Vec<String> = argv.into_iter().collect();
    let code = match argv.first().map(String::as_str) {
        Some("serve") => parse(&argv[1..]).map(|args| serve::run_serve(&args)),
        Some("query") => parse(&argv[1..]).map(|args| query::run_query(&args)),
        Some("check") => parse(&argv[1..]).map(|args| figures::run_check(&args)),
        _ => parse(&argv).map(|args| cli::run(&args)),
    };
    code.unwrap_or_else(|e| {
        eprintln!("error: {}\n\n{}", e.message, e.usage);
        2
    })
}

/// The body of most setters.
pub(crate) fn put<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

pub(crate) fn num<T: FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("expected a number, got {value:?}"))
}

pub(crate) fn positive<T: FromStr + PartialOrd + From<u8>>(value: &str) -> Result<T, String> {
    let n: T = num(value)?;
    (n >= T::from(1))
        .then_some(n)
        .ok_or(format!("must be at least 1, got {value}"))
}

/// `n`, if it is no more than `max`.
pub(crate) fn at_most<T: PartialOrd + fmt::Display>(n: T, max: T) -> Result<T, String> {
    if n <= max {
        Ok(n)
    } else {
        Err(format!("must be at most {max}, got {n}"))
    }
}

pub(crate) fn one_of(value: &str, choices: &[&str]) -> Result<String, String> {
    let choice = choices.iter().find(|c| **c == value).map(|c| c.to_string());
    choice.ok_or(format!("unknown {value:?} (use {})", choices.join("|")))
}

/// Each comma-separated item of `value`, converted by `item`.
pub(crate) fn list<T>(value: &str, item: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    value.split(',').map(item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::CliArgs;
    use crate::figures::CheckArgs;
    use crate::query::QueryArgs;
    use crate::serve::ServeArgs;
    use miopt_engine::prop;

    /// Parses `argv` the way [`main`] dispatches it, without running it.
    fn parses(argv: &[&str]) -> Result<(), CliError> {
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_string()).collect();
        match argv.first().map(String::as_str) {
            Some("serve") => parse::<ServeArgs>(&argv[1..]).map(drop),
            Some("query") => parse::<QueryArgs>(&argv[1..]).map(drop),
            Some("check") => parse::<CheckArgs>(&argv[1..]).map(drop),
            _ => parse::<CliArgs>(&argv).map(drop),
        }
    }

    /// Every distinct harness flag set in `scripts/ci.sh`, README.md,
    /// EXPERIMENTS.md, the verify notes and the benchmark's CLI check
    /// (paths shortened to `d`).
    #[rustfmt::skip]
    const DOCUMENTED: &[&[&str]] = &[
        &["--scale", "quick", "--only", "FwSoft", "--fig6", "--no-cache", "--quiet", "--telemetry=20000", "--out", "d", "--sweep-name", "smoke"],
        &["--scale", "quick", "--only", "FwSoft", "--fig6", "--no-cache", "--no-journal", "--quiet", "--check-invariants", "--out", "d", "--sweep-name", "checked"],
        &["--scale", "paper", "--only", "FwPool,BwPool", "--fig6", "--no-cache", "--quiet", "--jobs", "1", "--out", "d", "--sweep-name", "crash-ref"],
        &["--scale", "paper", "--only", "FwPool,BwPool", "--fig6", "--no-cache", "--quiet", "--jobs", "1", "--out", "d", "--resume", "crash-1"],
        &["query", "--journals", "--dir", "d", "--run", "crash-1"],
        &["serve", "--loads", "40000,20000,10000", "--requests", "8", "--jobs", "1", "--quiet", "--out", "d", "--sweep-name", "serve-crash-ref"],
        &["serve", "--loads", "40000,20000,10000", "--requests", "8", "--jobs", "1", "--quiet", "--out", "d", "--tenants", "t0=fwsoft,t1=fwpool", "--resume", "serve-crash"],
        &["--scale", "quick", "--only", "FwSoft", "--fig6", "--no-cache", "--no-journal", "--quiet", "--jobs", "2", "--out", "d", "--sweep-name", "skip-on"],
        &["--scale", "quick", "--only", "FwSoft", "--fig6", "--no-cache", "--no-journal", "--quiet", "--no-skip", "--out", "d", "--sweep-name", "skip-off"],
        &["--scale", "quick", "--only", "FwAct,BwBN", "--fig6", "--no-cache", "--no-journal", "--quiet", "--jobs", "2", "--out", "d", "--sweep-name", "sat-on"],
        &["--scale", "quick", "--only", "FwAct", "--fig6", "--no-cache", "--no-journal", "--quiet", "--telemetry=500", "--out", "d", "--sweep-name", "tel-on"],
        &["--scale", "quick", "--only", "FwAct", "--fig6", "--no-cache", "--no-journal", "--quiet", "--telemetry=500", "--no-skip", "--out", "d", "--sweep-name", "tel-off"],
        &["--scale", "quick", "--only", "FwAct,FwGRU", "--fig6", "--no-cache", "--no-journal", "--quiet", "--check-invariants", "--telemetry=4096", "--out", "d", "--sweep-name", "telchk-on"],
        &["--scale", "quick", "--only", "FwAct,FwGRU", "--fig6", "--no-cache", "--no-journal", "--quiet", "--check-invariants", "--telemetry=4096", "--no-skip", "--out", "d", "--sweep-name", "telchk-off"],
        &["--scale", "quick", "--only", "FwGRU", "--fig10", "--no-cache", "--no-journal", "--quiet", "--jobs", "2", "--out", "d", "--sweep-name", "rnn-on"],
        &["--scale", "quick", "--only", "FwLSTM,FwBwGRU", "--fig6", "--no-cache", "--no-journal", "--quiet", "--no-skip", "--out", "d", "--sweep-name", "rnn-dram-off"],
        &["--fig6", "--only", "FwLRN", "--no-cache", "--no-journal", "--quiet", "--budget", "10000", "--out", "d", "--sweep-name", "exec-budget"],
        &["--fig6", "--only", "FwLRN", "--no-cache", "--no-journal", "--quiet", "--jobs", "1", "--budget", "10000", "--fail-fast", "--out", "d", "--sweep-name", "exec-ff"],
        &["serve", "--policies", "CacheR", "--loads", "40000", "--requests", "4", "--partition", "--check-invariants", "--budget", "100000000", "--quiet", "--out", "d", "--sweep-name", "serve-smoke"],
        &["serve", "--policies", "CacheR", "--loads", "40000", "--requests", "4", "--partition", "--check-invariants", "--budget", "100000000", "--quiet", "--no-skip", "--out", "d", "--sweep-name", "serve-oracle"],
        &["serve", "--requests", "2", "--loads", "60000", "--policies", "CacheR", "--budget", "20000", "--no-journal", "--quiet", "--out", "d", "--sweep-name", "serve-budget"],
        &["query", "--dir", "d", "--metric", "cycles", "--agg", "count,min,mean,p99"],
        &["query", "--dir", "d", "--run", "serve-smoke", "--metric", "p99", "--agg", "count,max", "--json"],
        &["query", "--journals", "--dir", "d"],
        &["serve", "--loads", "5000", "--seed", "1", "--requests", "16"],
        &["--all", "--csv", "results"],
        &["--fig6", "--fig7", "--only", "FwAct,BwBN"],
        &["--all", "--scale", "quick"],
        &["--all", "--scale", "quick", "--jobs", "8", "--budget", "1000000000"],
        &["--fig6", "--scale", "quick", "--no-cache", "--serial"],
        &["--table2"],
        &["--scale", "quick", "--only", "FwLSTM", "--fig6", "--telemetry=100000", "--sweep-name", "rnn-trace"],
        &["--scale", "quick", "--only", "FwSoft", "--fig6", "--check-invariants", "--sweep-name", "wedge-hunt"],
        &["--scale", "paper", "--all"],
        &["--scale", "paper", "--all", "--resume", "figures-paper"],
        &["query", "--journals", "--dir", "results/runs"],
        &["query", "--dir", "results/runs", "--status", "failed"],
        &["query", "--dir", "results/runs", "--run", "figures-paper", "--workload", "FwLSTM", "--metric", "cycles", "--agg", "count,mean,p99"],
        &["query", "--dir", "results/runs", "--run", "serve", "--metric", "p99", "--agg", "count,max", "--json"],
        &["--fig6", "--scale", "quick", "--only", "FwSoft,BwSoft", "--out", "d"],
        &["--fig6", "--scale", "quick", "--only", "FwSoft,BwSoft", "--no-cache", "--jobs", "1", "--csv", "d", "--out", "d"],
        &["--fig6", "--only", "CM", "--budget", "10000", "--no-cache", "--out", "d", "--sweep-name", "budget-probe"],
        &["--fig6", "--scale", "quick", "--only", "FwSoft", "--no-cache", "--telemetry=20000", "--out", "d", "--sweep-name", "vtel", "--jobs", "1"],
        &["--fig6", "--only", "CM", "--budget", "10000", "--no-cache", "--fail-fast", "--no-journal", "--out", "d", "--sweep-name", "ff-probe", "--quiet"],
        &["--fig6", "--scale", "quick", "--only", "FwSoft", "--no-cache", "--check-invariants", "--out", "d", "--sweep-name", "inv-probe"],
        &["--fig6", "--only", "FwPool,BwPool", "--no-cache", "--jobs", "1", "--out", "d", "--sweep-name", "res-probe"],
        &["serve", "--loads", "5000", "--seed", "1", "--requests", "16", "--no-journal", "--out", "d", "--sweep-name", "vserve"],
        &["serve", "--loads", "40000,20000,10000", "--requests", "8", "--jobs", "1", "--out", "d", "--sweep-name", "sres"],
        &["query", "--dir", "d", "--metric", "cycles", "--agg", "count,mean,p99"],
        &["--scale", "quick", "--only", "FwSoft,BwSoft", "--no-cache", "--quiet", "--sweep-name", "clicheck", "--jobs", "2", "--csv", "d", "--out", "d"],
        &["check"],
        &["check", "--dir", "d"],
        &["--all", "--csv", "d", "--no-cache", "--no-journal", "--quiet", "--out", "d"],
    ];

    #[test]
    fn documented_flag_sets_parse() {
        for argv in DOCUMENTED {
            assert!(parses(argv).is_ok(), "{argv:?}: {:?}", parses(argv));
        }
        // `--flag=value` is `--flag value`.
        let split = parse::<CliArgs>(&[
            "--scale".into(),
            "quick".into(),
            "--jobs".into(),
            "3".into(),
        ])
        .unwrap();
        let joined = parse::<CliArgs>(&["--scale=quick".into(), "--jobs=3".into()]).unwrap();
        assert_eq!(
            (split.scale, split.common.jobs),
            (joined.scale, joined.common.jobs)
        );
        // Table defaults that stand for constants kept elsewhere.
        let serve = parse::<ServeArgs>(&[]).unwrap();
        assert_eq!(serve.spec.seed, crate::provenance::GLOBAL_SEED);
        let figures = parse::<CliArgs>(&[]).unwrap();
        assert_eq!(figures.budget, miopt::runner::DEFAULT_MAX_CYCLES);
    }

    #[test]
    fn bad_arguments_are_refused_by_name_with_the_usage() {
        let nine: String = (1..9).fold("t0=FwSoft".to_string(), |l, i| format!("{l},t{i}=FwPool"));
        let refusals: &[(&[&str], &str)] = &[
            (&["--frobnicate"], "unexpected argument \"--frobnicate\""),
            (
                &["--scale", "huge"],
                "--scale: unknown \"huge\" (use paper|quick)",
            ),
            (&["--jobs", "x"], "--jobs: expected a number, got \"x\""),
            (&["--jobs"], "--jobs needs a value"),
            (&["--jobs="], "--jobs= needs a value after `=`"),
            (&["--quiet=yes"], "--quiet takes no value"),
            (&["--telemetry=0"], "--telemetry: must be at least 1, got 0"),
            (&["--budget", "0"], "--budget: must be at least 1, got 0"),
            (
                &["--only", "FwSoft,Typo,nope"],
                "--only: unknown workload(s) [\"nope\", \"typo\"]",
            ),
            (
                &["--resume", "x", "--no-journal"],
                "--resume cannot be combined with --no-journal",
            ),
            (
                &["serve", "--loads", "0"],
                "--loads: must be at least 1, got 0",
            ),
            (
                &["serve", "--budget", "0"],
                "--budget: must be at least 1, got 0",
            ),
            (
                &["serve", "--requests", "10000000000"],
                "--requests: must be at most 1000000, got 10000000000",
            ),
            (
                &["serve", "--tenants", "a"],
                "--tenants: wants name=Workload, got \"a\"",
            ),
            (
                &["serve", "--tenants", "a=FwSoft,b=Typo"],
                "--tenants: unknown workload(s) [\"Typo\"]",
            ),
            (
                &["serve", "--tenants", "a=FwSoft,a=FwPool"],
                "--tenants: duplicate tenant name \"a\"",
            ),
            (
                &["serve", "--tenants", "=FwSoft"],
                "--tenants: tenant names must be nonempty",
            ),
            (
                &["serve", "--policies", "Foo"],
                "--policies: unknown policy \"Foo\"",
            ),
            (
                &["serve", "--tenants", &nine, "--partition"],
                "--partition: 9 tenants, 8 L2 ways",
            ),
            (
                &["serve", "--no-journal", "--resume", "x"],
                "--resume cannot be combined with --no-journal",
            ),
            (
                &["query", "--agg", "median"],
                "--agg: unknown aggregation \"median\"",
            ),
            (
                &["check", "--frobnicate"],
                "unexpected argument \"--frobnicate\"",
            ),
            (&["check", "--dir"], "--dir needs a value"),
        ];
        for (argv, message) in refusals {
            let refusal = parses(argv).expect_err("refused");
            assert_eq!(&refusal.message, message, "{argv:?}");
            let word = if ["serve", "query", "check"].contains(&argv[0]) {
                argv[0]
            } else {
                ""
            };
            assert!(refusal.usage.starts_with(
                &format!("usage: miopt-harness {word}")
                    .trim_end()
                    .to_string()
            ));
            assert!(
                refusal.usage.contains("  --jobs <N>") != matches!(word, "query" | "check"),
                "{}",
                refusal.usage
            );
        }
        assert!(
            parses(&["serve", "--tenants", &nine]).is_ok(),
            "unpartitioned tenants share every way"
        );
    }

    /// Every flag of every table, as `--name`.
    fn names<A: Command>() -> Vec<&'static str> {
        A::flags()
            .iter()
            .map(|row| row.0.split([' ', '[']).next().unwrap())
            .collect()
    }

    #[test]
    fn hostile_argv_is_refused_not_panicked_on() {
        let mut vocabulary = [
            names::<CliArgs>(),
            names::<ServeArgs>(),
            names::<QueryArgs>(),
            names::<CheckArgs>(),
        ]
        .concat();
        let junk = [
            "",
            "=",
            "-1",
            "0",
            "1180591620717411303424",
            "10000000000",
            "x,",
            "a=",
            "fig6",
            "serve",
            "check",
            "-",
            "--",
            "CacheR",
            "a=FwSoft",
            "paper",
        ];
        vocabulary.extend(junk);
        prop::check("hostile_argv_is_refused_not_panicked_on", 512, |c| {
            let argv: Vec<String> = (0..c.steps(0..12))
                .map(|_| match c.below(3) {
                    0 => format!("{}={}", c.pick(&vocabulary), c.pick(&junk)),
                    _ => c.pick(&vocabulary).to_string(),
                })
                .collect();
            // A zero budget would halt every job before its first cycle.
            if let Ok(args) = parse::<CliArgs>(&argv) {
                assert_ne!(args.budget, 0, "{argv:?}");
            }
            // Every arrival of a serve job is drawn up front, so a huge
            // request count would be one huge allocation.
            if let Ok(args) = parse::<ServeArgs>(&argv) {
                assert_ne!(args.spec.budget, 0, "{argv:?}");
                assert!(args.spec.requests <= 1_000_000, "{argv:?}");
            }
            drop(parse::<QueryArgs>(&argv));
            drop(parse::<CheckArgs>(&argv));
        });
    }
}
