//! Benchmark harness crate. Its entry point is the `tables` binary that
//! regenerates every table and figure of the paper (`src/bin/tables.rs`);
//! `scale_bench` and `tcp_bench` regenerate the virtual-time
//! `BENCH_scale.json` and `BENCH_tcp.json`, and host time is measured
//! by the separate `hostbench` package (`hostbench/`). What lives here
//! is `tables`' command line, so it can be tested, and what the two
//! `*_bench` binaries share: their flags and the write-and-print tail.

use ipstorage_core::experiments::{Experiment, REGISTRY};
use ipstorage_core::RunOptions;
use simkit::Json;

/// What a `tables` command line asks for.
#[derive(Debug, Clone)]
pub struct TablesArgs {
    /// `--jobs N`, `--no-snapshot`, `--attribution`.
    pub options: RunOptions,
    /// `--quick`: reduced-scale versions of the slow experiments.
    pub quick: bool,
    /// `--json`: one `RunReport` JSON line after each runner's tables.
    pub json: bool,
    /// The experiments to run, in registry (print) order: the named
    /// ones, or every one that is not opt-in when none is named.
    pub experiments: Vec<Experiment>,
}

/// Parses `tables`' arguments against the experiment registry. An
/// unknown selection or flag, or `--jobs` without a positive integer,
/// is an error whose message lists what is accepted.
pub fn parse_tables_args(args: &[String]) -> Result<TablesArgs, String> {
    let mut parsed = TablesArgs {
        options: RunOptions::default(),
        quick: false,
        json: false,
        experiments: Vec::new(),
    };
    let mut selections: Vec<&str> = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--quick" => parsed.quick = true,
            "--json" => parsed.json = true,
            "--no-snapshot" => parsed.options.share_setups = false,
            "--attribution" => parsed.options.attribution = true,
            "--jobs" => {
                parsed.options.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&jobs| jobs > 0)
                    .ok_or_else(|| usage("--jobs requires a positive integer"))?;
            }
            flag if flag.starts_with('-') => {
                return Err(usage(&format!("unknown flag `{flag}`")));
            }
            name if REGISTRY.iter().any(|e| e.answers_to(name)) => selections.push(name),
            name => return Err(usage(&format!("unknown selection `{name}`"))),
        }
    }
    parsed.experiments = REGISTRY
        .into_iter()
        .filter(|e| match selections.as_slice() {
            [] => !e.opt_in,
            named => named.iter().any(|s| e.answers_to(s)),
        })
        .collect();
    Ok(parsed)
}

fn usage(problem: &str) -> String {
    let names = |opt_in: bool| {
        let names: Vec<&str> = REGISTRY
            .iter()
            .filter(|e| e.opt_in == opt_in)
            .flat_map(|e| e.name.split('|'))
            .collect();
        names.join(" ")
    };
    format!(
        "tables: {problem}\n\
         usage: tables [--quick] [--json] [--jobs N] [--no-snapshot] [--attribution] [selection...]\n\
         selections: {}\n\
         only when named: {}",
        names(false),
        names(true)
    )
}

/// Whether a `*_bench` command line holds `flag` (`--quick`).
pub fn flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Writes `doc` and a newline to a `*_bench` binary's `--out PATH`
/// (else `default_out`) and prints it to stdout.
pub fn publish(default_out: &str, doc: &Json) {
    let out = value_of("--out").unwrap_or_else(|| default_out.to_string());
    std::fs::write(&out, format!("{doc}\n")).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("{doc}");
    eprintln!("wrote {out}");
}

/// The argument after the first `flag` on the command line, if any.
fn value_of(flag: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != flag).nth(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<TablesArgs, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_tables_args(&args)
    }

    fn names(line: &str) -> Vec<&'static str> {
        let parsed = parse(line).expect("valid command line");
        parsed.experiments.iter().map(|e| e.name).collect()
    }

    #[test]
    fn a_misspelt_name_is_rejected_with_the_registered_ones_listed() {
        let err = parse("--quick tabel4").unwrap_err();
        assert!(err.contains("unknown selection `tabel4`"), "{err}");
        assert!(err.contains("table4") && err.contains("table10"), "{err}");
        assert!(err.contains("frontier"), "opt-in names are listed: {err}");
    }

    #[test]
    fn an_unknown_flag_is_rejected_not_dropped() {
        let err = parse("--quik table2").unwrap_err();
        assert!(err.contains("unknown flag `--quik`"), "{err}");
        assert!(parse("-q").is_err());
    }

    #[test]
    fn jobs_needs_a_positive_integer() {
        for line in [
            "--jobs",
            "table2 --jobs",
            "--jobs four",
            "--jobs 0",
            "--jobs -1",
        ] {
            let err = parse(line).unwrap_err();
            assert!(
                err.contains("--jobs requires a positive integer"),
                "{line}: {err}"
            );
        }
        // The value after --jobs is never taken for a selection.
        let parsed = parse("--jobs 3 table2").expect("valid");
        assert_eq!(parsed.options.jobs, 3);
        assert_eq!(parsed.experiments.len(), 1);
    }

    #[test]
    fn flags_set_exactly_their_option() {
        let plain = parse("table2").expect("valid");
        assert_eq!(plain.options, RunOptions::default());
        assert!(!plain.quick && !plain.json);
        let all = parse("--quick --json --no-snapshot --attribution --jobs 2").expect("valid");
        assert!(all.quick && all.json);
        let expected = RunOptions {
            jobs: 2,
            share_setups: false,
            attribution: true,
        };
        assert_eq!(all.options, expected);
    }

    #[test]
    fn table9_and_table10_are_one_experiment() {
        assert_eq!(names("table9"), ["table9|table10"]);
        assert_eq!(names("table9"), names("table10"));
        assert_eq!(names("table10 table9"), ["table9|table10"]);
    }

    #[test]
    fn opt_in_names_run_only_when_named() {
        let default = names("--quick --json");
        assert_eq!(default.len(), 15);
        for opt_in in ["tcp", "frontier", "ablations"] {
            assert!(!default.contains(&opt_in), "{opt_in} in the default run");
            assert_eq!(names(opt_in), [opt_in]);
        }
    }

    #[test]
    fn selections_run_in_registry_order_whatever_the_argument_order() {
        assert_eq!(names("tcp table5 table2"), ["table2", "table5", "tcp"]);
    }
}
