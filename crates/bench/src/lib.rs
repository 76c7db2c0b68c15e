//! Benchmark harness crate. Its entry point is the `tables` binary
//! (`src/bin/tables.rs`): it regenerates every table and figure of the
//! paper, and with `--record DIR` every committed record file. Host
//! time is measured by the separate `hostbench` package (`hostbench/`).
//! What lives here is `tables`' command line and its print loop, so
//! both can be tested.

use ipstorage_core::experiments::{Artifact, Experiment, REGISTRY};
use ipstorage_core::{attribution_table, gauge_table, RunOptions};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// What a `tables` command line asks for.
#[derive(Debug, Clone)]
pub struct TablesArgs {
    /// `--jobs N`, `--no-snapshot`, `--attribution`.
    pub options: RunOptions,
    /// `--quick`: reduced-scale versions of the slow experiments.
    pub quick: bool,
    /// `--json`: one `RunReport` JSON line after each runner's tables.
    pub json: bool,
    /// `--record DIR`: write the committed record under `DIR` instead
    /// of printing to stdout.
    pub record: Option<PathBuf>,
    /// The experiments to run, in registry (print) order: the named
    /// ones, every one that is not opt-in when none is named, or the
    /// ones [`RECORD`] names under `--record`.
    pub experiments: Vec<Experiment>,
}

/// The committed record `tables --record DIR` writes: each text file,
/// by its path from the checkout root, with the selections whose stdout
/// it holds. A group runs in registry order, so its file is what
/// `tables <selections>` prints. The group without a file runs only
/// for the documents it yields (`BENCH_scale.json`, `BENCH_tcp.json`).
pub const RECORD: [(Option<&str>, &str); 5] = [
    (
        Some("results/micro.txt"),
        "table2 table3 figure3 figure4 figure5",
    ),
    (Some("results/data.txt"), "table4 figure6"),
    (
        Some("results/macro.txt"),
        "table5 table6 table7 table8 table9",
    ),
    (Some("results/enhance.txt"), "figure7 section7 ablations"),
    (None, "scale tcp"),
];

/// Parses `tables`' arguments against the experiment registry. An
/// unknown selection or flag, `--jobs` without a positive integer,
/// `--record` without a directory, or `--record` with anything but
/// `--jobs` and `--no-snapshot` is an error whose message lists what
/// is accepted.
pub fn parse_tables_args(args: &[String]) -> Result<TablesArgs, String> {
    let mut parsed = TablesArgs {
        options: RunOptions::default(),
        quick: false,
        json: false,
        record: None,
        experiments: Vec::new(),
    };
    let mut selections: Vec<&str> = Vec::new();
    // The first argument `--record` does not take, if any.
    let mut unrecordable = None;
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
            "--record" => {
                let dir = args.next().filter(|dir| !dir.starts_with('-'));
                let dir = dir.ok_or_else(|| usage("--record requires a directory"))?;
                parsed.record = Some(PathBuf::from(dir));
            }
            flag if flag.starts_with('-') => {
                return Err(usage(&format!("unknown flag `{flag}`")));
            }
            name if REGISTRY.iter().any(|e| e.answers_to(name)) => selections.push(name),
            name => return Err(usage(&format!("unknown selection `{name}`"))),
        }
        if !matches!(arg, "--jobs" | "--no-snapshot" | "--record") {
            unrecordable.get_or_insert(arg);
        }
    }
    if parsed.record.is_some() {
        if let Some(extra) = unrecordable {
            return Err(usage(&format!(
                "--record writes the whole paper-scale record and takes only --jobs and --no-snapshot, not `{extra}`"
            )));
        }
        selections = RECORD
            .iter()
            .flat_map(|(_, g)| g.split_whitespace())
            .collect();
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
         \x20      tables --record DIR [--jobs N] [--no-snapshot]\n\
         selections: {}\n\
         only when named: {}",
        names(false),
        names(true)
    )
}

/// Runs a parsed command line: prints each experiment's tables (and,
/// as `--attribution` and `--json` ask, its report) to `stdout`. Under
/// `--record DIR` each [`RECORD`] group prints into its file under
/// `DIR` instead, and each document the group yields is written to
/// `DIR/<its path>`. An error names what could not be written.
pub fn run_tables(run: &TablesArgs, stdout: &mut dyn Write) -> Result<(), String> {
    let Some(dir) = &run.record else {
        return print(run, &run.experiments, stdout)
            .map(|_documents| ())
            .map_err(|e| cannot_write(Path::new("stdout"), &e));
    };
    // Made before anything runs, so an unwritable DIR fails at once.
    let results = dir.join("results");
    fs::create_dir_all(&results).map_err(|e| cannot_write(&results, &e))?;
    for (file, selections) in RECORD {
        let group: Vec<Experiment> = (run.experiments.iter())
            .filter(|e| selections.split_whitespace().any(|s| e.answers_to(s)))
            .copied()
            .collect();
        let mut text = Vec::new();
        let documents = print(run, &group, &mut text).map_err(|e| e.to_string())?;
        for (path, bytes) in documents.into_iter().chain(file.map(|path| (path, text))) {
            let path = dir.join(path);
            fs::write(&path, bytes).map_err(|e| cannot_write(&path, &e))?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

/// `tables`' one print loop: writes the experiments' tables and
/// reports to `out`, and returns the record documents they yield,
/// each with its path.
fn print(
    run: &TablesArgs,
    experiments: &[Experiment],
    out: &mut dyn Write,
) -> io::Result<Vec<(&'static str, Vec<u8>)>> {
    let mut documents = Vec::new();
    for experiment in experiments {
        for artifact in (experiment.run)(run.options, run.quick) {
            match artifact {
                Artifact::Text(text) => writeln!(out, "{text}\n")?,
                Artifact::Report(report) => {
                    if run.options.attribution {
                        writeln!(out, "{}\n", attribution_table(&report).render())?;
                        writeln!(out, "{}\n", gauge_table(&report).render())?;
                    }
                    if run.json {
                        writeln!(out, "{}", report.to_json())?;
                    }
                }
                Artifact::Record(path, doc) => documents.push((path, format!("{doc}\n").into())),
            }
        }
    }
    Ok(documents)
}

fn cannot_write(path: &Path, e: &io::Error) -> String {
    format!("cannot write {}: {e}", path.display())
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
        assert!(!plain.quick && !plain.json && plain.record.is_none());
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

    #[test]
    fn record_refuses_a_missing_dir_and_everything_but_jobs_and_no_snapshot() {
        for (line, problem) in [
            ("--record", "--record requires a directory"),
            ("--record --jobs 2", "--record requires a directory"),
            ("--record d --quick", "not `--quick`"),
            ("--json --record d", "not `--json`"),
            ("--record d --attribution", "not `--attribution`"),
            ("tcp --record d table2", "not `tcp`"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(problem), "{line}: {err}");
        }
        let parsed = parse("--record out/dir --jobs 2 --no-snapshot").expect("valid");
        assert_eq!(parsed.record, Some(PathBuf::from("out/dir")));
        assert!(parsed.options.jobs == 2 && !parsed.options.share_setups);
    }

    /// A group's file equals its `tables <selection...>` stdout only if
    /// it lists each experiment in print order, and an experiment in
    /// two groups would run twice.
    #[test]
    fn record_groups_name_registered_selections_once_in_registry_order() {
        let at = |s| REGISTRY.iter().position(|e| e.answers_to(s));
        let mut seen = Vec::new();
        for (_, group) in RECORD {
            let group: Option<Vec<usize>> = group.split_whitespace().map(at).collect();
            let group = group.expect("every selection is registered");
            assert!(group.windows(2).all(|w| w[0] < w[1]), "{group:?}");
            seen.extend(group);
        }
        // `--record` runs each registered experiment a group names once.
        assert_eq!(names("--record d").len(), seen.len(), "{seen:?}");
    }

    #[test]
    fn a_failure_to_write_under_the_record_directory_is_an_error() {
        // A regular file where DIR should be: nothing can be created
        // under it, and that is found out before anything runs.
        let dir = std::env::temp_dir().join(format!("tables-record-{}", std::process::id()));
        fs::write(&dir, "").expect("scratch file");
        let run = parse(&format!("--record {}", dir.display())).expect("valid");
        let err = run_tables(&run, &mut Vec::new()).unwrap_err();
        fs::remove_file(&dir).expect("scratch file");
        assert!(
            err.starts_with("cannot write") && err.contains("results"),
            "{err}"
        );
    }
}
