//! `hostbench` — the repo's host-time benchmark. Start at README.md;
//! run it through `run.sh`, which builds the product's `tables` binary
//! and this package in release mode first.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` measures one
//!   workload in this process — the timed pass (tracing off, the
//!   end-to-end metrics) or the traced pass (spans and drivers, the
//!   per-layer metrics) — and prints the detail document and then, as
//!   the last line, `{"correct", "attempted", "failed", "metrics"}`.
//! * without `--trace` it runs the whole benchmark: every workload (or
//!   the one named) in a fresh child process per pass, both passes,
//!   one JSON document on stdout and a table on stderr. `--selfcheck`
//!   runs the timed pass twice instead and compares the two.

mod alloc;
mod calib;
mod drivers;
mod host;
mod json;
mod pinned;
mod spans;
mod stack;
mod stats;
mod timed;
mod traced;
mod workloads;

use json::Json;
use stats::median;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// A metric's name, unit and — for end-to-end metrics — the share of
/// the parent's median by which it may worsen (BENCHMARK.json carries
/// the same numbers).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// The bounded end-to-end metrics, defined on every gated workload
/// and never 0 there. Lower is better for all. The three times are in calibrated
/// seconds (`calib.rs`); their bounds are as wide as BENCHMARK.json
/// allows because the recording host needs them (README,
/// "Steadiness").
pub const END_TO_END: [MetricDef; 6] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    MetricDef {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    MetricDef {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.10,
    },
    // Exact for a given seed; from seed to seed they differ by up to
    // 1 % on the PostMark workloads, so the bound sits above that.
    MetricDef {
        name: "allocs_per_op",
        unit: "count/op",
        bound: 0.03,
    },
    MetricDef {
        name: "alloc_bytes_per_op",
        unit: "B/op",
        bound: 0.03,
    },
];

/// How long one run measures (`run_seconds` of BENCHMARK.json, and
/// the default of `--seconds`).
pub const RUN_SECONDS: u64 = 28;

/// The directory this package lives in, from the repo root.
const HOME: &str = "crates/bench/hostbench";

/// BENCHMARK.json, generated from the same tables the passes print
/// from (`run.sh --describe`; a unit test compares the committed file).
fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let mut doc = Json::obj();
    doc.set("command", strs(&["bash", &format!("{HOME}/run.sh")]))
        .set("paths", strs(&[HOME]))
        .set("run_seconds", Json::count(RUN_SECONDS))
        .set(
            "workloads",
            Json::Arr(
                timed::SPECS
                    .iter()
                    .filter(|s| s.gated)
                    .map(|s| {
                        let mut w = Json::obj();
                        w.set("name", Json::str(s.name))
                            .set("why", Json::str(s.why));
                        w
                    })
                    .collect(),
            ),
        )
        .set(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|d| {
                        let mut m = Json::obj();
                        m.set("name", Json::str(d.name))
                            .set("unit", Json::str(d.unit))
                            .set("better", Json::str("lower"))
                            .set("bound", Json::num(d.bound));
                        m
                    })
                    .collect(),
            ),
        )
        .set(
            "per_layer",
            Json::Arr(
                traced::PER_LAYER
                    .iter()
                    .map(|(name, unit)| {
                        let better = if traced::HIGHER_IS_BETTER.contains(name) {
                            "higher"
                        } else {
                            "lower"
                        };
                        let mut m = Json::obj();
                        m.set("name", Json::str(*name))
                            .set("unit", Json::str(*unit))
                            .set("better", Json::str(better));
                        m
                    })
                    .collect(),
            ),
        );
    doc
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    selfcheck: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--seed N] [--workload W] [--seconds S] [--selfcheck] [--trace-out FILE]\n\
         \x20      run.sh --workload W --seed N --seconds S --trace 0|1\n\
         \x20      run.sh --describe\n\
         workloads: {}",
        timed::SPECS.map(|s| s.name).join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: None,
        selfcheck: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--selfcheck" => args.selfcheck = true,
            "--describe" => {
                println!("{}", benchmark_json().render());
                std::process::exit(0);
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if let Some(w) = &args.workload {
        if timed::spec(w).is_none() {
            eprintln!("hostbench: unknown workload {w}");
            usage();
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        usage();
    }
    args
}

/// `{"value": v, "unit": u}`.
pub fn metric(value: f64, unit: &str) -> Json {
    let mut m = Json::obj();
    m.set("value", Json::num(value))
        .set("unit", Json::str(unit));
    m
}

fn metric_with_range(samples: &[f64], unit: &str) -> Json {
    let mut m = metric(median(samples), unit);
    m.set("samples", Json::count(samples.len() as u64))
        .set(
            "min",
            Json::num(samples.iter().copied().fold(f64::INFINITY, f64::min)),
        )
        .set(
            "max",
            Json::num(samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        );
    m
}

/// The head every detail document starts with.
pub fn detail_head(spec: &timed::Spec, pass: &str, seed: u64, seconds: f64) -> Json {
    let mut doc = Json::obj();
    doc.set("workload", Json::str(spec.name))
        .set("pass", Json::str(pass))
        .set("unit", Json::str(spec.unit))
        .set("seed", Json::count(seed))
        .set("seconds", Json::num(seconds))
        .set("host", host::descriptor());
    doc
}

/// The `sim` object: exact simulated outputs of one unit.
pub fn sim_json(out: &workloads::UnitOut) -> Json {
    let ops = out.ops.max(1) as f64;
    let mut sim = Json::obj();
    sim.set(
        "completion_s",
        metric(out.completion_ns as f64 / 1e9, "sim_s"),
    )
    .set("msgs_per_op", metric(out.messages as f64 / ops, "count/op"))
    .set("bytes_per_op", metric(out.wire_bytes as f64 / ops, "B/op"))
    .set(
        "digest",
        Json::str(format!("{:016x}", timed::sim_digest(&out.sim))),
    );
    sim
}

pub fn paper_cells_json(out: &workloads::UnitOut) -> Json {
    Json::Arr(
        out.paper
            .iter()
            .map(|c| {
                let mut cell = Json::obj();
                cell.set("cite", Json::str(c.cite))
                    .set("simulated", Json::num(c.simulated))
                    .set("paper", Json::num(c.paper));
                cell
            })
            .collect(),
    )
}

/// The last stdout line of a single-workload run.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    let mut line = Json::obj();
    line.set("correct", Json::Bool(correct))
        .set("attempted", Json::count(attempted.max(1)))
        .set("failed", Json::count(failed))
        .set("metrics", metrics);
    line
}

/// Timed pass of one workload, in this process.
fn timed_documents(spec: &timed::Spec, seed: u64, seconds: f64) -> (Json, Json) {
    let pass = timed::run(spec.name, seed, seconds);
    let walls: Vec<f64> = pass.costs.iter().map(|c| c.wall_s).collect();
    let cpus: Vec<f64> = pass.costs.iter().map(|c| c.cpu_s).collect();
    // The gated times: each unit against the probe samples on either
    // side of it, each set-up against the run's median probe sample.
    let run_speed = calib::speed(median(&pass.probes));
    let setups_cal: Vec<f64> = pass.setups.iter().map(|s| s * run_speed).collect();
    let factors: Vec<f64> = calib::calibrate(&vec![1.0; walls.len()], &pass.probes);
    let sys: Vec<f64> = pass.costs.iter().map(|c| c.cpu_sys_s).collect();
    let faults: Vec<f64> = pass.costs.iter().map(|c| c.page_faults as f64).collect();
    let ops = pass.out.ops.max(1) as f64;
    let per_op = |pick: fn(&host::Cost) -> u64, unit: &str| {
        if !pass.in_child {
            let samples: Vec<f64> = pass.costs.iter().map(|c| pick(c) as f64 / ops).collect();
            metric_with_range(&samples, unit)
        } else {
            Json::Null
        }
    };

    let mut e2e = Json::obj();
    e2e.set("setup_s", metric_with_range(&setups_cal, "s"))
        .set(
            "wall_s",
            metric_with_range(&calib::calibrate(&walls, &pass.probes), "s"),
        )
        .set(
            "cpu_s",
            metric_with_range(&calib::calibrate(&cpus, &pass.probes), "s"),
        )
        .set("setup_raw_s", metric_with_range(&pass.setups, "s"))
        .set("wall_raw_s", metric_with_range(&walls, "s"))
        .set("cpu_raw_s", metric_with_range(&cpus, "s"))
        .set("calibration_factor", metric_with_range(&factors, "ratio"))
        .set("cpu_sys_s", metric_with_range(&sys, "s"))
        .set("page_faults", metric_with_range(&faults, "count"))
        .set("peak_rss_mb", metric(pass.peak_rss_mb, "MB"))
        .set("allocs_per_op", per_op(|c| c.allocs, "count/op"))
        .set("alloc_bytes_per_op", per_op(|c| c.alloc_bytes, "B/op"))
        .set(
            "failed_op_share",
            metric(pass.failed as f64 / pass.attempted.max(1) as f64, "ratio"),
        )
        .set(
            "paper_err",
            stats::paper_err(&pass.out.paper).map_or(Json::Null, |e| metric(e, "ln_ratio")),
        );

    let correct = pass.problems.is_empty() && pass.failed == 0;
    let mut doc = detail_head(spec, "timed", seed, seconds);
    doc.set("R", Json::count(pass.costs.len() as u64))
        .set(
            "unit_wall_s",
            Json::Arr(walls.iter().map(|w| Json::num(*w)).collect()),
        )
        .set(
            "probe_s",
            Json::Arr(pass.probes.iter().map(|p| Json::num(*p)).collect()),
        )
        .set("probe_rss_mb", Json::num(pass.probe_rss_mb))
        .set("warm_up_s", pass.warm_up_s.map_or(Json::Null, Json::num))
        .set("ops", Json::count(pass.out.ops))
        .set("end_to_end", e2e.clone())
        .set("sim", sim_json(&pass.out))
        .set("paper_cells", paper_cells_json(&pass.out))
        .set("attempted", Json::count(pass.attempted))
        .set("failed", Json::count(pass.failed))
        .set("correct", Json::Bool(correct))
        .set(
            "problems",
            Json::Arr(pass.problems.iter().map(Json::str).collect()),
        );

    let mut metrics = Json::obj();
    for def in &END_TO_END {
        // Null (the allocation counts of a workload that runs in a
        // child process) prints as 0: no gated workload has one.
        let m = e2e.get(def.name).expect("defined above");
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        metrics.set(def.name, metric(value, def.unit));
    }
    (
        doc,
        contract_line(correct, pass.attempted, pass.failed, metrics),
    )
}

/// One workload, one pass, in this process: detail document, then the
/// contract line last.
fn run_single(args: &Args, trace: bool) -> ExitCode {
    let spec = timed::spec(args.workload.as_deref().unwrap_or_else(|| usage())).expect("checked");
    let (doc, line) = if trace {
        traced::documents(spec, args.seed, args.seconds, args.trace_out.as_deref())
    } else {
        timed_documents(spec, args.seed, args.seconds)
    };
    for p in doc.get("problems").map_or(&[][..], Json::items) {
        if let Json::Str(p) = p {
            eprintln!("hostbench: {}: {p}", spec.name);
        }
    }
    println!("{}", doc.render());
    println!("{}", line.render());
    ExitCode::SUCCESS
}

/// Runs one pass of one workload in a fresh process (so `VmHWM` and
/// the allocator counters start from nothing) and parses what it
/// printed.
fn spawn_pass(args: &Args, workload: &str, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let (true, Some(path)) = (trace, &args.trace_out) {
        let path = if args.workload.is_some() {
            path.clone()
        } else {
            PathBuf::from(format!("{}.{workload}.json", path.display()))
        };
        cmd.arg("--trace-out").arg(path);
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines = text.lines().rev().filter(|l| !l.trim().is_empty());
    let line = lines.next().ok_or("child printed nothing")?;
    let doc = lines.next().ok_or("child printed no detail document")?;
    Ok((Json::parse(doc)?, Json::parse(line)?))
}

fn selected(args: &Args) -> Vec<&'static timed::Spec> {
    timed::SPECS
        .iter()
        .filter(|s| args.workload.as_deref().is_none_or(|w| w == s.name))
        .collect()
}

fn value_of(doc: &Json, section: &str, name: &str) -> Option<f64> {
    doc.get(section)?.get(name)?.get("value")?.as_f64()
}

/// The whole benchmark: timed pass then traced pass of every selected
/// workload, one document.
fn run_all(args: &Args) -> ExitCode {
    let mut violations: Vec<String> = Vec::new();
    let mut workloads = Json::obj();
    const COLUMNS: [&str; 7] = [
        "setup_s",
        "wall_s",
        "cpu_s",
        "peak_rss_mb",
        "allocs_per_op",
        "alloc_bytes_per_op",
        "paper_err",
    ];
    let row = |first: &str, cells: Vec<String>| {
        let cells: Vec<String> = cells.iter().map(|c| format!("{c:>13}")).collect();
        eprintln!("{first:<16}{}", cells.join(" "));
    };
    row(
        "workload",
        COLUMNS
            .iter()
            .map(|c| c.replace("alloc_bytes", "alloc_B"))
            .collect(),
    );
    for spec in selected(args) {
        let mut entry = Json::obj();
        entry.set("why", Json::str(spec.why));
        for (pass, trace) in [("timed", false), ("traced", true)] {
            match spawn_pass(args, spec.name, trace) {
                Ok((doc, line)) => {
                    if line.get("correct").and_then(Json::as_bool) != Some(true) {
                        violations.push(format!("{}: {pass} pass is not correct", spec.name));
                    }
                    if !trace {
                        let cells = COLUMNS.iter().map(|c| {
                            value_of(&doc, "end_to_end", c)
                                .map_or("-".to_string(), |v| format!("{v:.4}"))
                        });
                        row(spec.name, cells.collect());
                    } else {
                        traced::print_summary(spec.name, &doc);
                    }
                    entry.set(pass, doc);
                }
                Err(e) => {
                    violations.push(format!("{}: {pass} pass: {e}", spec.name));
                    entry.set(pass, Json::Null);
                }
            }
        }
        workloads.set(spec.name, entry);
    }
    let mut doc = Json::obj();
    doc.set("benchmark", Json::str("hostbench"))
        .set("claim", Json::Null)
        .set("seed", Json::count(args.seed))
        .set("seconds", Json::num(args.seconds))
        .set("host", host::descriptor())
        .set("workloads", workloads)
        .set(
            "violations",
            Json::Arr(violations.iter().map(Json::str).collect()),
        );
    println!("{}", doc.render());
    finish(&violations)
}

fn finish(violations: &[String]) -> ExitCode {
    for v in violations {
        eprintln!("hostbench: VIOLATION: {v}");
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The timed pass twice in alternation (A over every workload, then B
/// over every workload), each end-to-end metric's difference against
/// its bound. Exact metrics must agree exactly.
fn run_selfcheck(args: &Args) -> ExitCode {
    let mut violations = Vec::new();
    let specs = selected(args);
    let mut rounds: Vec<Vec<Option<Json>>> = Vec::new();
    for round in 0..2 {
        let mut docs = Vec::new();
        for spec in &specs {
            eprintln!("selfcheck: round {} of 2: {}", round + 1, spec.name);
            match spawn_pass(args, spec.name, false) {
                Ok((doc, line)) => {
                    if line.get("correct").and_then(Json::as_bool) != Some(true) {
                        violations.push(format!("{}: timed pass is not correct", spec.name));
                    }
                    docs.push(Some(doc));
                }
                Err(e) => {
                    violations.push(format!("{}: timed pass: {e}", spec.name));
                    docs.push(None);
                }
            }
        }
        rounds.push(docs);
    }
    let mut report = Json::obj();
    eprintln!(
        "{:<16} {:<20} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (i, spec) in specs.iter().enumerate() {
        let (Some(a), Some(b)) = (&rounds[0][i], &rounds[1][i]) else {
            continue;
        };
        let mut rows = Json::obj();
        // Both rounds use one seed, so the counts must repeat to the
        // last digit, whatever bound the pipeline gives them.
        let exact = [
            "allocs_per_op",
            "alloc_bytes_per_op",
            "failed_op_share",
            "paper_err",
        ];
        let bounded = END_TO_END
            .iter()
            .filter(|d| !exact.contains(&d.name))
            .map(|d| (d.name, d.bound));
        for (name, bound) in bounded.chain(exact.map(|n| (n, 0.0))) {
            let (Some(va), Some(vb)) = (
                value_of(a, "end_to_end", name),
                value_of(b, "end_to_end", name),
            ) else {
                continue;
            };
            let diff = stats::worsening(va, vb).abs();
            eprintln!(
                "{:<16} {:<20} {:>12.6} {:>12.6} {:>8.2}% {:>6.1}%",
                spec.name,
                name,
                va,
                vb,
                diff * 100.0,
                bound * 100.0
            );
            // An ungated workload's times are shown against the bound
            // but only its exact metrics can fail the check.
            if diff > bound && (spec.gated || bound == 0.0) {
                violations.push(format!(
                    "{}: {name} differs by {:.2} % between two runs of the same code (bound {:.1} %)",
                    spec.name,
                    diff * 100.0,
                    bound * 100.0
                ));
            }
            let mut row = Json::obj();
            row.set("first", Json::num(va))
                .set("second", Json::num(vb))
                .set("diff", Json::num(diff))
                .set("bound", Json::num(bound));
            rows.set(name, row);
        }
        let digest = |d: &Json| d.get("sim").and_then(|s| s.get("digest")).cloned();
        if digest(a) != digest(b) {
            violations.push(format!(
                "{}: sim.digest differs between the two runs",
                spec.name
            ));
        }
        report.set(spec.name, rows);
    }
    let mut doc = Json::obj();
    doc.set("benchmark", Json::str("hostbench --selfcheck"))
        .set("seed", Json::count(args.seed))
        .set("seconds", Json::num(args.seconds))
        .set("host", host::descriptor())
        .set("workloads", report)
        .set(
            "violations",
            Json::Arr(violations.iter().map(Json::str).collect()),
        );
    println!("{}", doc.render());
    finish(&violations)
}

fn main() -> ExitCode {
    let args = parse_args();
    match (args.trace, args.selfcheck) {
        (Some(trace), _) => run_single(&args, trace),
        (None, true) => run_selfcheck(&args),
        (None, false) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed BENCHMARK.json is what `--describe` prints.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with run.sh --describe"
        );
        assert!(text.len() <= 64 * 1024);
    }

    /// The limits BENCHMARK.json's consumer enforces.
    #[test]
    fn benchmark_json_respects_the_schema_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for s in &timed::SPECS {
            assert!(name_ok(s.name) && seen.insert(s.name), "{}", s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
        for d in &END_TO_END {
            assert!(
                name_ok(d.name) && unit_ok(d.unit) && seen.insert(d.name),
                "{}",
                d.name
            );
            assert!(d.bound > 0.0 && d.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(traced::PER_LAYER.len() <= 128);
        for (name, unit) in traced::PER_LAYER {
            assert!(
                name_ok(name) && unit_ok(unit) && seen.insert(name),
                "{name}"
            );
        }
        for name in traced::HIGHER_IS_BETTER {
            assert!(traced::PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
