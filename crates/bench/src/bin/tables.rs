//! Regenerates every table and figure of the paper.
//!
//! ```text
//! tables                    # everything (can take a while)
//! tables table2 figure5 ... # a selection
//! tables --quick            # reduced-scale versions of the slow ones
//! tables --jobs 4           # sweep cells across 4 workers (output is
//!                           # byte-identical to --jobs 1)
//! tables --json table4      # also emit each runner's RunReport as one
//!                           # JSON line on stdout (see EXPERIMENTS.md)
//! tables --no-snapshot      # rebuild every setup cold instead of
//!                           # sharing snapshots (identical output,
//!                           # slower; CI diffs both modes)
//! tables --attribution      # trace every request and append the
//!                           # critical-path attribution and gauge
//!                           # tables to each runner's output
//! tables --record .         # rewrite the committed record at paper
//!                           # scale: results/*.txt and BENCH_*.json
//!                           # (CI diffs a fresh copy with the checkout)
//! ```
//!
//! The selections, their print order, which of them are opt-in, and
//! their paper-scale and `--quick` parameters are
//! `ipstorage_core::experiments::REGISTRY`; the command line is
//! `bench::parse_tables_args`, which exits 2 on anything it does not
//! know, and the print loop is `bench::run_tables`, whose failure to
//! write exits 1.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = bench::parse_tables_args(&args).unwrap_or_else(|problem| {
        eprintln!("{problem}");
        std::process::exit(2);
    });
    if let Err(problem) = bench::run_tables(&run, &mut std::io::stdout().lock()) {
        eprintln!("tables: {problem}");
        std::process::exit(1);
    }
}
