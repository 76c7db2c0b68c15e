//! `cargo run -p detlint` — lint the whole workspace for the
//! determinism and unit-safety rules clippy cannot state (see the
//! library docs for the D5/D6/U1/U2 catalogue).
//!
//! Exit status: 0 when there is no finding, 1 otherwise. No finding
//! can be suppressed.
//!
//! Flags:
//!   --root <dir>    workspace root (default: two levels above this
//!                   crate's manifest, i.e. the repo root)

use detlint::lint_files;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "detlint: workspace determinism and unit-safety linter (D5, D6, U1, U2)\n\
                     usage: detlint [--root <dir>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("detlint: unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = root.unwrap_or_else(default_root);

    let mut sources = BTreeMap::new();
    collect_rs_files(&root, &root, &mut sources);
    let findings = lint_files(&sources);
    for d in &findings {
        println!("{d}");
    }
    eprintln!(
        "detlint: {} files scanned, {} finding(s)",
        sources.len(),
        findings.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The repo root: two levels above this crate's manifest dir.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Recursively reads `.rs` files, keyed by workspace-relative path,
/// skipping build output, VCS metadata, and the linter's own
/// intentionally-violating fixtures.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut BTreeMap<String, String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "fixtures") {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            match std::fs::read_to_string(&path) {
                Ok(src) => {
                    out.insert(rel, src);
                }
                Err(e) => eprintln!("detlint: skipping {rel}: {e}"),
            }
        }
    }
}
