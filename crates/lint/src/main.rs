//! The `qpipe-lint` binary: lint the workspace; any finding fails.
//!
//! ```text
//! qpipe-lint [--root <dir>]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage / I/O error.

use qpipe_lint::{collect_sources, find_root, Config};
use std::path::PathBuf;
use std::process::ExitCode;

/// The `--root` argument, if given.
fn parse_args() -> Result<Option<PathBuf>, String> {
    let mut root = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => root = Some(it.next().ok_or("--root needs a value")?.into()),
            "--help" | "-h" => {
                println!(
                    "qpipe-lint: enforce QPipe's concurrency & containment conventions\n\
                     \n\
                     USAGE: qpipe-lint [--root <dir>]\n\
                     \n\
                     Fails on any finding. Waive a single finding with\n\
                     `// lint:allow(rule): reason` on the same line or the line above\n\
                     (rules: R1|panic, R2|thread, R3|lock, R4|metrics). The reason is\n\
                     mandatory."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_args() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("qpipe-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = root.or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d)))
    else {
        eprintln!("qpipe-lint: no workspace root found (run inside the repo or pass --root)");
        return ExitCode::from(2);
    };
    let files = match collect_sources(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("qpipe-lint: reading sources under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let findings = qpipe_lint::run(&files, &Config::default());
    for f in &findings {
        println!("{f}");
    }
    println!("qpipe-lint: {} file(s), {} finding(s)", files.len(), findings.len());
    if findings.is_empty() {
        println!("qpipe-lint: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
