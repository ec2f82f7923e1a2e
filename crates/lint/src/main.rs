//! The `qpipe-lint` binary: lint the workspace (R1–R5); any finding fails.
//!
//! ```text
//! qpipe-lint [--root <dir>]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage / I/O error.

use qpipe_lint::{find_root, guards};
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
                     R1 panic-freedom, R2 thread hygiene, R3 lock discipline and R4\n\
                     metrics integrity over crates/*/src/**.rs; R5 runs every\n\
                     regression guard of {}. Fails on any finding.\n\
                     Waive a single R1-R4 finding with `// lint:allow(rule): reason`\n\
                     on the same line or the line above (rules: R1|panic, R2|thread,\n\
                     R3|lock, R4|metrics). The reason is mandatory. R5 takes no\n\
                     waiver: a guard is changed in its table.",
                    guards::TABLE
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
    let (files, findings) = match qpipe_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qpipe-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    println!("qpipe-lint: {files} file(s), {} finding(s)", findings.len());
    if findings.is_empty() {
        println!("qpipe-lint: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
