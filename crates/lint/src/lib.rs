//! `qpipe-lint` — workspace-aware static analysis that turns QPipe's
//! concurrency and containment *conventions* into build-time guarantees.
//!
//! The staged engine runs many µEngines, a shared circular scanner, an
//! admission controller, and worker pools against shared mutable state.
//! The failure-containment contract ("every query settles; no failure is
//! ever passed off as a complete result") rests on conventions — panics only
//! inside `catch_unwind` boundaries, threads only via `WorkerPool`, locks
//! never held across blocking pipe calls. This crate enforces them with
//! `cargo`, before they become flaky chaos-smoke failures: a lightweight
//! Rust-source lexer (same recursive-descent discipline as the planner's SQL
//! lexer — no external deps, works offline) feeds a rule engine that walks
//! every `crates/*/src/**/*.rs` file and emits `file:line` diagnostics,
//! exiting nonzero on any finding.
//!
//! # Rule catalog
//!
//! **R1 — panic-freedom** (`lint:allow(R1)` / `lint:allow(panic)`).
//! No `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`, or
//! `unimplemented!` in non-`#[cfg(test)]` code of the engine crates
//! (`common`, `storage`, `exec`, `core`). A panic that escapes a
//! `catch_unwind` boundary kills a worker silently; one that is caught still
//! costs a poisoned packet that *should* have been a typed `QError`.
//!
//! **R2 — thread hygiene** (`lint:allow(R2)` / `lint:allow(thread)`).
//! `thread::spawn` / `thread::Builder` are permitted only in `pool.rs`, home
//! of the `WorkerPool` — every engine thread, the scan µEngine's scanners
//! included, is one of its workers. New concurrency must route through
//! `WorkerPool`, inheriting its `catch_unwind` containment, drop guards and
//! busy accounting; a spawn anywhere else needs an inline waiver naming its
//! join story.
//!
//! **R3 — lock discipline** (`lint:allow(R3)` / `lint:allow(lock)`).
//! Two checks. (a) No blocking call — `.send(`, `.recv(`, `.wait(` — while a
//! `let`-bound `.lock()`/`.try_lock()` guard is live in scope: a full pipe
//! there stalls every other holder of the mutex — a wait outside the
//! waits-for graph, which the deadlock detector (the engine's only stall
//! resolver) can never break. `.wait(&mut g)` where `g` *is* the
//! held guard is the condvar protocol (the lock is released while waiting)
//! and is exempt. (b) Nested lock acquisitions must not *invert* the
//! declared hierarchy `admit (1) → engine group (2) → pipe (3)`. An
//! acquisition's rank comes from the last layer-naming identifier in its
//! receiver chain (`…ticket…` → 1, `…group/host/scan…` → 2, `…pipe…` → 3),
//! falling back to the acquiring file's own rank (`admit.rs`;
//! `scan.rs`/`host.rs`; `pipe.rs`); same-rank nesting (e.g. admission
//! controller state → ticket state) is the owning layer's internal
//! protocol and is not flagged.
//! The tracker is lexical (single file, `let`-bound guards, `drop(g)`
//! releases): cross-function holds and `if let` guards are out of scope —
//! it is a tripwire for the common regression, not a proof.
//!
//! **R4 — metrics integrity** (`lint:allow(R4)` / `lint:allow(metrics)`).
//! Every `AtomicU64` counter in `qpipe_common::metrics::MetricsInner` must
//! (a) have a mutator method in `metrics.rs`, (b) have that mutator called
//! somewhere *outside* `metrics.rs`, and (c) be surfaced as a field of
//! `MetricsSnapshot`. A dead counter reads as "nothing happened" on every
//! dashboard; an unreported one is write-only. Either fails the build.
//! `Histogram` fields are held to the same contract: a `record_*` method in
//! `metrics.rs` that calls `.record(`, an external caller of that method,
//! and a `HistogramSummary` percentile field in `MetricsSnapshot` — a plain
//! integer snapshot field does not count, since it cannot carry p50/p95/p99.
//!
//! **R5 — regression guards** (no waiver). Each design decision the engine
//! takes from the paper is stated once; what keeps a deleted alternative
//! from coming back is one row of `.github/guards.tsv` ([`guards`]): a
//! pattern that must stay absent from a set of paths, from their non-test
//! code, or from a named item's body (`pub struct QPipeConfig`), a path that
//! must not exist, a bounded count, or an allowlist of the files that may
//! name a pattern. The pattern and flags go to the system `grep` as
//! written; R5 supplies only the non-test and item scopes, from the same
//! lexer as R1–R4. Every row carries a witness line, and
//! `crates/lint/tests/rules.rs::every_guard_fires_on_its_witness` puts each
//! one back into a copy of the tree to show that its row, and only its row,
//! fires. A guard is changed in the table, never waived at a site.
//!
//! # Waivers
//!
//! ```text
//! // lint:allow(R1): poisoned-lock recovery is impossible here; see #42
//! ```
//!
//! A waiver suppresses findings of its rule (R1–R4) on its own line
//! (trailing comment) or the line directly below (comment above). The
//! reason is mandatory — a waiver without one, or one naming R5, is itself
//! a violation, filed under the rule its key names (R1 when the key names
//! no rule).
//!
//! # Running
//!
//! ```text
//! cargo run --release -p qpipe-lint   # any finding fails (exit 1)
//! ```

pub mod guards;
pub mod lexer;
pub mod rules;

pub use rules::{run, Config, Finding, Rule, SourceFile};

use std::path::{Path, PathBuf};

/// Lint the workspace at `root`: R1–R4 over its sources and R5 over its
/// guard table. Returns the number of source files read and every finding.
pub fn lint_workspace(root: &Path) -> Result<(usize, Vec<Finding>), String> {
    let files = collect_sources(root)
        .map_err(|e| format!("reading sources under {}: {e}", root.display()))?;
    let mut findings = run(&files, &Config::default());
    findings.extend(guards::check(root, &guards::load(root)?));
    Ok((files.len(), findings))
}

/// Collect every `crates/*/src/**/*.rs` file under `root` (sorted, paths
/// repo-relative with forward slashes). Shims and `target/` are not under
/// `crates/` and are naturally excluded.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut paths)?;
        }
    }
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push(SourceFile { path: rel, src: std::fs::read_to_string(&p)? });
    }
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Locate the workspace root: the nearest ancestor of `start` containing
/// both `Cargo.toml` and a `crates/` directory.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
