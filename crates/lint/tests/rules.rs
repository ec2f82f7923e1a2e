//! Fixture tests for every rule: a positive (the rule fires), a negative
//! (the idiomatic shape passes) and a waiver (suppression works and demands
//! a reason) — then the workspace itself, which must have no finding.

use qpipe_lint::{run, Config, Finding, Rule, SourceFile};

fn engine_cfg() -> Config {
    Config {
        engine_crates: vec!["crates/core/src/".into(), "crates/exec/src/".into()],
        spawn_allowlist: vec!["crates/core/src/pool.rs".into()],
        metrics_file: None,
    }
}

fn lint_one(path: &str, src: &str) -> Vec<Finding> {
    run(&[SourceFile { path: path.into(), src: src.into() }], &engine_cfg())
}

fn rules_of(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------------------
// R1 — panic-freedom
// ---------------------------------------------------------------------------

#[test]
fn r1_positive_all_panic_shapes() {
    let src = "fn a(x: Option<u8>) -> u8 {\n\
               \x20   let v = x.unwrap();\n\
               \x20   let w = x.expect(\"set\");\n\
               \x20   if v > w { panic!(\"boom\") }\n\
               \x20   match v { 0 => unreachable!(), 1 => todo!(), _ => unimplemented!() }\n\
               }\n";
    let f = lint_one("crates/core/src/fix.rs", src);
    assert_eq!(f.len(), 6, "unwrap, expect, and all four macros: {f:?}");
    assert!(f.iter().all(|x| x.rule == Rule::R1));
}

#[test]
fn r1_negative_out_of_scope_and_tests() {
    // Harness crates may panic freely…
    let f = lint_one("crates/workloads/src/driver.rs", "fn a() { x.unwrap(); }\n");
    assert!(f.is_empty(), "{f:?}");
    // …and so may #[cfg(test)] modules and #[test] fns inside engine crates.
    let src = "fn ok() -> u8 { 0 }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { None::<u8>.unwrap(); panic!(\"fine here\"); }\n\
               }\n";
    let f = lint_one("crates/core/src/fix.rs", src);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn r1_negative_strings_and_idents_do_not_count() {
    // `panic` in a string / a field named `todo` / `!=` are not macro calls.
    let src = "fn a(todo: u8) -> bool {\n\
               \x20   let msg = \"do not panic!(now)\";\n\
               \x20   todo != msg.len() as u8\n\
               }\n";
    let f = lint_one("crates/core/src/fix.rs", src);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn r1_waiver_needs_reason_and_covers_next_line() {
    // Trailing waiver and comment-above waiver both suppress.
    let src = "fn a(x: Option<u8>) {\n\
               \x20   x.unwrap(); // lint:allow(R1): boot invariant, config validated above\n\
               \x20   // lint:allow(panic): mirrors the line above\n\
               \x20   x.unwrap();\n\
               }\n";
    assert!(lint_one("crates/core/src/fix.rs", src).is_empty());
    // A reason-less waiver suppresses nothing and is itself reported.
    let src = "fn a(x: Option<u8>) {\n\
               \x20   // lint:allow(R1)\n\
               \x20   x.unwrap();\n\
               }\n";
    let f = lint_one("crates/core/src/fix.rs", src);
    assert_eq!(f.len(), 2, "the unwrap AND the malformed waiver: {f:?}");
    assert!(f.iter().any(|x| x.msg.contains("malformed waiver")));
}

// ---------------------------------------------------------------------------
// R2 — thread hygiene
// ---------------------------------------------------------------------------

#[test]
fn r2_positive_spawn_and_builder() {
    let src = "fn a() {\n\
               \x20   std::thread::spawn(|| {});\n\
               \x20   let b = std::thread::Builder::new();\n\
               }\n";
    let f = lint_one("crates/core/src/fix.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::R2, Rule::R2], "{f:?}");
}

#[test]
fn r2_negative_allowlisted_file() {
    let src = "fn a() { std::thread::spawn(|| {}); }\n";
    let f = lint_one("crates/core/src/pool.rs", src);
    assert!(f.is_empty(), "the WorkerPool itself may spawn: {f:?}");
}

#[test]
fn r2_waiver() {
    let src = "// lint:allow(R2): helper thread joined in Drop\n\
               fn a() { std::thread::spawn(|| {}); }\n";
    assert!(lint_one("crates/core/src/fix.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// R3 — lock discipline
// ---------------------------------------------------------------------------

#[test]
fn r3_positive_blocking_call_under_guard() {
    let src = "fn a(m: M, tx: T, rx: R) {\n\
               \x20   let g = m.lock();\n\
               \x20   tx.send(1);\n\
               \x20   rx.recv();\n\
               }\n";
    let f = lint_one("crates/core/src/fix.rs", src);
    assert_eq!(rules_of(&f), vec![Rule::R3, Rule::R3], "{f:?}");
    assert!(f[0].msg.contains("`g`"), "names the live guard: {}", f[0].msg);
}

#[test]
fn r3_negative_guard_dropped_or_scoped() {
    // Explicit drop releases the guard; a block scope does too.
    let src = "fn a(m: M, tx: T) {\n\
               \x20   let g = m.lock();\n\
               \x20   drop(g);\n\
               \x20   tx.send(1);\n\
               \x20   { let h = m.lock(); }\n\
               \x20   tx.send(2);\n\
               }\n";
    assert!(lint_one("crates/core/src/fix.rs", src).is_empty());
}

#[test]
fn r3_negative_condvar_wait_on_held_guard() {
    // `.wait(&mut g)` releases g while waiting — the condvar protocol.
    let src = "fn a(m: M, cv: C) {\n\
               \x20   let mut g = m.lock();\n\
               \x20   while !*g { cv.wait(&mut g); }\n\
               }\n";
    assert!(lint_one("crates/core/src/fix.rs", src).is_empty());
}

#[test]
fn r3_positive_hierarchy_inversion() {
    // pipe.rs holds its own lock (rank 3) and then acquires admission state
    // (receiver names `ticket` → rank 1): inverts admit → engine → pipe.
    let src = "fn a(&self, ticket: T) {\n\
               \x20   let g = self.inner.lock();\n\
               \x20   let t = ticket.state.lock();\n\
               }\n";
    let f = lint_one("crates/core/src/pipe.rs", src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].msg.contains("inverts"), "{}", f[0].msg);
}

#[test]
fn r3_negative_hierarchy_order_and_same_rank() {
    // Declared order (admit → pipe) and same-rank nesting both pass.
    let src = "fn a(&self, ticket: T, pipe: P) {\n\
               \x20   let t = ticket.state.lock();\n\
               \x20   let p = pipe.inner.lock();\n\
               }\n\
               fn b(&self, ticket: T) {\n\
               \x20   let g = self.state.lock();\n\
               \x20   let t = ticket.state.lock();\n\
               }\n";
    assert!(lint_one("crates/core/src/admit.rs", src).is_empty());
}

#[test]
fn r3_waiver() {
    let src = "fn a(m: M, tx: T) {\n\
               \x20   let g = m.lock();\n\
               \x20   // lint:allow(R3): bounded pipe is empty here by construction\n\
               \x20   tx.send(1);\n\
               }\n";
    assert!(lint_one("crates/core/src/fix.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// R4 — metrics integrity
// ---------------------------------------------------------------------------

fn metrics_fixture(extra_counter: &str, extra_snapshot: &str) -> String {
    format!(
        "struct MetricsInner {{\n\
         \x20   queries_done: AtomicU64,\n\
         {extra_counter}\
         }}\n\
         pub struct MetricsSnapshot {{\n\
         \x20   pub queries_done: u64,\n\
         {extra_snapshot}\
         }}\n\
         impl Metrics {{\n\
         \x20   pub fn add_query(&self) {{ self.inner.queries_done.fetch_add(1, O); }}\n\
         }}\n"
    )
}

fn run_metrics(hub: &str, caller: &str) -> Vec<Finding> {
    let cfg = Config {
        engine_crates: vec![],
        spawn_allowlist: vec![],
        metrics_file: Some("crates/common/src/metrics.rs".into()),
    };
    run(
        &[
            SourceFile { path: "crates/common/src/metrics.rs".into(), src: hub.into() },
            SourceFile { path: "crates/core/src/engine.rs".into(), src: caller.into() },
        ],
        &cfg,
    )
}

#[test]
fn r4_negative_wired_counter() {
    let hub = metrics_fixture("", "");
    let f = run_metrics(&hub, "fn done(m: &Metrics) { m.add_query(); }\n");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn r4_positive_counter_without_mutator() {
    let hub = metrics_fixture("    orphan: AtomicU64,\n", "    pub orphan: u64,\n");
    let f = run_metrics(&hub, "fn done(m: &Metrics) { m.add_query(); }\n");
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].rule == Rule::R4 && f[0].msg.contains("no mutator"), "{}", f[0].msg);
}

#[test]
fn r4_positive_mutator_never_called_externally() {
    let hub = metrics_fixture("", "");
    let f = run_metrics(&hub, "fn done() {}\n");
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].msg.contains("never driven from outside"), "{}", f[0].msg);
}

#[test]
fn r4_positive_counter_missing_from_snapshot() {
    let hub = "struct MetricsInner {\n\
               \x20   hidden: AtomicU64,\n\
               }\n\
               pub struct MetricsSnapshot {}\n\
               impl Metrics {\n\
               \x20   pub fn add_hidden(&self) { self.inner.hidden.fetch_add(1, O); }\n\
               }\n";
    let f = run_metrics(hub, "fn d(m: &Metrics) { m.add_hidden(); }\n");
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].msg.contains("not surfaced in MetricsSnapshot"), "{}", f[0].msg);
}

/// A metrics hub with one wired counter plus one `Histogram` field whose
/// record method and snapshot field are supplied by the caller.
fn hist_fixture(record_fn: &str, extra_snapshot: &str) -> String {
    format!(
        "struct MetricsInner {{\n\
         \x20   queries_done: AtomicU64,\n\
         \x20   wait_us: Histogram,\n\
         }}\n\
         pub struct MetricsSnapshot {{\n\
         \x20   pub queries_done: u64,\n\
         {extra_snapshot}\
         }}\n\
         impl Metrics {{\n\
         \x20   pub fn add_query(&self) {{ self.inner.queries_done.fetch_add(1, O); }}\n\
         {record_fn}\
         }}\n"
    )
}

#[test]
fn r4_negative_wired_histogram() {
    let hub = hist_fixture(
        "    pub fn record_wait(&self, us: u64) { self.inner.wait_us.record(us); }\n",
        "    pub wait_us: HistogramSummary,\n",
    );
    let f = run_metrics(&hub, "fn d(m: &Metrics) { m.add_query(); m.record_wait(5); }\n");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn r4_positive_histogram_without_record_site() {
    let hub = hist_fixture("", "    pub wait_us: HistogramSummary,\n");
    let f = run_metrics(&hub, "fn d(m: &Metrics) { m.add_query(); }\n");
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].rule == Rule::R4 && f[0].msg.contains("no record site"), "{}", f[0].msg);
}

#[test]
fn r4_positive_histogram_never_recorded_externally() {
    let hub = hist_fixture(
        "    pub fn record_wait(&self, us: u64) { self.inner.wait_us.record(us); }\n",
        "    pub wait_us: HistogramSummary,\n",
    );
    let f = run_metrics(&hub, "fn d(m: &Metrics) { m.add_query(); }\n");
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].msg.contains("never driven from outside"), "{}", f[0].msg);
}

#[test]
fn r4_positive_histogram_missing_percentile_snapshot() {
    // Surfacing the histogram as a plain integer is not enough: R4 demands a
    // `HistogramSummary` field so the percentiles are actually readable.
    let hub = hist_fixture(
        "    pub fn record_wait(&self, us: u64) { self.inner.wait_us.record(us); }\n",
        "    pub wait_us: u64,\n",
    );
    let f = run_metrics(&hub, "fn d(m: &Metrics) { m.add_query(); m.record_wait(5); }\n");
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].msg.contains("HistogramSummary"), "{}", f[0].msg);
}

// ---------------------------------------------------------------------------
// End-to-end over this workspace
// ---------------------------------------------------------------------------

#[test]
fn workspace_has_no_finding() {
    // The real tree with the real config must lint clean — the same
    // invariant CI enforces.
    let root = qpipe_lint::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let files = qpipe_lint::collect_sources(&root).expect("collect sources");
    let findings = run(&files, &Config::default());
    assert!(
        findings.is_empty(),
        "lint findings:\n{}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
