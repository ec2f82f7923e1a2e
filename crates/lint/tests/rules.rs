//! Fixture tests for every rule: a positive (the rule fires), a negative
//! (the idiomatic shape passes) and a waiver (suppression works and demands
//! a reason) — then R5's scopes on scratch trees, every guard row fired by
//! its witness in a copy of the workspace, and the workspace itself, which
//! must have no finding.

use qpipe_lint::guards::{self, Guard, Kind};
use qpipe_lint::{run, Config, Finding, Rule, SourceFile};
use std::path::{Path, PathBuf};

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
// R5 — regression guards
// ---------------------------------------------------------------------------

#[test]
fn r5_takes_no_waiver() {
    assert_eq!(Rule::parse("R5"), None);
    let f = lint_one("crates/core/src/fix.rs", "// lint:allow(R5): the table says so\nfn a() {}\n");
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].msg.contains("malformed waiver"), "{}", f[0].msg);
}

/// A directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("qpipe-lint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn put(&self, rel: &str, content: &str) {
        let path = self.0.join(rel);
        std::fs::create_dir_all(path.parent().expect("a parent")).expect("mkdir");
        std::fs::write(path, content).expect("write");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One guard row from its six columns.
fn row(cols: [&str; 6]) -> Guard {
    let mut g = guards::parse(&cols.join("\t")).expect("a valid row");
    g.remove(0)
}

fn lines_of(findings: &[Finding]) -> Vec<(String, u32)> {
    findings.iter().map(|f| (f.path.clone(), f.line)).collect()
}

#[test]
fn r5_non_test_scope_ends_with_each_test_item() {
    // A mid-file `#[cfg(test)]` helper hides only itself: the code after it
    // is checked (a cut at the first `#[cfg(test)]` line would hide line 5).
    let tree = Scratch::new("non-test");
    tree.put(
        "src/a.rs",
        "fn a(b: B) { b.len(); }\n\
         #[cfg(test)]\n\
         fn helper(b: B) -> Vec<Row> { b.to_rows() }\n\
         \n\
         fn after(b: B) -> Vec<Row> { b.to_rows() }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn t(b: B) { b.to_rows(); }\n\
         }\n",
    );
    let g = row(["no rows", "non-test", "-nE", r"\.row\(|to_rows\(", "src/a.rs", "b.to_rows()"]);
    assert_eq!(lines_of(&g.check(&tree.0)), vec![("src/a.rs".into(), 5)]);
}

#[test]
fn r5_item_scope_ignores_the_same_text_outside_the_item() {
    let knob = ["no knob", "in-item:pub struct PoolConfig", "-niE", "prefetch", "src/a.rs", "x"];
    let knob = row(knob);
    // A `-v` row limits every line of the item; the lines around it are free.
    let only = r"pub enum Class \{|    One,|\}";
    let one = row(["one class", "in-item:pub enum Class", "-vxE", only, "src/a.rs", "    Two,"]);
    let tree = Scratch::new("item");
    tree.put(
        "src/a.rs",
        "/// A pool's prefetch is not a setting.\n\
         pub struct PoolConfig {\n\
         \x20   pub frames: usize,\n\
         }\n\
         fn prefetch(page: u64) {}\n\
         pub enum Class {\n\
         \x20   One,\n\
         }\n\
         struct Two;\n",
    );
    assert!(knob.check(&tree.0).is_empty(), "{:?}", knob.check(&tree.0));
    assert!(one.check(&tree.0).is_empty(), "{:?}", one.check(&tree.0));
    tree.put(
        "src/a.rs",
        "pub struct PoolConfig {\n\
         \x20   pub prefetch: bool,\n\
         }\n\
         pub enum Class {\n\
         \x20   One,\n\
         \x20   Two,\n\
         }\n",
    );
    assert_eq!(lines_of(&knob.check(&tree.0)), vec![("src/a.rs".into(), 2)]);
    assert_eq!(lines_of(&one.check(&tree.0)), vec![("src/a.rs".into(), 6)]);
    // A renamed item leaves its guard nothing to check: that is a finding.
    tree.put("src/a.rs", "pub struct Renamed {}\n");
    assert_eq!(lines_of(&knob.check(&tree.0)), vec![(guards::TABLE.into(), 1)]);
}

#[test]
fn r5_path_row_fires_when_the_path_exists() {
    let tree = Scratch::new("path");
    let g = row(["shim gone", "no-path", "", "", "shims/crossbeam", ""]);
    assert!(g.check(&tree.0).is_empty());
    tree.put("shims/crossbeam/Cargo.toml", "");
    assert_eq!(lines_of(&g.check(&tree.0)), vec![(guards::TABLE.into(), 1)]);
}

fn workspace_root() -> PathBuf {
    qpipe_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

/// Copy `from` into `to`, build output (`target/`) excepted.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read_dir") {
        let entry = entry.expect("entry");
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if src.is_dir() {
            if entry.file_name() != "target" {
                copy_tree(&src, &dst);
            }
        } else {
            std::fs::copy(&src, &dst).expect("copy");
        }
    }
}

/// The files a placement changed, each with its old content (`None`: new).
type Undo = Vec<(PathBuf, Option<String>)>;

fn write(undo: &mut Undo, path: PathBuf, content: String) {
    if !undo.iter().any(|(p, _)| *p == path) {
        undo.push((path.clone(), std::fs::read_to_string(&path).ok()));
    }
    std::fs::create_dir_all(path.parent().expect("a parent")).expect("mkdir");
    std::fs::write(path, content).expect("write");
}

fn append(undo: &mut Undo, path: PathBuf, text: &str) {
    let old = std::fs::read_to_string(&path).expect("an existing file");
    write(undo, path, format!("{old}\n{text}\n"));
}

/// Put `g`'s witness where its row must fire (`in_scope`), or where the
/// row must not fire: inside a `mod tests`, outside the item, in an
/// allowlisted file, or outside every guarded tree.
fn place(root: &Path, g: &Guard, in_scope: bool) -> Undo {
    let mut undo = Undo::new();
    let w = &g.witness;
    let first = root.join(&g.files(root)[0]);
    match (&g.kind, in_scope) {
        (Kind::Absent | Kind::FilesIn(_), true) if first.is_dir() => {
            write(&mut undo, first.join("guard_witness.rs"), format!("{w}\n"))
        }
        (Kind::Absent | Kind::FilesIn(_) | Kind::NonTest | Kind::Count { .. }, true) => {
            append(&mut undo, first, w)
        }
        (Kind::NonTest, false) => {
            append(&mut undo, first, &format!("#[cfg(test)]\nmod tests {{\n{w}\n}}"))
        }
        (Kind::InItem(heads), _) => {
            let (path, src, at) = g
                .files(root)
                .iter()
                .map(|f| root.join(f))
                .filter_map(|p| std::fs::read_to_string(&p).ok().map(|s| (p, s)))
                .find_map(|(p, s)| {
                    let at =
                        s.lines().position(|l| heads.iter().any(|h| l.starts_with(h.as_str())));
                    at.map(|at| (p, s, at))
                })
                .expect("the item exists");
            let mut lines: Vec<&str> = src.lines().collect();
            lines.insert(if in_scope { at + 1 } else { lines.len() }, w);
            write(&mut undo, path, lines.join("\n") + "\n");
        }
        (Kind::FilesIn(allowed), false) => append(&mut undo, root.join(&allowed[0]), w),
        (Kind::NoPath, true) => write(&mut undo, root.join(&g.paths[0]), String::new()),
        (Kind::Absent | Kind::Count { .. } | Kind::NoPath, false) => {
            write(&mut undo, root.join("guard_witness.rs"), format!("{w}\n"))
        }
    }
    undo
}

fn restore(undo: Undo) {
    for (path, old) in undo.into_iter().rev() {
        match old {
            Some(content) => std::fs::write(path, content).expect("restore"),
            None => std::fs::remove_file(path).expect("remove"),
        }
    }
}

/// Every guard is live: in a copy of the workspace, each row's witness put
/// back in scope fires that row and no other, and put just out of scope
/// fires none.
#[test]
fn every_guard_fires_on_its_witness() {
    let real = workspace_root();
    let table = guards::load(&real).expect("the guard table");
    let copy = Scratch::new("witness");
    for tree in ["crates", "src", "tests", "examples"] {
        copy_tree(&real.join(tree), &copy.0.join(tree));
    }
    let root = &copy.0;
    let fired = || -> Vec<u32> {
        table.iter().filter(|g| !g.check(root).is_empty()).map(|g| g.row).collect()
    };
    assert_eq!(fired(), Vec::<u32>::new(), "the copy starts clean");
    for g in &table {
        let undo = place(root, g, true);
        assert_eq!(
            fired(),
            vec![g.row],
            "row {} ({}) on its witness: {:?}",
            g.row,
            g.reason,
            g.check(root)
        );
        restore(undo);
        let undo = place(root, g, false);
        assert_eq!(fired(), Vec::<u32>::new(), "row {} ({}) out of scope", g.row, g.reason);
        restore(undo);
    }
}

// ---------------------------------------------------------------------------
// End-to-end over this workspace
// ---------------------------------------------------------------------------

#[test]
fn workspace_has_no_finding() {
    // The real tree with the real config and guard table must lint clean —
    // the same invariant CI enforces.
    let (_, findings) = qpipe_lint::lint_workspace(&workspace_root()).expect("lint the workspace");
    assert!(
        findings.is_empty(),
        "lint findings:\n{}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
