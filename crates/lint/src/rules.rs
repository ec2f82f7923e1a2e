//! The QPipe rule engine: R1–R4 over lexed token streams (R5, the guard
//! table, is [`crate::guards`]).
//!
//! Each rule walks the token stream produced by [`crate::lexer`] looking for
//! short, unambiguous token shapes. Findings are line-addressed; waivers
//! (`// lint:allow(rule): reason`) and `#[cfg(test)]` spans are resolved
//! here so every rule shares the same suppression semantics.

use crate::lexer::{lex, Lexed, Tok, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The rule catalog. See the crate docs for the full contract of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Panic-freedom: no `.unwrap()` / `.expect(` / `panic!` /
    /// `unreachable!` / `todo!` / `unimplemented!` in non-test engine code.
    R1,
    /// Thread hygiene: `thread::spawn` / `thread::Builder` only in the
    /// allowlisted files — new concurrency routes through `WorkerPool`.
    R2,
    /// Lock discipline: no blocking pipe/channel call (`.send(` / `.recv(` /
    /// `.wait(`) while a `.lock()` guard is live in scope, and no nested
    /// lock acquisition violating the `admit → engine group → pipe`
    /// hierarchy.
    R3,
    /// Metrics integrity: every atomic counter in `MetricsInner` must have a
    /// mutator, be driven from outside `metrics.rs`, and be surfaced in
    /// `MetricsSnapshot`.
    R4,
    /// Regression guards: no row of `.github/guards.tsv` fires
    /// ([`crate::guards`]). Takes no waiver.
    R5,
}

impl Rule {
    pub const ALL: [Rule; 5] = [Rule::R1, Rule::R2, Rule::R3, Rule::R4, Rule::R5];

    /// Parse a rule key as written in a waiver: `R1`/`panic`, `R2`/`thread`,
    /// `R3`/`lock`, `R4`/`metrics`. R5 is not one: a guard row is changed in
    /// its table, never waived at a site.
    pub fn parse(key: &str) -> Option<Rule> {
        match key.trim() {
            "R1" | "panic" => Some(Rule::R1),
            "R2" | "thread" => Some(Rule::R2),
            "R3" | "lock" => Some(Rule::R3),
            "R4" | "metrics" => Some(Rule::R4),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
        };
        f.write_str(s)
    }
}

/// One source file handed to the engine. `path` is repo-relative with
/// forward slashes (`crates/core/src/scan.rs`) — rule scoping keys off it.
pub struct SourceFile {
    pub path: String,
    pub src: String,
}

/// One diagnostic: `path:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    pub path: String,
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.path, self.line, self.rule, self.msg)
    }
}

/// Engine configuration: rule scopes and allowlists. [`Config::default`] is
/// the QPipe contract; tests construct narrower ones.
pub struct Config {
    /// Crates whose `src/` trees R1–R3 police (the engine crates — the
    /// harness crates legitimately spawn client threads and panic in tests).
    pub engine_crates: Vec<String>,
    /// Files where `thread::spawn`/`thread::Builder` is allowed (R2): all
    /// other concurrency must route through `pool.rs` (`WorkerPool`).
    pub spawn_allowlist: Vec<String>,
    /// The metrics hub file (R4); `None` disables R4 (fixture tests).
    pub metrics_file: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            engine_crates: ["common", "storage", "exec", "core"]
                .iter()
                .map(|c| format!("crates/{c}/src/"))
                .collect(),
            // The WorkerPool: every engine thread, scanners included, is
            // one of its workers.
            spawn_allowlist: vec!["crates/core/src/pool.rs".into()],
            metrics_file: Some("crates/common/src/metrics.rs".into()),
        }
    }
}

impl Config {
    fn in_engine_scope(&self, path: &str) -> bool {
        self.engine_crates.iter().any(|c| path.starts_with(c.as_str()))
    }
}

/// Run every rule over `files`, returning unwaived findings sorted by
/// (path, line). Waived findings are dropped here; a waiver whose reason is
/// empty is itself reported (a waiver must say *why*).
pub fn run(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lexed: Vec<Lexed> = files.iter().map(|f| lex(&f.src)).collect();
    for (f, lx) in files.iter().zip(&lexed) {
        let tests = test_spans(&lx.tokens);
        if cfg.in_engine_scope(&f.path) {
            rule_r1(f, lx, &tests, &mut findings);
            rule_r2(f, lx, &tests, cfg, &mut findings);
            rule_r3(f, lx, &tests, &mut findings);
        }
    }
    if let Some(mpath) = &cfg.metrics_file {
        rule_r4(files, &lexed, mpath, &mut findings);
    }
    // Apply waivers from each file's comments.
    let mut out = Vec::new();
    for finding in findings {
        let idx = files.iter().position(|f| f.path == finding.path);
        let waived = idx.is_some_and(|i| {
            waivers(&lexed[i]).iter().any(|w| w.covers(finding.rule, finding.line))
        });
        if !waived {
            out.push(finding);
        }
    }
    // Malformed waivers (no reason, or no rule that takes one) are findings
    // in their own right, filed under the rule their key names (R1 when it
    // names none).
    for (f, lx) in files.iter().zip(&lexed) {
        for c in &lx.comments {
            if let Some(rest) = c.text.trim().strip_prefix("lint:allow(") {
                let (key, tail) = rest.split_once(')').unwrap_or((rest, ""));
                let ok = Rule::parse(key).is_some()
                    && tail.trim_start().strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
                if !ok {
                    let named = Rule::parse(key)
                        .or_else(|| Rule::ALL.into_iter().find(|r| r.to_string() == key.trim()));
                    out.push(Finding {
                        rule: named.unwrap_or(Rule::R1),
                        path: f.path.clone(),
                        line: c.line,
                        msg: "malformed waiver: use `lint:allow(rule): reason` with a known \
                              rule (R1|panic, R2|thread, R3|lock, R4|metrics) and a non-empty \
                              reason"
                            .into(),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

struct Waiver {
    rule: Rule,
    line: u32,
}

impl Waiver {
    /// A waiver covers its own line (trailing comment) and the next line
    /// (comment above the violation).
    fn covers(&self, rule: Rule, line: u32) -> bool {
        self.rule == rule && (line == self.line || line == self.line + 1)
    }
}

fn waivers(lx: &Lexed) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &lx.comments {
        let Some(rest) = c.text.trim().strip_prefix("lint:allow(") else { continue };
        let Some((key, tail)) = rest.split_once(')') else { continue };
        let Some(rule) = Rule::parse(key) else { continue };
        let has_reason = tail.trim_start().strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
        if has_reason {
            out.push(Waiver { rule, line: c.line });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// #[cfg(test)] spans
// ---------------------------------------------------------------------------

/// Line ranges (inclusive) covered by `#[cfg(test)]`- or `#[test]`-gated
/// items. Computed by matching the attribute's token shape and then pairing
/// the next `{` with its closing brace; an item that ends in `;` before any
/// brace (e.g. `#[cfg(test)] use …;`) covers just its own lines.
pub(crate) fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct(b'#') && tokens.get(i + 1).is_some_and(|t| t.is_punct(b'[')) {
            // Collect the attribute body up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1u32;
            let mut attr: Vec<&Token> = Vec::new();
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct(b'[') {
                    depth += 1;
                } else if tokens[j].is_punct(b']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                attr.push(&tokens[j]);
                j += 1;
            }
            let is_test_attr = matches!(attr.first(), Some(t) if t.is_ident("test"))
                && attr.len() == 1
                || (attr.len() >= 4
                    && attr[0].is_ident("cfg")
                    && attr[1].is_punct(b'(')
                    && attr[2].is_ident("test"));
            if is_test_attr {
                let start_line = tokens[i].line;
                // Find the gated item's body: first `{` (match to close) or a
                // `;` that arrives first (no body).
                let mut k = j + 1;
                while k < tokens.len() && !tokens[k].is_punct(b'{') && !tokens[k].is_punct(b';') {
                    k += 1;
                }
                if k < tokens.len() && tokens[k].is_punct(b'{') {
                    let mut bd = 1u32;
                    let mut m = k + 1;
                    while m < tokens.len() && bd > 0 {
                        if tokens[m].is_punct(b'{') {
                            bd += 1;
                        } else if tokens[m].is_punct(b'}') {
                            bd -= 1;
                        }
                        m += 1;
                    }
                    let end_line = tokens.get(m.saturating_sub(1)).map_or(u32::MAX, |t| t.line);
                    spans.push((start_line, end_line));
                    i = m;
                    continue;
                } else if k < tokens.len() {
                    spans.push((start_line, tokens[k].line));
                    i = k + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    spans
}

pub(crate) fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

// ---------------------------------------------------------------------------
// R1 — panic-freedom
// ---------------------------------------------------------------------------

fn rule_r1(f: &SourceFile, lx: &Lexed, tests: &[(u32, u32)], out: &mut Vec<Finding>) {
    let t = &lx.tokens;
    for i in 0..t.len() {
        let (line, what) = if t[i].is_punct(b'.')
            && t.get(i + 1).is_some_and(|x| x.is_ident("unwrap"))
            && t.get(i + 2).is_some_and(|x| x.is_punct(b'('))
        {
            (t[i].line, ".unwrap()")
        } else if t[i].is_punct(b'.')
            && t.get(i + 1).is_some_and(|x| x.is_ident("expect"))
            && t.get(i + 2).is_some_and(|x| x.is_punct(b'('))
        {
            (t[i].line, ".expect(")
        } else if t.get(i + 1).is_some_and(|x| x.is_punct(b'!'))
            && ["panic", "unreachable", "todo", "unimplemented"]
                .iter()
                .any(|m| t[i].is_ident(m))
            // `foo.panic!` can't occur; but make sure this is a macro call,
            // not `!=` on an identifier named e.g. `todo`.
            && t.get(i + 2).is_some_and(|x| x.is_punct(b'(') || x.is_punct(b'[') || x.is_punct(b'{'))
        {
            (t[i].line, "panicking macro")
        } else {
            continue;
        };
        if in_spans(tests, line) {
            continue;
        }
        out.push(Finding {
            rule: Rule::R1,
            path: f.path.clone(),
            line,
            msg: format!(
                "{what} in non-test engine code — return a QError (the containment \
                 contract: every failure settles as a clean packet failure) or waive \
                 with `// lint:allow(R1): reason`"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// R2 — thread hygiene
// ---------------------------------------------------------------------------

fn rule_r2(f: &SourceFile, lx: &Lexed, tests: &[(u32, u32)], cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.spawn_allowlist.contains(&f.path) {
        return;
    }
    let t = &lx.tokens;
    for i in 0..t.len() {
        if t[i].is_ident("thread")
            && t.get(i + 1).is_some_and(|x| x.is_punct(b':'))
            && t.get(i + 2).is_some_and(|x| x.is_punct(b':'))
            && t.get(i + 3).is_some_and(|x| x.is_ident("spawn") || x.is_ident("Builder"))
        {
            let line = t[i].line;
            if in_spans(tests, line) {
                continue;
            }
            out.push(Finding {
                rule: Rule::R2,
                path: f.path.clone(),
                line,
                msg: "raw thread spawn outside the allowlist — route new concurrency \
                      through WorkerPool (pool containment: catch_unwind, abandon \
                      guards, busy accounting) or waive with `// lint:allow(R2): reason`"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R3 — lock discipline
// ---------------------------------------------------------------------------

/// Lock classes for the declared hierarchy `admit(1) → engine group(2) →
/// pipe(3)`: a lock may only be acquired while holding locks of *strictly
/// lower* rank. A file's own rank is the fallback when the receiver
/// expression doesn't name a layer (see [`receiver_rank`]).
fn lock_rank(path: &str) -> Option<u8> {
    if path.ends_with("/admit.rs") {
        Some(1)
    } else if path.ends_with("/scan.rs") || path.ends_with("/host.rs") {
        Some(2)
    } else if path.ends_with("/pipe.rs") {
        Some(3)
    } else {
        None
    }
}

/// Rank of a lock acquisition from its receiver expression: the *last*
/// identifier before `.lock()` that names a layer wins (the chain's final
/// segment owns the mutex — `self.scan_mgr.pipe.lock()` is a pipe-layer
/// lock even inside scan.rs). Falls back to the acquiring file's own rank
/// when no segment names a layer (`self.inner.lock()` in pipe.rs).
fn receiver_rank(recv: &[Token]) -> Option<u8> {
    let mut rank = None;
    for tok in recv {
        let Some(id) = tok.ident() else { continue };
        rank = if id.contains("pipe") {
            Some(3)
        } else if id.contains("group") || id.contains("host") || id.contains("scan") {
            Some(2)
        } else if id.contains("admit") || id.contains("ticket") {
            Some(1)
        } else {
            rank
        };
    }
    rank
}

struct Guard {
    name: String,
    line: u32,
    depth: usize,
    rank: Option<u8>,
}

fn rule_r3(f: &SourceFile, lx: &Lexed, tests: &[(u32, u32)], out: &mut Vec<Finding>) {
    let t = &lx.tokens;
    let rank = lock_rank(&f.path);
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < t.len() {
        let line = t[i].line;
        if t[i].is_punct(b'{') {
            depth += 1;
        } else if t[i].is_punct(b'}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
        } else if t[i].is_ident("drop")
            && t.get(i + 1).is_some_and(|x| x.is_punct(b'('))
            && t.get(i + 3).is_some_and(|x| x.is_punct(b')'))
        {
            if let Some(name) = t.get(i + 2).and_then(|x| x.ident()) {
                guards.retain(|g| g.name != name);
            }
        } else if t[i].is_ident("let") {
            // A `let`-bound `.lock()` / `.try_lock()` in this statement
            // creates a guard that lives to the end of the enclosing block.
            // The bound name is the last plain identifier before `=` that is
            // not a pattern keyword.
            let mut j = i + 1;
            let mut name: Option<&str> = None;
            while j < t.len() && !t[j].is_punct(b'=') && !t[j].is_punct(b';') {
                if let Some(id) = t[j].ident() {
                    if !matches!(id, "mut" | "Some" | "Ok" | "Err" | "ref") {
                        name = Some(id);
                    }
                }
                j += 1;
            }
            if t.get(j).is_some_and(|x| x.is_punct(b'=')) {
                // Scan the initializer for a *terminal* lock acquisition:
                // `… .lock();` / `… .try_lock() else` — the bound value IS
                // the guard. Chains that keep going (`.lock().get(…)`) hold
                // only a temporary, and block/closure initializers (`= {`,
                // `= || {`) are left to their own inner `let`s — the scan
                // stops at the first `{`. (`if let Some(g) = x.try_lock()`
                // bindings are missed by design: their guard's extent is the
                // `if` body, which this flat tracker can't bound precisely.)
                let mut k = j + 1;
                let mut locked = false;
                while k < t.len() && !t[k].is_punct(b';') && !t[k].is_punct(b'{') {
                    if (t[k].is_ident("lock") || t[k].is_ident("try_lock"))
                        && t.get(k.wrapping_sub(1)).is_some_and(|x| x.is_punct(b'.'))
                        && t.get(k + 1).is_some_and(|x| x.is_punct(b'('))
                        && t.get(k + 2).is_some_and(|x| x.is_punct(b')'))
                        && t.get(k + 3).is_some_and(|x| x.is_punct(b';') || x.is_ident("else"))
                    {
                        locked = true;
                        break;
                    }
                    k += 1;
                }
                if locked && !in_spans(tests, line) {
                    let acq_rank = receiver_rank(&t[j + 1..k]).or(rank);
                    // Nested-acquisition hierarchy check against live guards.
                    // Same-rank nesting (e.g. admission controller state →
                    // ticket state, both rank 1) is the owning layer's
                    // internal protocol; only *inversions* of the declared
                    // cross-layer order are violations.
                    if let (Some(new_rank), Some(held)) =
                        (acq_rank, guards.iter().filter_map(|g| g.rank).max())
                    {
                        if new_rank < held {
                            out.push(Finding {
                                rule: Rule::R3,
                                path: f.path.clone(),
                                line,
                                msg: format!(
                                    "nested lock acquisition inverts the declared \
                                     hierarchy admit(1) → engine group(2) → pipe(3): \
                                     acquiring rank {new_rank} while holding rank {held}"
                                ),
                            });
                        }
                    }
                    if let Some(name) = name {
                        guards.push(Guard { name: name.into(), line, depth, rank: acq_rank });
                    }
                }
                i = j;
                continue;
            }
        } else if t[i].is_punct(b'.')
            && t.get(i + 1)
                .is_some_and(|x| x.is_ident("send") || x.is_ident("recv") || x.is_ident("wait"))
            && t.get(i + 2).is_some_and(|x| x.is_punct(b'('))
            && !guards.is_empty()
            && !in_spans(tests, line)
        {
            let call = t[i + 1].ident().unwrap_or_default().to_string();
            // Condvar protocol exemption: `.wait(&mut g)` where `g` IS one
            // of the live guards is releasing that lock, not blocking under
            // it. Scan the argument tokens for a live guard name.
            let mut exempt = false;
            if call == "wait" {
                let mut k = i + 3;
                let mut pd = 1i32;
                while k < t.len() && pd > 0 {
                    if t[k].is_punct(b'(') {
                        pd += 1;
                    } else if t[k].is_punct(b')') {
                        pd -= 1;
                    } else if let Some(id) = t[k].ident() {
                        if guards.iter().any(|g| g.name == id) {
                            exempt = true;
                        }
                    }
                    k += 1;
                }
            }
            if !exempt {
                let g = &guards[guards.len() - 1];
                out.push(Finding {
                    rule: Rule::R3,
                    path: f.path.clone(),
                    line,
                    msg: format!(
                        "blocking `.{call}(` while the lock guard `{}` (taken on line {}) \
                         is still live — a full pipe here stalls every holder of that \
                         mutex, a wait the deadlock detector cannot see; drop the \
                         guard first",
                        g.name, g.line
                    ),
                });
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// R4 — metrics integrity
// ---------------------------------------------------------------------------

fn rule_r4(files: &[SourceFile], lexed: &[Lexed], mpath: &str, out: &mut Vec<Finding>) {
    let Some(mi) = files.iter().position(|f| f.path == *mpath) else {
        return; // metrics hub not in the file set (scoped fixture run)
    };
    let t = &lexed[mi].tokens;
    // 1. Atomic counter and histogram fields of MetricsInner (name, line).
    let inner_fields = struct_fields(t, "MetricsInner");
    let counters = inner_fields
        .iter()
        .filter(|(_, _, ty)| ty.iter().any(|s| s == "AtomicU64"))
        .map(|(name, line, _)| (name.clone(), *line))
        .collect::<Vec<_>>();
    let hists = inner_fields
        .iter()
        .filter(|(_, _, ty)| ty.iter().any(|s| s == "Histogram"))
        .map(|(name, line, _)| (name.clone(), *line))
        .collect::<Vec<_>>();
    // 2. Snapshot field names; histograms must surface as a
    //    `HistogramSummary` percentile field specifically.
    let snapshot_fields = struct_fields(t, "MetricsSnapshot");
    let snapshot: BTreeSet<String> = snapshot_fields.iter().map(|(n, _, _)| n.clone()).collect();
    let snapshot_hist: BTreeSet<String> = snapshot_fields
        .iter()
        .filter(|(_, _, ty)| ty.iter().any(|s| s == "HistogramSummary"))
        .map(|(n, _, _)| n.clone())
        .collect();
    // 3. Mutator methods: fn whose body does `<counter>.fetch_add/fetch_max/
    //    store` or `<histogram>.record`. Maps field -> method names.
    let mut mutators: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut cur_fn: Option<(String, usize)> = None; // (name, brace depth at body start)
    let mut depth = 0usize;
    for i in 0..t.len() {
        if t[i].is_punct(b'{') {
            depth += 1;
        } else if t[i].is_punct(b'}') {
            depth = depth.saturating_sub(1);
            if let Some((_, d)) = &cur_fn {
                if depth < *d {
                    cur_fn = None;
                }
            }
        } else if t[i].is_ident("fn") {
            if let Some(name) = t.get(i + 1).and_then(|x| x.ident()) {
                cur_fn = Some((name.to_string(), depth + 1));
            }
        } else if t.get(i + 1).is_some_and(|x| x.is_punct(b'.'))
            && t.get(i + 2).is_some_and(|x| {
                x.is_ident("fetch_add")
                    || x.is_ident("fetch_max")
                    || x.is_ident("store")
                    || x.is_ident("record")
            })
        {
            if let (Some(field), Some((fname, _))) = (t[i].ident(), &cur_fn) {
                if let Some((cname, _)) =
                    counters.iter().chain(hists.iter()).find(|(c, _)| c == field)
                {
                    let v = mutators.entry(cname.as_str()).or_default();
                    if !v.contains(fname) {
                        v.push(fname.clone());
                    }
                }
            }
        }
    }
    // 4. Method call sites outside metrics.rs: `.name(`.
    let mut called: BTreeSet<&str> = BTreeSet::new();
    for (fi, lx) in lexed.iter().enumerate() {
        if fi == mi {
            continue;
        }
        let tt = &lx.tokens;
        for i in 0..tt.len() {
            if tt[i].is_punct(b'.') && tt.get(i + 2).is_some_and(|x| x.is_punct(b'(')) {
                if let Some(id) = tt.get(i + 1).and_then(|x| x.ident()) {
                    for methods in mutators.values() {
                        if let Some(m) = methods.iter().find(|m| *m == id) {
                            called.insert(m.as_str());
                        }
                    }
                }
            }
        }
    }
    for (name, line) in &counters {
        let methods = mutators.get(name.as_str());
        match methods {
            None => out.push(Finding {
                rule: Rule::R4,
                path: mpath.to_string(),
                line: *line,
                msg: format!(
                    "counter `{name}` has no mutator method in metrics.rs — it can \
                     never move; remove it or add an `add_*`/`note_*` method"
                ),
            }),
            Some(ms) if !ms.iter().any(|m| called.contains(m.as_str())) => out.push(Finding {
                rule: Rule::R4,
                path: mpath.to_string(),
                line: *line,
                msg: format!(
                    "counter `{name}` is never driven from outside metrics.rs (its \
                     mutator{} {} has no external call site) — a dead metric reads \
                     as \"nothing happened\" on every dashboard; wire it or remove it",
                    if ms.len() == 1 { "" } else { "s" },
                    ms.join("/"),
                ),
            }),
            _ => {}
        }
        if !snapshot.contains(name.as_str()) {
            out.push(Finding {
                rule: Rule::R4,
                path: mpath.to_string(),
                line: *line,
                msg: format!(
                    "counter `{name}` is not surfaced in MetricsSnapshot — it is \
                     incremented but unreadable; add the snapshot field"
                ),
            });
        }
    }
    for (name, line) in &hists {
        let methods = mutators.get(name.as_str());
        match methods {
            None => out.push(Finding {
                rule: Rule::R4,
                path: mpath.to_string(),
                line: *line,
                msg: format!(
                    "histogram `{name}` has no record site in metrics.rs — it can \
                     never fill; remove it or add a `record_*` method"
                ),
            }),
            Some(ms) if !ms.iter().any(|m| called.contains(m.as_str())) => out.push(Finding {
                rule: Rule::R4,
                path: mpath.to_string(),
                line: *line,
                msg: format!(
                    "histogram `{name}` is never driven from outside metrics.rs (its \
                     record method{} {} has no external call site) — a dead histogram \
                     reports zero percentiles forever; wire it or remove it",
                    if ms.len() == 1 { "" } else { "s" },
                    ms.join("/"),
                ),
            }),
            _ => {}
        }
        if !snapshot_hist.contains(name.as_str()) {
            out.push(Finding {
                rule: Rule::R4,
                path: mpath.to_string(),
                line: *line,
                msg: format!(
                    "histogram `{name}` is not surfaced as a HistogramSummary \
                     percentile field in MetricsSnapshot — it is recorded but its \
                     p50/p95/p99 are unreadable; add the snapshot field"
                ),
            });
        }
    }
}

/// The named struct's fields as (name, decl line, type tokens). Parses the
/// token shape `struct <Name> { [pub] name: Type, … }`, tracking brace and
/// angle depth so nested generics don't split fields.
fn struct_fields(t: &[Token], name: &str) -> Vec<(String, u32, Vec<String>)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < t.len() {
        if t[i].is_ident("struct") && t.get(i + 1).is_some_and(|x| x.is_ident(name)) {
            // Advance to the opening brace (skipping generics).
            let mut j = i + 2;
            while j < t.len() && !t[j].is_punct(b'{') {
                j += 1;
            }
            let mut depth = 1i32;
            let mut k = j + 1;
            while k < t.len() && depth > 0 {
                if t[k].is_punct(b'{') || t[k].is_punct(b'(') || t[k].is_punct(b'<') {
                    depth += if t[k].is_punct(b'{') { 1 } else { 0 };
                }
                if t[k].is_punct(b'}') {
                    depth -= 1;
                    k += 1;
                    continue;
                }
                // A field starts at `[pub] ident :` at depth 1.
                if depth == 1 {
                    let mut f = k;
                    if t[f].is_ident("pub") {
                        f += 1;
                    }
                    if let Some(id) = t.get(f).and_then(|x| x.ident()) {
                        if t.get(f + 1).is_some_and(|x| x.is_punct(b':'))
                            && !t.get(f + 2).is_some_and(|x| x.is_punct(b':'))
                        {
                            // Type tokens run to the `,` or `}` at this depth
                            // (angle/paren nesting tracked).
                            let mut ty = Vec::new();
                            let mut m = f + 2;
                            let mut nd = 0i32;
                            while m < t.len() {
                                match &t[m].tok {
                                    Tok::Punct(b'<') | Tok::Punct(b'(') => nd += 1,
                                    Tok::Punct(b'>') | Tok::Punct(b')') => nd -= 1,
                                    Tok::Punct(b',') if nd <= 0 => break,
                                    Tok::Punct(b'}') if nd <= 0 => break,
                                    Tok::Ident(s) => ty.push(s.clone()),
                                    _ => {}
                                }
                                m += 1;
                            }
                            out.push((id.to_string(), t[f].line, ty));
                            k = m;
                            continue;
                        }
                    }
                }
                k += 1;
            }
            return out;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(path: &str, src: &str) -> Vec<Finding> {
        let cfg = Config {
            engine_crates: vec!["crates/".into()],
            spawn_allowlist: vec![],
            metrics_file: None,
        };
        run(&[SourceFile { path: path.into(), src: src.into() }], &cfg)
    }

    #[test]
    fn r1_skips_cfg_test_modules() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn g() { y.unwrap(); }\n}\n";
        let f = run_one("crates/a/src/l.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn waiver_suppresses_exactly_one_line() {
        let src = "// lint:allow(R1): boot-time invariant\nfn f() { x.unwrap(); }\nfn g() { y.unwrap(); }\n";
        let f = run_one("crates/a/src/l.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn malformed_waiver_is_a_finding() {
        let src = "// lint:allow(R1)\nfn f() {}\n";
        let f = run_one("crates/a/src/l.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("malformed waiver"));
    }
}
