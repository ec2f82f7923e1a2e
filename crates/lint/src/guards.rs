//! R5 — the regression guards: one row of [`TABLE`] per guard.
//!
//! Each row keeps a deleted alternative from coming back: a name that must
//! stay gone, a path that must not exist, a count that must stay bounded.
//! A row holds six tab-separated columns — the reason, the kind, the grep
//! flags, the pattern, the paths and a witness line the pattern matches —
//! and R5 hands the pattern and flags to the system `grep` as they stand.
//! The linter owns only the scopes grep cannot state: the non-test code of
//! a file (the lexer's `#[cfg(test)]`/`#[test]` spans) and the body of a
//! named item (brace matching). Out-of-scope lines are blanked, so grep's
//! line numbers stay the file's, and a hit on a blanked line is dropped.
//!
//! Paths are relative to the workspace root. A `*` in a path matches any
//! run of characters, `/` included (as `git ls-files` reads a pathspec), so
//! `crates/*/src/*.rs` names every `.rs` file under each crate's `src/`.

use crate::lexer::{lex, Token};
use crate::rules::{in_spans, test_spans, Finding, Rule};
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

/// The guard table, relative to the workspace root. It sits outside the
/// trees the guards search, so no row can match the table itself.
pub const TABLE: &str = ".github/guards.tsv";

/// What a row checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// `absent`: grep finds nothing in the paths (with `-r`, every file
    /// under them, not only `.rs` files).
    Absent,
    /// `non-test`: grep finds nothing in the non-test code of each file.
    NonTest,
    /// `in-item:<head>|<head>…`: grep finds nothing within the items whose
    /// tokens start with one of the heads (`pub struct QPipeConfig`), from
    /// the head to the item's closing brace or `;`. With `-v`, every line
    /// of the item must match.
    InItem(Vec<String>),
    /// `count<=N` / `count=N`: grep's `-c` count in the one path.
    Count { at_most: bool, n: usize },
    /// `files-in:<path> <path>…`: every file grep names is one of these.
    FilesIn(Vec<String>),
    /// `no-path`: the path does not exist.
    NoPath,
}

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Guard {
    /// The row's 1-based line in the table.
    pub row: u32,
    pub reason: String,
    pub kind: Kind,
    pub flags: String,
    pub pattern: String,
    pub paths: Vec<String>,
    /// A line the pattern matches; the witness test puts it back in scope.
    pub witness: String,
}

/// Parse the table: `#` lines and blank lines are skipped; every other line
/// is one row of exactly six tab-separated columns, none trimmed.
pub fn parse(table: &str) -> Result<Vec<Guard>, String> {
    let mut out = Vec::new();
    for (i, line) in table.lines().enumerate() {
        let row = i as u32 + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let [reason, kind, flags, pattern, paths, witness] = cols[..] else {
            return Err(format!("{TABLE}:{row}: {} columns, want 6", cols.len()));
        };
        let kind =
            parse_kind(kind).ok_or_else(|| format!("{TABLE}:{row}: unknown kind `{kind}`"))?;
        let paths: Vec<String> = paths.split(' ').map(String::from).collect();
        let needs_grep = kind != Kind::NoPath;
        if reason.is_empty()
            || paths.iter().any(String::is_empty)
            || (needs_grep && (flags.is_empty() || pattern.is_empty() || witness.is_empty()))
            || (matches!(kind, Kind::Count { .. } | Kind::NoPath) && paths.len() != 1)
        {
            return Err(format!("{TABLE}:{row}: a column this kind needs is empty or malformed"));
        }
        out.push(Guard {
            row,
            reason: reason.into(),
            kind,
            flags: flags.into(),
            pattern: pattern.into(),
            paths,
            witness: witness.into(),
        });
    }
    Ok(out)
}

fn parse_kind(s: &str) -> Option<Kind> {
    let words = |list: &str, sep| list.split(sep).map(String::from).collect::<Vec<_>>();
    Some(match s {
        "absent" => Kind::Absent,
        "non-test" => Kind::NonTest,
        "no-path" => Kind::NoPath,
        _ if s.starts_with("in-item:") => Kind::InItem(words(&s["in-item:".len()..], '|')),
        _ if s.starts_with("files-in:") => Kind::FilesIn(words(&s["files-in:".len()..], ' ')),
        _ if s.starts_with("count<=") => Kind::Count { at_most: true, n: s[7..].parse().ok()? },
        _ if s.starts_with("count=") => Kind::Count { at_most: false, n: s[6..].parse().ok()? },
        _ => return None,
    })
}

/// Read and parse `root`'s table.
pub fn load(root: &Path) -> Result<Vec<Guard>, String> {
    let text = std::fs::read_to_string(root.join(TABLE))
        .map_err(|e| format!("reading {}: {e}", root.join(TABLE).display()))?;
    parse(&text)
}

/// Every guard's findings over the tree at `root`, in table order.
pub fn check(root: &Path, guards: &[Guard]) -> Vec<Finding> {
    guards.iter().flat_map(|g| g.check(root)).collect()
}

impl Guard {
    /// This row's findings over the tree at `root`. A guard that cannot run
    /// — a missing path, an item not found, a grep error — is a finding too:
    /// a guard that matches nothing because its target moved guards nothing.
    pub fn check(&self, root: &Path) -> Vec<Finding> {
        let mut out = Vec::new();
        let files = self.files(root);
        if self.kind != Kind::NoPath {
            for p in &self.paths {
                if !files.iter().any(|f| glob_match(p, f)) {
                    out.push(self.at_row(format!("`{p}` names no path")));
                }
            }
        }
        match &self.kind {
            Kind::Absent => {
                let (hits, err) = self.grep(root, &["-H", "-n"], &files, None);
                out.extend(err.map(|e| self.at_row(e)));
                for hit in hits.lines() {
                    out.push(match hit.splitn(3, ':').collect::<Vec<_>>()[..] {
                        [path, line, text] => self.hit(path, line, text),
                        _ => self.at_row(format!("grep: {hit}")),
                    });
                }
            }
            Kind::NonTest | Kind::InItem(_) => out.extend(self.check_scoped(root, &files)),
            Kind::Count { at_most, n } => {
                let (count, err) = self.grep(root, &[], &files, None);
                out.extend(err.map(|e| self.at_row(e)));
                let count: usize = count.trim().parse().unwrap_or(usize::MAX);
                if (*at_most && count > *n) || (!*at_most && count != *n) {
                    let bound = if *at_most { "at most" } else { "exactly" };
                    out.push(self.at_row(format!(
                        "{} has {count} lines naming `{}`, want {bound} {n}",
                        self.paths[0], self.pattern
                    )));
                }
            }
            Kind::FilesIn(allowed) => {
                let (hits, err) = self.grep(root, &[], &files, None);
                out.extend(err.map(|e| self.at_row(e)));
                let mut named: Vec<&str> =
                    hits.lines().map(|h| h.split_once(':').map_or(h, |(p, _)| p)).collect();
                named.dedup();
                for path in named.into_iter().filter(|p| !allowed.iter().any(|a| a == p)) {
                    out.push(self.at_row(format!("{path} names `{}`", self.pattern)));
                }
            }
            Kind::NoPath => {
                if root.join(&self.paths[0]).exists() {
                    out.push(self.at_row(format!("{} exists", self.paths[0])));
                }
            }
        }
        out
    }

    /// The row's paths with every glob expanded against the tree (sorted,
    /// each once). A path with no `*` is kept only if it exists, but a
    /// `no-path` row's always is.
    pub fn files(&self, root: &Path) -> Vec<String> {
        let mut out = Vec::new();
        for p in &self.paths {
            let Some(star) = p.find('*') else {
                if root.join(p).exists() || self.kind == Kind::NoPath {
                    out.push(p.clone());
                }
                continue;
            };
            let base = &p[..p[..star].rfind('/').map_or(0, |i| i + 1)];
            let mut found = Vec::new();
            walk(root, base, &mut found);
            found.retain(|f| glob_match(p, f));
            found.sort();
            for f in found {
                if !out.contains(&f) {
                    out.push(f);
                }
            }
        }
        out
    }

    /// `non-test` and `in-item` rows: grep each file with its out-of-scope
    /// lines blanked, and keep only the hits on in-scope lines.
    fn check_scoped(&self, root: &Path, files: &[String]) -> Vec<Finding> {
        let mut out = Vec::new();
        let mut heads_found = vec![false; self.heads().len()];
        for path in files {
            let Ok(src) = std::fs::read_to_string(root.join(path)) else {
                out.push(self.at_row(format!("{path} is not a readable file")));
                continue;
            };
            let tokens = lex(&src).tokens;
            let spans = match &self.kind {
                Kind::InItem(heads) => {
                    let mut spans = Vec::new();
                    for (h, found) in heads.iter().zip(&mut heads_found) {
                        let items = item_spans(&tokens, h);
                        *found |= !items.is_empty();
                        spans.extend(items);
                    }
                    spans
                }
                _ => test_spans(&tokens),
            };
            let in_scope =
                |line: u32| in_spans(&spans, line) == matches!(self.kind, Kind::InItem(_));
            if spans.is_empty() && matches!(self.kind, Kind::InItem(_)) {
                continue;
            }
            let text: String = src
                .lines()
                .enumerate()
                .map(|(i, l)| if in_scope(i as u32 + 1) { format!("{l}\n") } else { "\n".into() })
                .collect();
            let (hits, err) = self.grep(root, &["-n"], &[], Some(&text));
            out.extend(err.map(|e| self.at_row(format!("{path}: {e}"))));
            for hit in hits.lines() {
                let Some((line, body)) = hit.split_once(':') else { continue };
                if line.parse().is_ok_and(in_scope) {
                    out.push(self.hit(path, line, body));
                }
            }
        }
        for (h, found) in self.heads().iter().zip(heads_found) {
            if !found {
                out.push(self.at_row(format!("no item `{h}` in {}", self.paths.join(" "))));
            }
        }
        out
    }

    fn heads(&self) -> &[String] {
        match &self.kind {
            Kind::InItem(heads) => heads,
            _ => &[],
        }
    }

    /// Run `grep <flags> <extra> -e <pattern> <files>` in `root`, or over
    /// `stdin` when given. Returns stdout and, on grep's error exit (2), its
    /// stderr.
    fn grep(
        &self,
        root: &Path,
        extra: &[&str],
        files: &[String],
        stdin: Option<&str>,
    ) -> (String, Option<String>) {
        let mut cmd = Command::new("grep");
        cmd.current_dir(root).arg(&self.flags).args(extra).arg("-e").arg(&self.pattern).args(files);
        cmd.stdin(if stdin.is_some() { Stdio::piped() } else { Stdio::null() });
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
        let child = cmd.spawn();
        let output = child.and_then(|mut child| {
            let input = child.stdin.take();
            std::thread::scope(|s| {
                if let (Some(mut pipe), Some(text)) = (input, stdin) {
                    // grep may exit before reading all its input: a broken
                    // pipe here is not an error, its exit status tells.
                    s.spawn(move || pipe.write_all(text.as_bytes()));
                }
                child.wait_with_output()
            })
        });
        match output {
            Ok(o) => {
                let err = (o.status.code() != Some(0) && o.status.code() != Some(1)).then(|| {
                    format!(
                        "grep failed ({}): {}",
                        o.status,
                        String::from_utf8_lossy(&o.stderr).trim()
                    )
                });
                (String::from_utf8_lossy(&o.stdout).into_owned(), err)
            }
            Err(e) => (String::new(), Some(format!("cannot run grep: {e}"))),
        }
    }

    /// A finding located at this row of the table.
    fn at_row(&self, detail: String) -> Finding {
        Finding {
            rule: Rule::R5,
            path: TABLE.into(),
            line: self.row,
            msg: format!("{}: {detail}", self.reason),
        }
    }

    /// A grep hit on `path:line`.
    fn hit(&self, path: &str, line: &str, text: &str) -> Finding {
        Finding {
            rule: Rule::R5,
            path: path.into(),
            line: line.parse().unwrap_or(0),
            msg: format!(
                "{}: `{}` matches `{}` ({TABLE}:{})",
                self.reason,
                text.trim(),
                self.pattern,
                self.row
            ),
        }
    }
}

/// The line spans of every item whose tokens start with `head`'s tokens:
/// from the head to the `;` at nesting depth 0 or to the close of the first
/// `{` at depth 0.
fn item_spans(tokens: &[Token], head: &str) -> Vec<(u32, u32)> {
    let head: Vec<Token> = lex(head).tokens;
    let mut out = Vec::new();
    if head.is_empty() {
        return out;
    }
    for start in 0..tokens.len() {
        let matches = tokens[start..].len() >= head.len()
            && tokens[start..start + head.len()].iter().zip(&head).all(|(a, b)| a.tok == b.tok);
        if !matches {
            continue;
        }
        let mut depth = 0i32;
        let mut end = tokens.len() - 1;
        for (k, t) in tokens.iter().enumerate().skip(start + head.len()) {
            if t.is_punct(b'(') || t.is_punct(b'[') || t.is_punct(b'{') {
                depth += 1;
            } else if t.is_punct(b')') || t.is_punct(b']') || t.is_punct(b'}') {
                depth -= 1;
                if depth == 0 && t.is_punct(b'}') {
                    end = k;
                    break;
                }
            } else if depth == 0 && t.is_punct(b';') {
                end = k;
                break;
            }
        }
        out.push((tokens[start].line, tokens[end].line));
    }
    out
}

/// Every file and directory under `root/base` (relative to `root`), build
/// output (`target/`) excepted.
fn walk(root: &Path, base: &str, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(root.join(base)) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = format!("{base}{name}");
        if entry.path().is_dir() {
            if name != "target" {
                walk(root, &format!("{rel}/"), out);
                out.push(rel);
            }
        } else {
            out.push(rel);
        }
    }
}

/// Does `path` match `pat`, where `*` matches any run of characters?
fn glob_match(pat: &str, path: &str) -> bool {
    fn go(p: &[u8], s: &[u8]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some((b'*', rest)) => (0..=s.len()).any(|i| go(rest, &s[i..])),
            Some((c, rest)) => s.first() == Some(c) && go(rest, &s[1..]),
        }
    }
    go(pat.as_bytes(), path.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_crosses_directories_as_a_pathspec_does() {
        assert!(glob_match("crates/*/src/*.rs", "crates/core/src/scan.rs"));
        assert!(glob_match("crates/*/src/*.rs", "crates/exec/src/iter/mod.rs"));
        assert!(glob_match("crates/*/src", "crates/core/src"));
        assert!(!glob_match("crates/*/src/*.rs", "crates/core/tests/a.rs"));
    }

    #[test]
    fn an_item_ends_at_its_brace_or_its_semicolon() {
        let src = "pub const N: [&str; 2] =\n    [\"a\", \"b\"];\nfn f() {}\n\
                   pub struct S {\n    a: u8,\n}\nstruct T;\n";
        let t = lex(src).tokens;
        assert_eq!(item_spans(&t, "pub const N"), vec![(1, 2)]);
        assert_eq!(item_spans(&t, "pub struct S"), vec![(4, 6)]);
        assert_eq!(item_spans(&t, "pub struct X"), vec![]);
    }

    #[test]
    fn a_row_needs_six_columns_and_a_known_kind() {
        assert!(parse("r\tabsent\t-nE\tx\tsrc\tx\n").is_ok());
        assert!(parse("r\tabsent\t-nE\tx\tsrc\n").is_err());
        assert!(parse("r\tsometimes\t-nE\tx\tsrc\tx\n").is_err());
        assert!(parse("r\tcount<=1\t-c\tx\ta b\tx\n").is_err(), "a count reads one file");
        assert!(parse("# comment\n\nr\tno-path\t\t\tshims/x\t\n").is_ok());
    }
}
