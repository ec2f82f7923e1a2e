//! Physical query plans.
//!
//! Both engines execute the same [`PlanNode`] trees (the paper feeds QPipe
//! "precompiled query plans ... derived from a commercial system's
//! optimizer"; our workload crate plays the optimizer's role). Plans know how
//! to produce a canonical *signature* per subtree — the encoded argument list
//! the packet dispatcher attaches to each packet so µEngines can detect
//! overlapping work with a cheap comparison (§4.3).

use crate::expr::Expr;
pub use qpipe_common::colbatch::SortKey;
use qpipe_common::trace::{OpStats, QueryProfile};
use qpipe_common::Value;
use std::sync::Arc;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// One aggregate column: `func(expr)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Ignored for `CountStar`.
    pub expr: Expr,
}

impl AggSpec {
    pub fn count_star() -> Self {
        Self { func: AggFunc::CountStar, expr: Expr::Lit(Value::Int(1)) }
    }

    pub fn sum(expr: Expr) -> Self {
        Self { func: AggFunc::Sum, expr }
    }

    pub fn min(expr: Expr) -> Self {
        Self { func: AggFunc::Min, expr }
    }

    pub fn max(expr: Expr) -> Self {
        Self { func: AggFunc::Max, expr }
    }

    pub fn avg(expr: Expr) -> Self {
        Self { func: AggFunc::Avg, expr }
    }

    pub fn count(expr: Expr) -> Self {
        Self { func: AggFunc::Count, expr }
    }
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Sequential heap scan. `ordered` means the consumer requires tuples in
    /// stored order (spike overlap); unordered scans have linear overlap.
    TableScan {
        table: String,
        predicate: Option<Expr>,
        projection: Option<Vec<usize>>,
        ordered: bool,
    },
    /// Clustered index (range) scan: the heap is sorted on `lo/hi`'s column.
    ClusteredIndexScan {
        table: String,
        lo: Option<Value>,
        hi: Option<Value>,
        predicate: Option<Expr>,
        projection: Option<Vec<usize>>,
        ordered: bool,
    },
    /// Unclustered index scan: RID-list phase then page-ordered fetch.
    UnclusteredIndexScan {
        table: String,
        column: String,
        lo: Option<Value>,
        hi: Option<Value>,
        predicate: Option<Expr>,
        projection: Option<Vec<usize>>,
    },
    /// Filter.
    ///
    /// Children are `Arc`-shared so that cloning a plan (or slicing it into
    /// packets) bumps refcounts instead of deep-copying subtrees.
    Filter { input: Arc<PlanNode>, predicate: Expr },
    /// Projection by expression list.
    Project { input: Arc<PlanNode>, exprs: Vec<Expr> },
    /// Sort (external when the input exceeds the memory budget).
    Sort { input: Arc<PlanNode>, keys: Vec<SortKey> },
    /// Aggregation; empty `group_by` = single-result aggregate (full WoP).
    Aggregate { input: Arc<PlanNode>, group_by: Vec<usize>, aggs: Vec<AggSpec> },
    /// Hybrid hash join; `left` is the build side.
    HashJoin { left: Arc<PlanNode>, right: Arc<PlanNode>, left_key: usize, right_key: usize },
    /// Merge join over key-ordered inputs.
    MergeJoin { left: Arc<PlanNode>, right: Arc<PlanNode>, left_key: usize, right_key: usize },
    /// Nested-loop join with arbitrary predicate (right side buffered).
    NestedLoopJoin { left: Arc<PlanNode>, right: Arc<PlanNode>, predicate: Expr },
}

impl PlanNode {
    pub fn scan(table: &str) -> PlanNode {
        PlanNode::TableScan {
            table: table.into(),
            predicate: None,
            projection: None,
            ordered: false,
        }
    }

    pub fn scan_filtered(table: &str, predicate: Expr) -> PlanNode {
        PlanNode::TableScan {
            table: table.into(),
            predicate: Some(predicate),
            projection: None,
            ordered: false,
        }
    }

    pub fn filter(self, predicate: Expr) -> PlanNode {
        PlanNode::Filter { input: Arc::new(self), predicate }
    }

    pub fn project(self, exprs: Vec<Expr>) -> PlanNode {
        PlanNode::Project { input: Arc::new(self), exprs }
    }

    pub fn sort(self, keys: Vec<SortKey>) -> PlanNode {
        PlanNode::Sort { input: Arc::new(self), keys }
    }

    pub fn aggregate(self, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> PlanNode {
        PlanNode::Aggregate { input: Arc::new(self), group_by, aggs }
    }

    pub fn hash_join(self, right: PlanNode, left_key: usize, right_key: usize) -> PlanNode {
        PlanNode::HashJoin { left: Arc::new(self), right: Arc::new(right), left_key, right_key }
    }

    pub fn merge_join(self, right: PlanNode, left_key: usize, right_key: usize) -> PlanNode {
        PlanNode::MergeJoin { left: Arc::new(self), right: Arc::new(right), left_key, right_key }
    }

    /// Child nodes, left to right.
    pub fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::TableScan { .. }
            | PlanNode::ClusteredIndexScan { .. }
            | PlanNode::UnclusteredIndexScan { .. } => vec![],
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Aggregate { input, .. } => vec![input],
            PlanNode::HashJoin { left, right, .. }
            | PlanNode::MergeJoin { left, right, .. }
            | PlanNode::NestedLoopJoin { left, right, .. } => vec![left, right],
        }
    }

    /// Child nodes as shared handles (refcount bumps, no subtree copies) —
    /// what the packet dispatcher slices plans apart with.
    pub fn children_shared(&self) -> Vec<Arc<PlanNode>> {
        match self {
            PlanNode::TableScan { .. }
            | PlanNode::ClusteredIndexScan { .. }
            | PlanNode::UnclusteredIndexScan { .. } => vec![],
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Aggregate { input, .. } => vec![input.clone()],
            PlanNode::HashJoin { left, right, .. }
            | PlanNode::MergeJoin { left, right, .. }
            | PlanNode::NestedLoopJoin { left, right, .. } => {
                vec![left.clone(), right.clone()]
            }
        }
    }

    /// Number of nodes in this subtree.
    pub fn node_count(&self) -> usize {
        1 + self.children().iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Names of every base table this subtree reads (sorted, deduplicated).
    pub fn tables(&self) -> Vec<String> {
        fn walk(node: &PlanNode, out: &mut Vec<String>) {
            match node {
                PlanNode::TableScan { table, .. }
                | PlanNode::ClusteredIndexScan { table, .. }
                | PlanNode::UnclusteredIndexScan { table, .. } => out.push(table.clone()),
                _ => {}
            }
            for c in node.children() {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Short operator name, matching the µEngine that will serve the node.
    pub fn op_name(&self) -> &'static str {
        match self {
            PlanNode::TableScan { .. } => "scan",
            PlanNode::ClusteredIndexScan { .. } => "iscan",
            PlanNode::UnclusteredIndexScan { .. } => "uiscan",
            PlanNode::Filter { .. } => "filter",
            PlanNode::Project { .. } => "project",
            PlanNode::Sort { .. } => "sort",
            PlanNode::Aggregate { .. } => "agg",
            PlanNode::HashJoin { .. } => "hashjoin",
            PlanNode::MergeJoin { .. } => "mergejoin",
            PlanNode::NestedLoopJoin { .. } => "nljoin",
        }
    }

    /// Canonical byte encoding of the whole subtree.
    ///
    /// Expressions are [`Expr::normalize`]d before encoding, so plans that
    /// differ only in predicate phrasing (commuted comparisons, reordered
    /// conjuncts, foldable constants) produce identical signatures — letting
    /// OSP recognize hand-built syntactic variants as
    /// the same work. Join *sides* are deliberately not canonicalized here:
    /// swapping them changes the output column layout, so that choice belongs
    /// to the planner, not the signature.
    pub fn encode_sig(&self, out: &mut Vec<u8>) {
        fn sig_expr(out: &mut Vec<u8>, e: &Expr) {
            e.normalize().encode_sig(out);
        }
        fn opt_expr(out: &mut Vec<u8>, e: &Option<Expr>) {
            match e {
                None => out.push(0),
                Some(e) => {
                    out.push(1);
                    sig_expr(out, e);
                }
            }
        }
        fn opt_val(out: &mut Vec<u8>, v: &Option<Value>) {
            match v {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.stable_hash().to_le_bytes());
                }
            }
        }
        fn proj(out: &mut Vec<u8>, p: &Option<Vec<usize>>) {
            match p {
                None => out.push(0),
                Some(cols) => {
                    out.push(1);
                    out.extend_from_slice(&(cols.len() as u32).to_le_bytes());
                    for c in cols {
                        out.extend_from_slice(&(*c as u32).to_le_bytes());
                    }
                }
            }
        }
        match self {
            PlanNode::TableScan { table, predicate, projection, ordered } => {
                out.push(20);
                out.extend_from_slice(table.as_bytes());
                out.push(0);
                opt_expr(out, predicate);
                proj(out, projection);
                out.push(*ordered as u8);
            }
            PlanNode::ClusteredIndexScan { table, lo, hi, predicate, projection, ordered } => {
                out.push(21);
                out.extend_from_slice(table.as_bytes());
                out.push(0);
                opt_val(out, lo);
                opt_val(out, hi);
                opt_expr(out, predicate);
                proj(out, projection);
                out.push(*ordered as u8);
            }
            PlanNode::UnclusteredIndexScan { table, column, lo, hi, predicate, projection } => {
                out.push(22);
                out.extend_from_slice(table.as_bytes());
                out.push(0);
                out.extend_from_slice(column.as_bytes());
                out.push(0);
                opt_val(out, lo);
                opt_val(out, hi);
                opt_expr(out, predicate);
                proj(out, projection);
            }
            PlanNode::Filter { input, predicate } => {
                out.push(23);
                sig_expr(out, predicate);
                input.encode_sig(out);
            }
            PlanNode::Project { input, exprs } => {
                out.push(24);
                out.extend_from_slice(&(exprs.len() as u32).to_le_bytes());
                for e in exprs {
                    sig_expr(out, e);
                }
                input.encode_sig(out);
            }
            PlanNode::Sort { input, keys } => {
                out.push(25);
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                for k in keys {
                    out.extend_from_slice(&(k.col as u32).to_le_bytes());
                    out.push(k.asc as u8);
                }
                input.encode_sig(out);
            }
            PlanNode::Aggregate { input, group_by, aggs } => {
                out.push(26);
                out.extend_from_slice(&(group_by.len() as u32).to_le_bytes());
                for g in group_by {
                    out.extend_from_slice(&(*g as u32).to_le_bytes());
                }
                out.extend_from_slice(&(aggs.len() as u32).to_le_bytes());
                for a in aggs {
                    out.push(a.func as u8);
                    sig_expr(out, &a.expr);
                }
                input.encode_sig(out);
            }
            PlanNode::HashJoin { left, right, left_key, right_key } => {
                out.push(27);
                out.extend_from_slice(&(*left_key as u32).to_le_bytes());
                out.extend_from_slice(&(*right_key as u32).to_le_bytes());
                left.encode_sig(out);
                right.encode_sig(out);
            }
            PlanNode::MergeJoin { left, right, left_key, right_key } => {
                out.push(28);
                out.extend_from_slice(&(*left_key as u32).to_le_bytes());
                out.extend_from_slice(&(*right_key as u32).to_le_bytes());
                left.encode_sig(out);
                right.encode_sig(out);
            }
            PlanNode::NestedLoopJoin { left, right, predicate } => {
                out.push(29);
                sig_expr(out, predicate);
                left.encode_sig(out);
                right.encode_sig(out);
            }
        }
    }

    /// Stable 64-bit signature of this subtree (FNV-1a over the canonical
    /// encoding). Two plan subtrees have the same signature iff they describe
    /// the same computation.
    pub fn signature(&self) -> u64 {
        let mut buf = Vec::with_capacity(64);
        self.encode_sig(&mut buf);
        qpipe_common::sim::fnv1a(&buf)
    }

    /// EXPLAIN-style pretty-printer: indented operator tree with per-node
    /// arguments (predicates, join keys, sort keys, aggregates) followed by
    /// the root signature OSP keys on. Join children
    /// print build side first, so the chosen join order reads top-down.
    pub fn explain(&self) -> String {
        fn walk(node: &PlanNode, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&node.describe());
            out.push('\n');
            for c in node.children() {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out.push_str(&format!("signature: {:#018x}\n", self.signature()));
        out
    }

    /// `EXPLAIN ANALYZE`-style pretty-printer: the same tree as
    /// [`PlanNode::explain`] with each operator annotated by the measured
    /// stats from a [`QueryProfile`] (obtained from `QueryHandle::profile()`
    /// with `ExecConfig::tracing` on): rows and batches produced, busy vs
    /// pipe-wait vs I/O-wait time, memory-lease denials, and — the QPipe
    /// payoff made visible — pages served by an OSP host vs read from disk.
    /// Profile nodes are matched to plan nodes positionally; operators the
    /// profile doesn't cover print `(no profile)`.
    pub fn explain_analyze(&self, profile: &QueryProfile) -> String {
        fn fmt_stats(s: &OpStats) -> String {
            let ms = |ns: u64| ns as f64 / 1e6;
            let mut out = format!(
                " (rows={} batches={} busy={:.3}ms pipe_wait={:.3}ms io_wait={:.3}ms",
                s.rows,
                s.batches,
                ms(s.busy_ns),
                ms(s.pipe_wait_ns),
                ms(s.io_wait_ns)
            );
            if s.mem_denied > 0 {
                out.push_str(&format!(" mem_denied={}", s.mem_denied));
            }
            if s.pages_from_host > 0 || s.pages_from_disk > 0 {
                out.push_str(&format!(
                    " pages[host={} disk={}]",
                    s.pages_from_host, s.pages_from_disk
                ));
            }
            out.push(')');
            out
        }
        fn walk(node: &PlanNode, prof: Option<&QueryProfile>, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&node.describe());
            match prof {
                Some(p) => out.push_str(&fmt_stats(&p.stats)),
                None => out.push_str(" (no profile)"),
            }
            out.push('\n');
            for (i, c) in node.children().iter().enumerate() {
                walk(c, prof.and_then(|p| p.children.get(i)), depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, Some(profile), 0, &mut out);
        out.push_str(&format!("signature: {:#018x}\n", self.signature()));
        out
    }

    /// One-line description of this node alone (operator + arguments), the
    /// shared vocabulary of `explain` and `explain_analyze`.
    fn describe(&self) -> String {
        fn opt_pred(p: &Option<Expr>) -> String {
            match p {
                Some(e) => format!(" pred=[{e}]"),
                None => String::new(),
            }
        }
        fn range(lo: &Option<Value>, hi: &Option<Value>) -> String {
            let b = |v: &Option<Value>| v.as_ref().map_or("-inf".into(), |v| v.to_string());
            format!(" range=[{}..{}]", b(lo), b(hi))
        }
        // What a projected scan emits; nothing for a full-width one.
        fn opt_cols(p: &Option<Vec<usize>>) -> String {
            match p {
                Some(cols) => format!(" cols={cols:?}"),
                None => String::new(),
            }
        }
        match self {
            PlanNode::TableScan { table, predicate, projection, .. } => {
                format!("scan {table}{}{}", opt_pred(predicate), opt_cols(projection))
            }
            PlanNode::ClusteredIndexScan { table, lo, hi, predicate, projection, .. } => {
                let (range, pred) = (range(lo, hi), opt_pred(predicate));
                format!("iscan {table}{range}{pred}{}", opt_cols(projection))
            }
            PlanNode::UnclusteredIndexScan { table, column, lo, hi, predicate, projection } => {
                let (range, pred) = (range(lo, hi), opt_pred(predicate));
                format!("uiscan {table}.{column}{range}{pred}{}", opt_cols(projection))
            }
            PlanNode::Filter { predicate, .. } => format!("filter [{predicate}]"),
            PlanNode::Project { exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                format!("project [{}]", cols.join(", "))
            }
            PlanNode::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("#{}{}", k.col, if k.asc { "" } else { " DESC" }))
                    .collect();
                format!("sort [{}]", ks.join(", "))
            }
            PlanNode::Aggregate { group_by, aggs, .. } => {
                let gs: Vec<String> = group_by.iter().map(|g| format!("#{g}")).collect();
                let fs: Vec<String> = aggs
                    .iter()
                    .map(|a| match a.func {
                        AggFunc::CountStar => "count(*)".into(),
                        f => format!("{}({})", format!("{f:?}").to_lowercase(), a.expr),
                    })
                    .collect();
                format!("agg group=[{}] aggs=[{}]", gs.join(", "), fs.join(", "))
            }
            PlanNode::HashJoin { left_key, right_key, .. } => {
                format!("hashjoin build.#{left_key} = probe.#{right_key}")
            }
            PlanNode::MergeJoin { left_key, right_key, .. } => {
                format!("mergejoin left.#{left_key} = right.#{right_key}")
            }
            PlanNode::NestedLoopJoin { predicate, .. } => format!("nljoin [{predicate}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q6ish(lo: i64) -> PlanNode {
        PlanNode::scan_filtered("lineitem", Expr::col(4).ge(Expr::lit(lo)))
            .aggregate(vec![], vec![AggSpec::sum(Expr::col(1).mul(Expr::col(2)))])
    }

    #[test]
    fn identical_plans_same_signature() {
        assert_eq!(q6ish(5).signature(), q6ish(5).signature());
    }

    /// Signatures key OSP windows: the hash of one
    /// hand-built plan is pinned to the value it has always had.
    #[test]
    fn signature_is_pinned() {
        assert_eq!(q6ish(5).signature(), 7_045_550_272_542_825_716);
    }

    #[test]
    fn different_predicates_different_signature() {
        assert_ne!(q6ish(5).signature(), q6ish(6).signature());
    }

    #[test]
    fn subtree_signature_differs_from_root() {
        let plan = q6ish(5);
        let child = plan.children()[0];
        assert_ne!(plan.signature(), child.signature());
    }

    #[test]
    fn node_count_and_children() {
        let j =
            PlanNode::scan("a").hash_join(PlanNode::scan("b"), 0, 0).sort(vec![SortKey::asc(0)]);
        assert_eq!(j.node_count(), 4);
        assert_eq!(j.children().len(), 1);
        assert_eq!(j.op_name(), "sort");
    }

    #[test]
    fn ordered_flag_changes_signature() {
        let a = PlanNode::TableScan {
            table: "t".into(),
            predicate: None,
            projection: None,
            ordered: false,
        };
        let mut b = a.clone();
        if let PlanNode::TableScan { ordered, .. } = &mut b {
            *ordered = true;
        }
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn tables_collects_all_scans() {
        let plan = PlanNode::scan("a")
            .hash_join(PlanNode::scan("b").merge_join(PlanNode::scan("a"), 0, 0), 0, 0)
            .sort(vec![SortKey::asc(0)]);
        assert_eq!(plan.tables(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn join_sides_not_commutative_in_signature() {
        let ab = PlanNode::scan("a").hash_join(PlanNode::scan("b"), 0, 0);
        let ba = PlanNode::scan("b").hash_join(PlanNode::scan("a"), 0, 0);
        assert_ne!(ab.signature(), ba.signature());
    }

    #[test]
    fn commuted_predicates_share_signature() {
        // `10 <= col` vs `col >= 10` and reordered AND conjuncts hash the
        // same: signatures encode the normalized expression.
        let p = Expr::col(4).ge(Expr::lit(10));
        let q = Expr::col(5).lt(Expr::lit(24));
        let a = PlanNode::scan_filtered("lineitem", Expr::and([p.clone(), q.clone()]));
        let b = PlanNode::scan_filtered("lineitem", Expr::and([q, Expr::lit(10).le(Expr::col(4))]));
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn folded_constants_share_signature() {
        let a = PlanNode::scan_filtered("lineitem", Expr::col(4).ge(Expr::lit(10)));
        let b =
            PlanNode::scan_filtered("lineitem", Expr::col(4).ge(Expr::lit(4).add(Expr::lit(6))));
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn explain_renders_tree_and_signature() {
        let plan = PlanNode::scan_filtered("lineitem", Expr::col(4).ge(Expr::lit(10)))
            .hash_join(PlanNode::scan("orders"), 0, 0)
            .sort(vec![SortKey::desc(1)]);
        let out = plan.explain();
        assert!(out.contains("sort [#1 DESC]"));
        assert!(out.contains("hashjoin build.#0 = probe.#0"));
        assert!(out.contains("scan lineitem pred=[#4 >= 10]"));
        assert!(out.contains(&format!("signature: {:#018x}", plan.signature())));
        // Indentation reflects depth: join children one level below sort.
        assert!(out.contains("\n    scan orders\n"), "a full-width scan prints no cols=");
    }

    #[test]
    fn explain_shows_what_a_projected_scan_emits() {
        let scan = |projection| PlanNode::TableScan {
            table: "part".into(),
            predicate: Some(Expr::col(2).eq(Expr::lit("TIN"))),
            projection,
            ordered: false,
        };
        let (full, pruned) = (scan(None), scan(Some(vec![0, 3])));
        assert!(pruned.explain().starts_with("scan part pred=[#2 = 'TIN'] cols=[0, 3]\n"));
        // Two plans that hash differently never print identically.
        assert_ne!(full.signature(), pruned.signature());
        assert_ne!(full.explain(), pruned.explain());
    }

    #[test]
    fn explain_analyze_annotates_matching_nodes() {
        use qpipe_common::trace::ProbeNode;
        let plan = PlanNode::scan("lineitem").aggregate(vec![], vec![AggSpec::count_star()]);
        let scan = ProbeNode::new("scan", vec![]);
        scan.probe.add_rows(600);
        scan.probe.add_batches(3);
        scan.probe.add_pages_from_host(4);
        let root = ProbeNode::new("agg", vec![scan]);
        root.probe.add_rows(1);
        root.probe.add_batches(1);
        root.probe.add_mem_denied();
        let out = plan.explain_analyze(&root.snapshot());
        assert!(out.contains("agg group=[] aggs=[count(*)] (rows=1 batches=1"));
        assert!(out.contains("mem_denied=1"));
        assert!(out.contains("scan lineitem (rows=600 batches=3"));
        assert!(out.contains("pages[host=4 disk=0]"));
        assert!(out.contains(&format!("signature: {:#018x}", plan.signature())));
    }

    #[test]
    fn explain_analyze_marks_missing_profile_nodes() {
        let plan = PlanNode::scan("a").filter(Expr::col(0).ge(Expr::lit(1)));
        // Profile with no children: the scan has no matching node.
        let lonely = qpipe_common::trace::ProbeNode::new("filter", vec![]);
        let out = plan.explain_analyze(&lonely.snapshot());
        assert!(out.contains("filter [#0 >= 1] (rows=0"));
        assert!(out.contains("scan a (no profile)"));
    }
}
