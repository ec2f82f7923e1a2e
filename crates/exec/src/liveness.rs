//! Column liveness: push each plan's *required columns* into its scans.
//!
//! Plan producers build scans at full table width and put one `Project` /
//! `Aggregate` on top, so without this rewrite every join copies every column
//! of both inputs for every match although the plan reads a handful of them
//! (TPC-H Q8 joins its way up to 34 columns and reads 3). [`prune_columns`]
//! is the classical π-below-⋈ move: walking from the root with "every output
//! column is required", each node tells its child what it needs —
//!
//! * `Filter` / `Sort`: the parent's set ∪ the predicate's / key columns;
//! * `Project` / `Aggregate`: exactly the columns their expressions and
//!   `group_by` name (their own outputs all stay);
//! * `HashJoin` / `MergeJoin` / `NestedLoopJoin`: the parent's set split at
//!   the left child's width, ∪ the join key (or predicate columns) per side;
//! * every scan leaf gets `projection: Some(required)` — ascending, composed
//!   with a projection it already had. A scan predicate reads *table*
//!   columns, so it is untouched.
//!
//! On the way back up each node re-indexes its expressions, keys, `group_by`
//! and sort keys through the child's old→new column map. No node is added or
//! removed, so the rewritten plan has the submitted plan's shape, and the
//! root's output is identical by construction (the root requires everything,
//! so its map is the identity).
//!
//! Corner cases: a scan that needs all its columns is left as it is
//! (`projection: None` keeps the staged engine's "unfiltered consumer gets the
//! pool-resident batch outright" path); a scan of which nothing is required
//! (`COUNT(*)`) keeps one column, preferably one its predicate reads anyway;
//! and a plan the rewrite cannot size — unknown table, or any column index
//! past a node's width — is returned untouched, so it behaves exactly as it
//! did before the rewrite existed.
//!
//! The staged engine calls this once per submission (`QPipe::submit`);
//! `exec::iter::run` executes whatever plan it is handed, which makes every
//! staged-vs-iterator parity suite a differential test of this module.

use crate::expr::Expr;
use crate::plan::{AggSpec, PlanNode, SortKey};
use std::sync::Arc;

/// Resolves a table name to its column count (`None`: no such table).
pub type TableWidth<'a> = &'a dyn Fn(&str) -> Option<usize>;

impl PlanNode {
    /// Number of columns this node emits, `None` under an unknown table.
    pub fn width(&self, table_width: TableWidth) -> Option<usize> {
        match self {
            PlanNode::TableScan { table, projection, .. }
            | PlanNode::ClusteredIndexScan { table, projection, .. }
            | PlanNode::UnclusteredIndexScan { table, projection, .. } => match projection {
                Some(p) => Some(p.len()),
                None => table_width(table),
            },
            PlanNode::Filter { input, .. } | PlanNode::Sort { input, .. } => {
                input.width(table_width)
            }
            PlanNode::Project { exprs, .. } => Some(exprs.len()),
            PlanNode::Aggregate { group_by, aggs, .. } => Some(group_by.len() + aggs.len()),
            PlanNode::HashJoin { left, right, .. }
            | PlanNode::MergeJoin { left, right, .. }
            | PlanNode::NestedLoopJoin { left, right, .. } => {
                Some(left.width(table_width)? + right.width(table_width)?)
            }
        }
    }
}

/// Rewrite `plan` so that only live columns leave its scans (module docs).
/// Output rows, column order and plan shape are unchanged; a plan that cannot
/// be sized comes back untouched.
pub fn prune_columns(plan: PlanNode, table_width: TableWidth) -> PlanNode {
    let Some(width) = plan.width(table_width) else { return plan };
    let all: Vec<usize> = (0..width).collect();
    match prune(&plan, &all, table_width) {
        Some((pruned, kept)) if kept == all => pruned,
        _ => plan,
    }
}

/// A rewritten node and the ascending list of its *old* output columns that
/// survive: new column `i` is old column `kept[i]`.
type Pruned = (PlanNode, Vec<usize>);

/// Rewrite `node` to emit a superset of `required` (ascending, deduplicated
/// indices into its current output). `None`: cannot be sized, give up.
fn prune(node: &PlanNode, required: &[usize], tw: TableWidth) -> Option<Pruned> {
    Some(match node {
        PlanNode::TableScan { table, predicate, projection, .. }
        | PlanNode::ClusteredIndexScan { table, predicate, projection, .. }
        | PlanNode::UnclusteredIndexScan { table, predicate, projection, .. } => {
            let (live, kept) = prune_scan(table, predicate, projection, required, tw)?;
            let mut scan = node.clone();
            if let PlanNode::TableScan { projection, .. }
            | PlanNode::ClusteredIndexScan { projection, .. }
            | PlanNode::UnclusteredIndexScan { projection, .. } = &mut scan
            {
                *projection = live;
            }
            (scan, kept)
        }
        PlanNode::Filter { input, predicate } => {
            let (input, kept) = prune(input, &with_cols(required, expr_cols(predicate)), tw)?;
            let predicate = reindex(predicate, &kept)?;
            (PlanNode::Filter { input: Arc::new(input), predicate }, kept)
        }
        PlanNode::Sort { input, keys } => {
            let key_cols = keys.iter().map(|k| k.col).collect();
            let (input, kept) = prune(input, &with_cols(required, key_cols), tw)?;
            let keys = keys
                .iter()
                .map(|k| Some(SortKey { col: position(&kept, k.col)?, asc: k.asc }))
                .collect::<Option<_>>()?;
            (PlanNode::Sort { input: Arc::new(input), keys }, kept)
        }
        PlanNode::Project { input, exprs } => {
            in_range(required, exprs.len())?;
            let cols = exprs.iter().flat_map(expr_cols).collect();
            let (input, kept) = prune(input, &with_cols(&[], cols), tw)?;
            let exprs: Vec<Expr> =
                exprs.iter().map(|e| reindex(e, &kept)).collect::<Option<_>>()?;
            let outputs = (0..exprs.len()).collect();
            (PlanNode::Project { input: Arc::new(input), exprs }, outputs)
        }
        PlanNode::Aggregate { input, group_by, aggs } => {
            let outputs: Vec<usize> = (0..group_by.len() + aggs.len()).collect();
            in_range(required, outputs.len())?;
            let mut cols = group_by.clone();
            cols.extend(aggs.iter().flat_map(|a| expr_cols(&a.expr)));
            let (input, kept) = prune(input, &with_cols(&[], cols), tw)?;
            let group_by = group_by.iter().map(|&g| position(&kept, g)).collect::<Option<_>>()?;
            let aggs = aggs
                .iter()
                .map(|a| Some(AggSpec { func: a.func, expr: reindex(&a.expr, &kept)? }))
                .collect::<Option<_>>()?;
            (PlanNode::Aggregate { input: Arc::new(input), group_by, aggs }, outputs)
        }
        PlanNode::HashJoin { left, right, left_key, right_key }
        | PlanNode::MergeJoin { left, right, left_key, right_key } => {
            let sides = (left.as_ref(), left.width(tw)?, right.as_ref());
            let join = prune_join(sides, required, vec![*left_key], vec![*right_key], tw)?;
            let left_key = position(&join.left_kept, *left_key)?;
            let right_key = position(&join.right_kept, *right_key)?;
            let (left, right) = (Arc::new(join.left), Arc::new(join.right));
            let node = match node {
                PlanNode::HashJoin { .. } => {
                    PlanNode::HashJoin { left, right, left_key, right_key }
                }
                _ => PlanNode::MergeJoin { left, right, left_key, right_key },
            };
            (node, join.kept)
        }
        PlanNode::NestedLoopJoin { left, right, predicate } => {
            let left_width = left.width(tw)?;
            let (left_cols, right_cols): (Vec<usize>, Vec<usize>) =
                expr_cols(predicate).into_iter().partition(|&c| c < left_width);
            let right_cols = right_cols.into_iter().map(|c| c - left_width).collect();
            let sides = (left.as_ref(), left_width, right.as_ref());
            let join = prune_join(sides, required, left_cols, right_cols, tw)?;
            let node = PlanNode::NestedLoopJoin {
                predicate: reindex(predicate, &join.kept)?,
                left: Arc::new(join.left),
                right: Arc::new(join.right),
            };
            (node, join.kept)
        }
    })
}

/// A scan's new projection and the surviving positions of its old output.
fn prune_scan(
    table: &str,
    predicate: &Option<Expr>,
    projection: &Option<Vec<usize>>,
    required: &[usize],
    tw: TableWidth,
) -> Option<(Option<Vec<usize>>, Vec<usize>)> {
    let table_width = tw(table)?;
    let pred_cols = predicate.as_ref().map(expr_cols).unwrap_or_default();
    in_range(&pred_cols, table_width)?;
    in_range(projection.as_deref().unwrap_or(&[]), table_width)?;
    let width = projection.as_ref().map_or(table_width, Vec::len);
    in_range(required, width)?;
    // The table column behind output position `i`.
    let source = |i: usize| projection.as_ref().map_or(i, |p| p[i]);
    let kept: Vec<usize> = if !required.is_empty() {
        required.to_vec()
    } else {
        // Nothing is read (`COUNT(*)`): zero-column batches are not worth
        // proving end to end, so keep one column — one the predicate decodes
        // anyway when there is such a one.
        let free = (0..width).find(|&i| pred_cols.contains(&source(i)));
        free.or((width > 0).then_some(0)).into_iter().collect()
    };
    if kept.len() == width {
        return Some((projection.clone(), kept));
    }
    Some((Some(kept.iter().map(|&i| source(i)).collect()), kept))
}

struct PrunedJoin {
    left: PlanNode,
    right: PlanNode,
    left_kept: Vec<usize>,
    right_kept: Vec<usize>,
    /// Surviving columns of the join's old `left ++ right` output.
    kept: Vec<usize>,
}

/// Split `required` at `left_width`, add each side's own columns
/// (join key or predicate columns, child-relative), and prune both children.
fn prune_join(
    (left, left_width, right): (&PlanNode, usize, &PlanNode),
    required: &[usize],
    left_cols: Vec<usize>,
    right_cols: Vec<usize>,
    tw: TableWidth,
) -> Option<PrunedJoin> {
    in_range(&left_cols, left_width)?;
    let split = required.partition_point(|&c| c < left_width);
    let right_required: Vec<usize> = required[split..].iter().map(|c| c - left_width).collect();
    let (left, left_kept) = prune(left, &with_cols(&required[..split], left_cols), tw)?;
    let (right, right_kept) = prune(right, &with_cols(&right_required, right_cols), tw)?;
    let kept = left_kept.iter().copied().chain(right_kept.iter().map(|c| c + left_width)).collect();
    Some(PrunedJoin { left, right, left_kept, right_kept, kept })
}

fn expr_cols(e: &Expr) -> Vec<usize> {
    let mut cols = Vec::new();
    e.collect_cols(&mut cols);
    cols
}

/// `required ∪ extra`, ascending and deduplicated.
fn with_cols(required: &[usize], mut extra: Vec<usize>) -> Vec<usize> {
    extra.extend_from_slice(required);
    extra.sort_unstable();
    extra.dedup();
    extra
}

/// `Some(())` iff every column index is below `width`.
fn in_range(cols: &[usize], width: usize) -> Option<()> {
    cols.iter().all(|&c| c < width).then_some(())
}

/// The new index of old column `col`.
fn position(kept: &[usize], col: usize) -> Option<usize> {
    kept.binary_search(&col).ok()
}

/// `e` with every column reference moved to its new index; `None` if it names
/// a column that did not survive (the caller asked for all of them, so this
/// means the plan was mis-sized — give up rather than mis-index).
fn reindex(e: &Expr, kept: &[usize]) -> Option<Expr> {
    expr_cols(e).iter().all(|&c| position(kept, c).is_some()).then_some(())?;
    Some(e.map_cols(&|c| position(kept, c).unwrap_or(c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::Value;

    /// `t`: 5 columns, `u`: 3 columns; nothing else exists.
    fn widths(table: &str) -> Option<usize> {
        match table {
            "t" => Some(5),
            "u" => Some(3),
            _ => None,
        }
    }

    fn scan_of(table: &str, predicate: Option<Expr>, projection: Option<Vec<usize>>) -> PlanNode {
        PlanNode::TableScan { table: table.into(), predicate, projection, ordered: false }
    }

    /// Each scan's `(table, projection)`, left to right.
    fn scans(plan: &PlanNode) -> Vec<(String, Option<Vec<usize>>)> {
        match plan {
            PlanNode::TableScan { table, projection, .. }
            | PlanNode::ClusteredIndexScan { table, projection, .. }
            | PlanNode::UnclusteredIndexScan { table, projection, .. } => {
                vec![(table.clone(), projection.clone())]
            }
            _ => plan.children().into_iter().flat_map(scans).collect(),
        }
    }

    fn pruned(plan: &PlanNode) -> PlanNode {
        let out = prune_columns(plan.clone(), &widths);
        assert_eq!(out.width(&widths), plan.width(&widths), "root width is unchanged");
        assert_eq!(out.node_count(), plan.node_count(), "no node added or removed");
        assert_eq!(prune_columns(out.clone(), &widths), out, "the rewrite is idempotent");
        out
    }

    #[test]
    fn join_reads_reach_the_scans_and_keys_follow_the_columns() {
        // t(5) ⋈ u(3) on t.#3 = u.#1, then SUM(u.#2) GROUP BY t.#1.
        let plan = PlanNode::scan("t")
            .hash_join(PlanNode::scan("u"), 3, 1)
            .aggregate(vec![1], vec![AggSpec::sum(Expr::col(5 + 2))]);
        let want = scan_of("t", None, Some(vec![1, 3]))
            .hash_join(scan_of("u", None, Some(vec![1, 2])), 1, 0)
            .aggregate(vec![0], vec![AggSpec::sum(Expr::col(2 + 1))]);
        assert_eq!(pruned(&plan), want);
        // The same through a merge join.
        let plan = PlanNode::scan("t")
            .merge_join(PlanNode::scan("u"), 3, 1)
            .aggregate(vec![1], vec![AggSpec::sum(Expr::col(5 + 2))]);
        let want = scan_of("t", None, Some(vec![1, 3]))
            .merge_join(scan_of("u", None, Some(vec![1, 2])), 1, 0)
            .aggregate(vec![0], vec![AggSpec::sum(Expr::col(2 + 1))]);
        assert_eq!(pruned(&plan), want);
    }

    #[test]
    fn filter_sort_and_nested_loop_columns_are_required_and_reindexed() {
        let nlj = PlanNode::NestedLoopJoin {
            left: Arc::new(PlanNode::scan("t")),
            right: Arc::new(PlanNode::scan("u")),
            predicate: Expr::col(4).lt(Expr::col(5 + 1)),
        };
        let plan = nlj
            .filter(Expr::col(2).ge(Expr::lit(7)))
            .sort(vec![SortKey::desc(5)])
            .project(vec![Expr::col(0)]);
        // Left needs {0 project, 2 filter, 4 join}; right {0 sort, 1 join}.
        let want = PlanNode::NestedLoopJoin {
            left: Arc::new(scan_of("t", None, Some(vec![0, 2, 4]))),
            right: Arc::new(scan_of("u", None, Some(vec![0, 1]))),
            predicate: Expr::col(2).lt(Expr::col(3 + 1)),
        }
        .filter(Expr::col(1).ge(Expr::lit(7)))
        .sort(vec![SortKey::desc(3)])
        .project(vec![Expr::col(0)]);
        assert_eq!(pruned(&plan), want);
    }

    #[test]
    fn count_star_keeps_exactly_one_column_and_prefers_a_predicate_column() {
        let count = |scan: PlanNode| scan.aggregate(vec![], vec![AggSpec::count_star()]);
        let filtered = count(PlanNode::scan_filtered("t", Expr::col(3).ge(Expr::lit(1))));
        assert_eq!(scans(&pruned(&filtered)), [("t".into(), Some(vec![3]))]);
        let unfiltered = count(PlanNode::scan("t"));
        assert_eq!(scans(&pruned(&unfiltered)), [("t".into(), Some(vec![0]))]);
        // Through an existing projection: position 1 holds predicate column 3.
        let pred = Some(Expr::col(3).ge(Expr::lit(1)));
        let projected = count(scan_of("t", pred, Some(vec![4, 3, 0])));
        assert_eq!(scans(&pruned(&projected)), [("t".into(), Some(vec![3]))]);
    }

    #[test]
    fn a_scan_that_needs_every_column_keeps_its_projection() {
        // The root requires all of a bare scan, a full-width sort likewise.
        let plan = PlanNode::scan("u").sort(vec![SortKey::asc(1)]);
        assert_eq!(pruned(&plan), plan);
        assert_eq!(scans(&pruned(&plan)), [("u".into(), None)]);
        let projected = scan_of("t", None, Some(vec![4, 0]));
        assert_eq!(pruned(&projected), projected);
    }

    #[test]
    fn a_pre_projected_scan_composes() {
        // The scan emits t.[4, 2, 0]; the plan reads output positions 2 and 0
        // and filters on table column 1, which the predicate keeps reading.
        let pred = Some(Expr::col(1).eq(Expr::lit(Value::Int(9))));
        let plan = scan_of("t", pred.clone(), Some(vec![4, 2, 0]))
            .project(vec![Expr::col(2).add(Expr::col(0))]);
        let want =
            scan_of("t", pred, Some(vec![4, 0])).project(vec![Expr::col(1).add(Expr::col(0))]);
        assert_eq!(pruned(&plan), want);
    }

    #[test]
    fn a_plan_that_cannot_be_sized_comes_back_untouched() {
        let join = || PlanNode::scan("t").hash_join(PlanNode::scan("u"), 3, 1);
        for plan in [
            // Expression columns past the node's width, at every kind of node.
            join().project(vec![Expr::col(8)]),
            join().filter(Expr::col(8).eq(Expr::lit(1))).project(vec![Expr::col(0)]),
            join().sort(vec![SortKey::asc(8)]).project(vec![Expr::col(0)]),
            join().aggregate(vec![8], vec![AggSpec::count_star()]),
            join().aggregate(vec![0], vec![AggSpec::sum(Expr::col(8))]),
            PlanNode::scan("t").hash_join(PlanNode::scan("u"), 5, 1).project(vec![Expr::col(0)]),
            PlanNode::scan("t").hash_join(PlanNode::scan("u"), 3, 3).project(vec![Expr::col(0)]),
            // A scan predicate or projection past the table's width.
            PlanNode::scan_filtered("u", Expr::col(3).eq(Expr::lit(1)))
                .aggregate(vec![], vec![AggSpec::count_star()]),
            scan_of("u", None, Some(vec![0, 3])).project(vec![Expr::col(0)]),
            // An unknown table anywhere in the plan.
            PlanNode::scan("t").hash_join(PlanNode::scan("nope"), 0, 0).project(vec![Expr::col(0)]),
        ] {
            assert_eq!(prune_columns(plan.clone(), &widths), plan, "{}", plan.explain());
        }
    }
}
