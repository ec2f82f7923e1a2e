//! The Wisconsin benchmark (paper §5 dataset 1; DeWitt \[11\]).
//!
//! Two big tables and a small one. The paper uses 8M × 200-byte tuples for
//! BIG1/BIG2 and 800K for SMALL; we scale by the same 10:1 ratio with a
//! configurable big-table cardinality. Column semantics follow
//! the original specification: `unique1` is a random permutation, `unique2`
//! is sequential (the physical sort order), the small-domain columns
//! (`two`, `ten`, ...) are derived from `unique1`, and the string columns pad
//! each tuple toward the 200-byte target.

use qpipe_common::{DataType, QResult, Schema, Tuple, Value};
use qpipe_exec::expr::Expr;
use qpipe_exec::plan::{PlanNode, SortKey};
use qpipe_storage::{Catalog, StorageLayout};
use std::sync::Arc;

/// Scale knobs (10:1 big:small, like the paper's 8M:800K).
#[derive(Debug, Clone, Copy)]
pub struct WisconsinScale {
    pub big_tuples: usize,
}

impl WisconsinScale {
    pub fn tiny() -> Self {
        Self { big_tuples: 2000 }
    }

    pub fn experiment() -> Self {
        Self { big_tuples: 20_000 }
    }

    pub fn small_tuples(&self) -> usize {
        (self.big_tuples / 10).max(1)
    }
}

impl Default for WisconsinScale {
    fn default() -> Self {
        Self::experiment()
    }
}

/// Column indexes for plan building.
pub mod cols {
    pub const UNIQUE1: usize = 0;
    pub const UNIQUE2: usize = 1;
    pub const TWO: usize = 2;
    pub const TEN: usize = 3;
    pub const HUNDRED: usize = 4;
    pub const STRINGU1: usize = 5;
    pub const WIDTH: usize = 6;
}

fn schema() -> Schema {
    Schema::of(&[
        ("unique1", DataType::Int),
        ("unique2", DataType::Int),
        ("two", DataType::Int),
        ("ten", DataType::Int),
        ("hundred", DataType::Int),
        ("stringu1", DataType::Str),
    ])
}

/// Deterministic permutation of 0..n: affine map `(a·i + b) mod n` with
/// `gcd(a, n) = 1` (the classic generator trick), so `unique1` really is a
/// permutation of 0..n.
fn permute(i: u64, n: u64) -> u64 {
    let mut a = 2_654_435_761u64 % n;
    while gcd(a, n) != 1 {
        a += 1;
    }
    (i.wrapping_mul(a).wrapping_add(7)) % n
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn rows(n: usize) -> Vec<Tuple> {
    (0..n as u64)
        .map(|u2| {
            let u1 = permute(u2, n as u64) as i64;
            vec![
                Value::Int(u1),
                Value::Int(u2 as i64),
                Value::Int(u1 % 2),
                Value::Int(u1 % 10),
                Value::Int(u1 % 100),
                // ~150 bytes of padding toward the 200-byte tuple target.
                Value::str(format!("{u1:0>25}-{:a>120}", "")),
            ]
        })
        .collect()
}

/// Create BIG1, BIG2 and SMALL in the row layout, each stored sorted on
/// `unique2`.
pub fn build_wisconsin(catalog: &Arc<Catalog>, scale: WisconsinScale) -> QResult<()> {
    build_wisconsin_with_layout(catalog, scale, StorageLayout::Row)
}

/// Create BIG1, BIG2 and SMALL in an explicit page layout (columnar tables
/// scan without the row codec), each stored sorted on `unique2`.
pub fn build_wisconsin_with_layout(
    catalog: &Arc<Catalog>,
    scale: WisconsinScale,
    layout: StorageLayout,
) -> QResult<()> {
    let u2 = Some(cols::UNIQUE2);
    catalog.create_table_with_layout("big1", schema(), rows(scale.big_tuples), u2, layout)?;
    catalog.create_table_with_layout("big2", schema(), rows(scale.big_tuples), u2, layout)?;
    catalog.create_table_with_layout("small", schema(), rows(scale.small_tuples()), u2, layout)?;
    Ok(())
}

/// The Figure 10 query: a 3-way join with sort (S) at the highest level,
/// sort-merge joins below:
///
/// ```text
///            S
///            |
///          M-J ------ S(scan SMALL, predicate varies per query)
///           |
///     M-J(S(scan BIG1), S(scan BIG2))
/// ```
///
/// `big_pred_lo` filters BIG1/BIG2 on `hundred >= lo` (the two concurrent
/// queries in the experiment share this predicate); `small_pred_ten` filters
/// SMALL on `ten = x` (differs across queries).
pub fn three_way_join(big_pred_lo: i64, small_pred_ten: i64) -> PlanNode {
    use cols::*;
    let big1 = PlanNode::scan_filtered("big1", Expr::col(HUNDRED).ge(Expr::lit(big_pred_lo)))
        .sort(vec![SortKey::asc(UNIQUE1)]);
    let big2 = PlanNode::scan_filtered("big2", Expr::col(HUNDRED).ge(Expr::lit(big_pred_lo)))
        .sort(vec![SortKey::asc(UNIQUE1)]);
    let mj1 = big1.merge_join(big2, UNIQUE1, UNIQUE1);
    // Layout after MJ1: big1(6) ++ big2(6); the final join matches
    // big1.unique1 (position 0) against small.unique1 — only keys within the
    // small table's 10x-smaller domain survive, like the original benchmark.
    let small = PlanNode::scan_filtered("small", Expr::col(TEN).eq(Expr::lit(small_pred_ten)))
        .sort(vec![SortKey::asc(UNIQUE1)]);
    mj1.merge_join(small, UNIQUE1, UNIQUE1).sort(vec![SortKey::asc(UNIQUE2)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::Metrics;
    use qpipe_exec::iter::{run, ExecContext};
    use qpipe_storage::{BufferPool, BufferPoolConfig, DiskConfig, PolicyKind, SimDisk};

    fn catalog() -> Arc<Catalog> {
        let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(512, PolicyKind::Lru));
        let c = Catalog::new(disk, pool);
        build_wisconsin(&c, WisconsinScale::tiny()).unwrap();
        c
    }

    #[test]
    fn tables_created_with_ratio() {
        let c = catalog();
        assert_eq!(c.table("big1").unwrap().num_tuples(), 2000);
        assert_eq!(c.table("small").unwrap().num_tuples(), 200);
    }

    #[test]
    fn unique1_is_a_permutation() {
        let c = catalog();
        let ctx = ExecContext::new(c);
        let rows = run(&PlanNode::scan("big1"), &ctx).unwrap();
        let mut seen: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        seen.sort();
        seen.dedup();
        // A true permutation would have 2000 distinct values; our affine hash
        // permutation guarantees near-uniqueness — require ≥90% distinct so
        // joins behave like key joins.
        assert_eq!(seen.len(), 2000, "unique1 must be a permutation");
    }

    #[test]
    fn tuples_near_200_bytes() {
        let c = catalog();
        let t = c.table("big1").unwrap();
        let pages = t.num_pages().unwrap();
        let bytes_per_tuple = pages as f64 * 8192.0 / t.num_tuples() as f64;
        assert!(
            (150.0..260.0).contains(&bytes_per_tuple),
            "tuple width {bytes_per_tuple:.0}B should be ≈200B"
        );
    }

    #[test]
    fn three_way_join_runs_and_is_deterministic() {
        let c = catalog();
        let ctx = ExecContext::new(c);
        let a = run(&three_way_join(0, 3), &ctx).unwrap();
        let b = run(&three_way_join(0, 3), &ctx).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "join should produce matches");
        // Different small predicates → different results.
        let d = run(&three_way_join(0, 4), &ctx).unwrap();
        assert_ne!(a, d);
    }

    #[test]
    fn shared_subplans_have_equal_signatures() {
        // The property Figure 10 relies on: the BIG1/BIG2 sort subtrees of
        // the two queries are identical, the SMALL subtree differs.
        let q1 = three_way_join(0, 3);
        let q2 = three_way_join(0, 7);
        let (PlanNode::Sort { input: top1, .. }, PlanNode::Sort { input: top2, .. }) = (&q1, &q2)
        else {
            panic!("top is sort")
        };
        let (
            PlanNode::MergeJoin { left: l1, right: r1, .. },
            PlanNode::MergeJoin { left: l2, right: r2, .. },
        ) = (&**top1, &**top2)
        else {
            panic!("below top is merge join")
        };
        assert_eq!(l1.signature(), l2.signature(), "BIG1⋈BIG2 subtree shared");
        assert_ne!(r1.signature(), r2.signature(), "SMALL subtree differs");
    }
}
