//! SQL-ish query front end and statistics-free greedy planner.
//!
//! The paper feeds QPipe "precompiled query plans ... derived from a
//! commercial system's optimizer"; until now the workload crate played that
//! role by hand-assembling [`PlanNode`] trees — which meant two clients
//! phrasing the *same* query differently produced different signatures and
//! shared nothing. This crate closes that gap with a deliberately small
//! pipeline:
//!
//! * [`lexer`] / [`parser`] — a SQL-ish grammar (SELECT/FROM/WHERE/GROUP
//!   BY/ORDER BY, multi-way equi-joins via commas or `JOIN ... ON`,
//!   aggregates, `IN`/`LIKE 'prefix%'`/`IS NULL`, `DATE n` literals) parsed
//!   by recursive descent into a name-based [`ast::Query`]. Malformed input
//!   yields [`QError::Plan`] — never a panic.
//! * [`bind`] — resolves names against the catalog into expressions over a
//!   *global* column space (FROM tables concatenated in declared order).
//! * [`greedy`] — the planner: normalizes expressions ([`Expr::normalize`]),
//!   classifies conjuncts into per-table filters / equi-join edges /
//!   residuals, orders joins greedily by syntactic selectivity (no
//!   cardinality statistics), early-exits on provably-empty conjunctions,
//!   and emits left-deep [`PlanNode`] trees.
//!
//! Because every choice is deterministic and keyed on normalized forms,
//! syntactic variants of one logical query — commuted comparisons, shuffled
//! conjuncts, reordered FROM lists, comma joins vs. `JOIN ... ON` — all land
//! on the identical plan tree. That makes `plan.signature()` collide exactly
//! when the work is the same, which is what lets OSP attach in-flight
//! packets across differently-phrased clients (the paper's §4.3 overlap
//! check, extended to ad-hoc text).
//!
//! [`PlanNode`]: qpipe_exec::plan::PlanNode
//! [`Expr::normalize`]: qpipe_exec::expr::Expr::normalize
//! [`QError::Plan`]: qpipe_common::QError::Plan

pub mod ast;
pub mod bind;
pub mod greedy;
pub mod lexer;
pub mod parser;

pub use bind::{bind, BoundQuery, SchemaProvider};
pub use greedy::{plan_bound, PlannedQuery, PlannerOptions};
pub use parser::parse;

use qpipe_common::QResult;

/// Parse, bind, and plan `sql` in one step — the entry point `qpipe-core`
/// wires behind `QPipe::submit_sql`. `_opts` is ignored (see
/// [`PlannerOptions`]).
pub fn plan_sql(
    schemas: &dyn SchemaProvider,
    sql: &str,
    _opts: &PlannerOptions,
) -> QResult<PlannedQuery> {
    let query = parser::parse(sql)?;
    let bound = bind::bind(schemas, &query)?;
    greedy::plan_bound(&bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::{DataType, Schema};
    use qpipe_exec::plan::PlanNode;
    use std::collections::HashMap;

    fn schemas() -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert(
            "customer".into(),
            Schema::of(&[
                ("c_custkey", DataType::Int),
                ("c_nationkey", DataType::Int),
                ("c_name", DataType::Str),
            ]),
        );
        m.insert(
            "orders".into(),
            Schema::of(&[
                ("o_orderkey", DataType::Int),
                ("o_custkey", DataType::Int),
                ("o_orderdate", DataType::Date),
                ("o_totalprice", DataType::Float),
            ]),
        );
        m.insert(
            "lineitem".into(),
            Schema::of(&[
                ("l_orderkey", DataType::Int),
                ("l_quantity", DataType::Float),
                ("l_extendedprice", DataType::Float),
                ("l_shipdate", DataType::Date),
                ("l_returnflag", DataType::Str),
            ]),
        );
        m
    }

    fn plan(sql: &str) -> PlannedQuery {
        plan_sql(&schemas(), sql, &PlannerOptions).unwrap()
    }

    #[test]
    fn single_table_filter_project() {
        let p = plan("SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity >= 30");
        let PlanNode::Project { input, exprs } = p.plan.as_ref() else { panic!("{}", p.explain()) };
        assert_eq!(exprs.len(), 2);
        assert!(matches!(input.as_ref(), PlanNode::TableScan { predicate: Some(_), .. }));
    }

    #[test]
    fn select_star_single_table_is_bare_scan() {
        let p = plan("SELECT * FROM lineitem");
        assert!(matches!(p.plan.as_ref(), PlanNode::TableScan { predicate: None, .. }));
    }

    #[test]
    fn phrasing_variants_share_signature() {
        let canonical = plan(
            "SELECT l_orderkey FROM lineitem WHERE l_quantity >= 30 AND l_shipdate < DATE 1000",
        );
        for variant in [
            // Commuted comparisons.
            "SELECT l_orderkey FROM lineitem WHERE 30 <= l_quantity AND l_shipdate < DATE 1000",
            // Reordered conjuncts.
            "SELECT l_orderkey FROM lineitem WHERE l_shipdate < DATE 1000 AND l_quantity >= 30",
            // Foldable constant and date-as-int literal.
            "SELECT l_orderkey FROM lineitem WHERE l_quantity >= 20 + 10 AND l_shipdate < 1000",
            // Redundant true conjunct.
            "SELECT l_orderkey FROM lineitem WHERE l_quantity >= 30 AND l_shipdate < DATE 1000 AND 1 = 1",
        ] {
            assert_eq!(plan(variant).signature, canonical.signature, "variant: {variant}");
        }
    }

    #[test]
    fn join_phrasings_share_signature() {
        let canonical = plan(
            "SELECT o.o_orderkey FROM orders o, lineitem l \
             WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity > 45",
        );
        for variant in [
            // JOIN ... ON syntax.
            "SELECT o.o_orderkey FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
             WHERE l.l_quantity > 45",
            // Reversed FROM order.
            "SELECT o.o_orderkey FROM lineitem l, orders o \
             WHERE l.l_quantity > 45 AND o.o_orderkey = l.l_orderkey",
            // Commuted join equality.
            "SELECT o.o_orderkey FROM orders o, lineitem l \
             WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > 45",
        ] {
            assert_eq!(plan(variant).signature, canonical.signature, "variant: {variant}");
        }
    }

    #[test]
    fn greedy_order_puts_most_selective_first() {
        // Equality on customer (score 8) beats a range on lineitem (3) and a
        // bare orders table (0).
        let p = plan(
            "SELECT c.c_name FROM lineitem l, orders o, customer c \
             WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey \
             AND c.c_nationkey = 7",
        );
        assert_eq!(p.join_order[0], "c");
        // And the chain is connected: orders joins customer, lineitem last.
        assert_eq!(p.join_order, vec!["c", "o", "l"]);
    }

    #[test]
    fn provably_empty_short_circuits() {
        let p = plan(
            "SELECT o.o_orderkey FROM orders o, lineitem l \
             WHERE o.o_orderkey = l.l_orderkey AND o.o_totalprice > 10.0 \
             AND o.o_totalprice < 5.0",
        );
        assert!(p.provably_empty);
        assert!(p.join_order.is_empty());
        // The empty pipeline never joins: only one table is referenced.
        assert_eq!(p.plan.tables(), vec!["orders".to_string()]);
    }

    #[test]
    fn aggregate_dedup_and_select_order() {
        // SUM(l_quantity) appears twice; the aggregate computes it once and a
        // projection fans it back out in SELECT order.
        let p = plan(
            "SELECT COUNT(*), SUM(l_quantity), l_returnflag, SUM(l_quantity) \
             FROM lineitem GROUP BY l_returnflag",
        );
        let PlanNode::Project { input, exprs } = p.plan.as_ref() else { panic!("{}", p.explain()) };
        assert_eq!(exprs.len(), 4);
        let PlanNode::Aggregate { aggs, group_by, .. } = input.as_ref() else { panic!() };
        assert_eq!(aggs.len(), 2, "duplicate SUM deduplicated");
        assert_eq!(group_by.len(), 1);
        // Items 1 and 3 (the two SUMs) project the same aggregate column.
        assert_eq!(exprs[1], exprs[3]);
    }

    #[test]
    fn order_by_lands_on_top() {
        let p = plan(
            "SELECT l_returnflag, SUM(l_quantity) AS qty FROM lineitem \
             GROUP BY l_returnflag ORDER BY qty DESC",
        );
        let PlanNode::Sort { keys, .. } = p.plan.as_ref() else { panic!("{}", p.explain()) };
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].col, 1);
        assert!(!keys[0].asc);
    }

    #[test]
    fn from_order_does_not_change_the_plan() {
        // The join order is the greedy one, not the declared FROM order, so
        // swapping the FROM list lands on the same tree.
        let a = plan(
            "SELECT o.o_orderkey FROM orders o, lineitem l \
             WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity > 45",
        );
        let b = plan(
            "SELECT o.o_orderkey FROM lineitem l, orders o \
             WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity > 45",
        );
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.join_order, b.join_order);
    }

    #[test]
    fn errors_never_panic() {
        for bad in [
            "SELECT * FROM missing_table",
            "SELECT nope FROM lineitem",
            "SELECT * FROM lineitem WHERE",
            "SELECT l_orderkey, COUNT(*) FROM lineitem",
            "DELETE FROM lineitem",
        ] {
            assert!(plan_sql(&schemas(), bad, &PlannerOptions).is_err(), "{bad}");
        }
    }
}
