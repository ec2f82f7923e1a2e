//! End-to-end tests for the SQL front end and greedy planner: golden
//! parse→plan shapes, result parity against the hand-built TPC-H plans, and
//! the mixed-phrasing sharing experiment the canonicalizer exists for.

mod common;

use common::assert_rows_equivalent;
use qpipe::common::{QResult, Value};
use qpipe::exec::iter::{run as exec_run, ExecContext};
use qpipe::prelude::*;
use qpipe::workloads::sql::{self, SqlQuery};
use qpipe::workloads::tpch::{self, build_tpch, JoinFlavor, TpchScale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn tiny_catalog() -> Arc<Catalog> {
    let catalog = qpipe::quick_system(DiskConfig::instant(), 512);
    build_tpch(&catalog, TpchScale::tiny(), 42).unwrap();
    catalog
}

fn plan(catalog: &Arc<Catalog>, sql: &str) -> QResult<PlannedQuery> {
    plan_sql(catalog.as_ref(), sql, &PlannerOptions)
}

// ---------------------------------------------------------------------------
// Golden parse→plan shapes
// ---------------------------------------------------------------------------

#[test]
fn golden_join_orders_are_deterministic() {
    let catalog = tiny_catalog();
    // (query text, expected greedy join order). The orders pin the greedy
    // policy: most selective local predicate first, then highest-scored
    // connected table, ties broken by binding name.
    let cases: Vec<(SqlQuery, Vec<&str>)> = vec![
        (sql::q1_sql(90), vec!["lineitem"]),
        (sql::q3_sql(3, 1200), vec!["c", "o", "l"]),
        (sql::q5_sql("ASIA", 400), vec!["r", "n", "s", "c", "o", "l"]),
        (sql::q10_sql(800), vec!["l", "o", "c", "n"]),
        (sql::q12_sql("RAIL", "SHIP", 400), vec!["lineitem", "orders"]),
    ];
    for (shape, expected) in cases {
        let text = shape.canonical();
        let p = plan(&catalog, &text).unwrap();
        assert!(!p.provably_empty, "{text}");
        assert_eq!(p.join_order, expected, "{text}\n{}", p.explain());
        // Every phrasing of the same shape lands on the same signature.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..4 {
            let variant = shape.shuffled(&mut rng);
            let vp = plan(&catalog, &variant).unwrap();
            assert_eq!(vp.signature, p.signature, "{variant}");
            assert_eq!(vp.join_order, expected, "{variant}");
        }
    }
}

#[test]
fn golden_explain_renders_plan_tree() {
    let catalog = tiny_catalog();
    let p = plan(&catalog, &sql::q3_sql(3, 1200).canonical()).unwrap();
    let text = p.explain();
    assert_eq!(text.matches("hashjoin").count(), 2, "{text}");
    assert_eq!(text.matches("scan ").count(), 3, "{text}");
    assert!(text.contains("agg group="), "{text}");
    assert!(text.contains("sort"), "{text}");
    assert!(text.contains("signature: 0x"), "{text}");
}

// ---------------------------------------------------------------------------
// Result parity: planner output vs hand-built plans
// ---------------------------------------------------------------------------

#[test]
fn planned_sql_matches_hand_built_plans() {
    let catalog = tiny_catalog();
    let ctx = ExecContext::new(catalog.clone());
    // Every paper-mix query the front end's grammar can express, plus the
    // Q3/Q5/Q10 join shapes. (Q8 groups by a computed expression, Q13 nests
    // aggregates, and Q14 sums a predicate-valued product — all beyond the
    // SELECT-list grammar, so they stay plan-only.)
    let cases: Vec<(&str, SqlQuery, PlanNode)> = vec![
        ("q1", sql::q1_sql(90), tpch::q1(90)),
        ("q3", sql::q3_sql(3, 1200), tpch::q3(3, 1200)),
        ("q4", sql::q4_sql(500), tpch::q4(500, JoinFlavor::Hash)),
        ("q5", sql::q5_sql("ASIA", 400), tpch::q5("ASIA", 400)),
        ("q6", sql::q6_sql(100, 0.05, 30), tpch::q6(100, 0.05, 30)),
        ("q10", sql::q10_sql(800), tpch::q10(800)),
        ("q12", sql::q12_sql("RAIL", "SHIP", 400), tpch::q12("RAIL", "SHIP", 400)),
        ("q19", sql::q19_sql("Brand#23", "Brand#34", 5), tpch::q19("Brand#23", "Brand#34", 5)),
    ];
    let mut rng = StdRng::seed_from_u64(11);
    for (name, shape, hand_built) in cases {
        let expected = exec_run(&hand_built, &ctx).unwrap();
        // Canonical text and a couple of shuffled phrasings all agree.
        for text in [shape.canonical(), shape.shuffled(&mut rng), shape.shuffled(&mut rng)] {
            let p = plan(&catalog, &text).unwrap();
            let got = exec_run(&p.plan, &ctx).unwrap();
            assert_rows_equivalent(got, expected.clone(), &format!("{name}: {text}"));
        }
    }
}

#[test]
fn three_way_join_sql_executes_through_the_engine() {
    // Acceptance: a Q3-shaped 3-way join submitted as text parses, plans
    // greedily, and executes on the staged engine with the same result as
    // the hand-built plan.
    let catalog = tiny_catalog();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let planned = engine.plan_sql(&sql::q3_sql(3, 1200).canonical()).unwrap();
    assert_eq!(planned.join_order, vec!["c", "o", "l"]);
    let by_sql =
        engine.submit_sql(&sql::q3_sql(3, 1200).canonical()).unwrap().try_collect().unwrap();
    let by_plan = engine.submit(tpch::q3(3, 1200)).unwrap().try_collect().unwrap();
    assert!(!by_sql.is_empty());
    assert_rows_equivalent(by_sql, by_plan, "q3 through engine");
}

#[test]
fn between_phrasing_shares_signature_with_range_conjuncts() {
    // BETWEEN desugars in the parser, so both phrasings reach the planner
    // as the same two range conjuncts: identical signature (OSP sharing
    // across phrasings) and identical rows.
    let catalog = tiny_catalog();
    let ctx = ExecContext::new(catalog.clone());
    let sugar =
        plan(&catalog, "SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 10 AND 20").unwrap();
    let plain =
        plan(&catalog, "SELECT COUNT(*) FROM lineitem WHERE l_quantity >= 10 AND l_quantity <= 20")
            .unwrap();
    assert_eq!(sugar.signature, plain.signature);
    let got = exec_run(&sugar.plan, &ctx).unwrap();
    assert_rows_equivalent(got.clone(), exec_run(&plain.plan, &ctx).unwrap(), "between");
    assert!(matches!(got[0][0], Value::Int(n) if n > 0), "predicate selects rows: {got:?}");
    // NOT BETWEEN is the range complement.
    let neg =
        plan(&catalog, "SELECT COUNT(*) FROM lineitem WHERE l_quantity NOT BETWEEN 10 AND 20")
            .unwrap();
    let total = plan(&catalog, "SELECT COUNT(*) FROM lineitem").unwrap();
    let (Value::Int(inside), Value::Int(outside), Value::Int(all)) = (
        exec_run(&sugar.plan, &ctx).unwrap()[0][0].clone(),
        exec_run(&neg.plan, &ctx).unwrap()[0][0].clone(),
        exec_run(&total.plan, &ctx).unwrap()[0][0].clone(),
    ) else {
        panic!("COUNT(*) yields Int");
    };
    assert_eq!(inside + outside, all, "BETWEEN and NOT BETWEEN partition the table");
}

// ---------------------------------------------------------------------------
// Mixed-phrasing sharing (the acceptance experiment)
// ---------------------------------------------------------------------------

#[test]
fn canonicalization_unlocks_sharing_across_phrasings() {
    // Ten clients submit the same logical Q3, each phrased differently,
    // while every table Q3 reads is exclusively locked: no scan can start, so
    // all ten plans are in flight at once and a plan root attaches to an
    // earlier one exactly when their signatures match — the attach
    // arithmetic is exact on any box. Every phrasing lands on one signature,
    // so every arrival after the first attaches at the root.
    let shape = sql::q3_sql(3, 1200);
    let mut rng = StdRng::seed_from_u64(23);
    let queries: Vec<String> = (0..10).map(|_| shape.shuffled(&mut rng)).collect();
    assert!(
        queries.iter().any(|q| q.trim() != queries[0].trim()),
        "the shuffler must produce distinct texts"
    );
    let engine = QPipe::new(tiny_catalog(), QPipeConfig::default());
    let planned: Vec<_> = queries.iter().map(|q| engine.plan_sql(q).unwrap()).collect();
    let signatures: std::collections::HashSet<u64> = planned.iter().map(|p| p.signature).collect();
    assert_eq!(signatures.len(), 1, "every phrasing lands on one signature");
    let root = planned[0].plan.op_name();
    let locks = engine.catalog().locks();
    let held: Vec<_> = planned[0].plan.tables().iter().map(|t| locks.lock_exclusive(t)).collect();
    let handles: Vec<_> = queries.iter().map(|q| engine.submit_sql(q).unwrap()).collect();
    drop(held);
    let answers: Vec<Vec<Tuple>> = std::thread::scope(|s| {
        let collectors: Vec<_> =
            handles.into_iter().map(|h| s.spawn(|| h.try_collect().unwrap())).collect();
        collectors.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for a in &answers[1..] {
        assert_rows_equivalent(a.clone(), answers[0].clone(), "phrasings of one query");
    }
    // The first arrival hosts; every later one attaches to it at the root.
    let snapshot = engine.metrics().snapshot();
    assert_eq!(snapshot.per_engine_attaches.get(root).copied().unwrap_or(0), 10 - 1);
}

// ---------------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------------

#[test]
fn malformed_sql_yields_errors_not_panics() {
    let catalog = tiny_catalog();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    for bad in [
        "",
        "SELECT",
        "SELECT * FROM",
        "SELECT * FROM no_such_table",
        "SELECT nope FROM lineitem",
        "SELECT * FROM lineitem WHERE l_quantity >",
        "SELECT * FROM lineitem WHERE l_quantity BETWEEN 5",
        "SELECT * FROM lineitem WHERE l_quantity BETWEEN 5 OR 10",
        "SELECT * FROM lineitem WHERE l_quantity > 'a%' LIKE",
        "SELECT l_orderkey, COUNT(*) FROM lineitem",
        "SELECT l_orderkey FROM lineitem ORDER BY 7",
        "SELECT * FROM lineitem l, lineitem l",
        "SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING COUNT(*) > 1",
        "INSERT INTO lineitem VALUES (1)",
        "SELECT * FROM lineitem; DROP TABLE lineitem",
        "SELECT quantity FROM lineitem, orders",
    ] {
        let r = engine.submit_sql(bad);
        assert!(r.is_err(), "expected error for {bad:?}");
    }
    // And the engine is still healthy afterwards.
    assert_eq!(
        engine.submit_sql("SELECT COUNT(*) FROM region").unwrap().try_collect().unwrap().len(),
        1
    );
}

#[test]
fn provably_empty_sql_still_honors_aggregate_semantics() {
    let catalog = tiny_catalog();
    let p = plan(
        &catalog,
        "SELECT COUNT(*), SUM(l_quantity) FROM lineitem \
         WHERE l_quantity > 10 AND l_quantity < 5",
    )
    .unwrap();
    assert!(p.provably_empty);
    let ctx = ExecContext::new(catalog);
    let rows = exec_run(&p.plan, &ctx).unwrap();
    assert_eq!(rows.len(), 1, "no-group aggregate over empty input yields one row");
    assert_eq!(rows[0][0], Value::Int(0), "COUNT(*) over nothing is 0");
}
