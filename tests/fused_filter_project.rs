//! Filter and projection run in the reader of their input. In every
//! position a plan can put them — at the root, where the client thread runs
//! them; chained over a join; directly over a scan; over a merge join whose
//! split side attaches late, under an aggregate and at the root; and over a
//! join that another query shares — the staged engine's answer equals the
//! iterator engine's as a multiset, with OSP on and off.

use qpipe::prelude::*;
use qpipe::quick_system;
use qpipe::storage::StorageLayout;
use std::sync::Arc;

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(a.len().cmp(&b.len()))
    });
    rows
}

fn ordered_full_scan(table: &str) -> PlanNode {
    PlanNode::ClusteredIndexScan {
        table: table.into(),
        lo: None,
        hi: None,
        predicate: None,
        projection: None,
        ordered: true,
    }
}

/// `big` holds 40 000 rows `(i / 2, i % 7)`, far more pages than a claimed
/// page and a client pipe; `small` holds 500 rows `(31 i, i)`. Both are
/// clustered on `k`.
fn catalog(layout: StorageLayout) -> Arc<Catalog> {
    let catalog = quick_system(DiskConfig::instant(), 1024);
    let kv = || Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let big: Vec<Tuple> =
        (0..40_000i64).map(|i| vec![Value::Int(i / 2), Value::Int(i % 7)]).collect();
    let small: Vec<Tuple> = (0..500i64).map(|i| vec![Value::Int(i * 31), Value::Int(i)]).collect();
    for (name, rows) in [("big", big), ("small", small)] {
        catalog.create_table_with_layout(name, kv(), rows, Some(0), layout).unwrap();
    }
    catalog
}

fn count_and_sum(col: usize) -> Vec<AggSpec> {
    vec![AggSpec::count_star(), AggSpec::sum(Expr::col(col))]
}

#[test]
fn filter_and_project_in_every_position_match_the_iterator_engine() {
    for layout in [StorageLayout::Row, StorageLayout::Columnar] {
        for osp in [true, false] {
            let at = format!("{layout:?}, osp {osp}");
            let catalog = catalog(layout);
            let config = QPipeConfig { osp, ..QPipeConfig::default() };
            let ctx = ExecContext::with_config(catalog.clone(), config.exec);
            let engine = QPipe::new(catalog.clone(), config);
            let oracle = |plan: &PlanNode| sorted(qpipe::exec::iter::run(plan, &ctx).unwrap());

            // σ/π at the root, over a join, and straight over a scan.
            let root = engine.plan_sql("SELECT k, v * 2 FROM small WHERE v > 3").unwrap().plan;
            assert_eq!(root.op_name(), "project", "{at}:\n{}", root.explain());
            let join = PlanNode::scan("big").hash_join(PlanNode::scan("small"), 0, 0);
            let chain = join
                .clone()
                .filter(Expr::col(1).lt(Expr::col(3)))
                .project(vec![Expr::col(0), Expr::col(1).add(Expr::col(3))]);
            let over_scan = PlanNode::scan("big").filter(Expr::col(1).eq(Expr::lit(3)));
            for (what, plan) in
                [("root project", (*root).clone()), ("chain", chain), ("scan", over_scan)]
            {
                let reference = oracle(&plan);
                assert!(!reference.is_empty(), "{at}: {what} must have an answer");
                let got = engine.submit(plan).unwrap().try_collect();
                let got = got.unwrap_or_else(|e| panic!("{at}: {what}: {e}"));
                assert_eq!(sorted(got), reference, "{at}: {what}");
            }

            // A filter over a merge join of ordered scans, under an
            // aggregate and at the root: the filter is the join's parent,
            // which does not care for order, so `big` — the larger side — may
            // be served by a wrapped scan. An undrained plain scan of `big`
            // parks its scanner mid-table; the join's scan of `big` attaches
            // late and wraps (§4.3.2).
            let merge = ordered_full_scan("big")
                .merge_join(ordered_full_scan("small"), 0, 0)
                .filter(Expr::col(1).lt(Expr::lit(5)));
            let under_agg = merge.clone().aggregate(vec![], count_and_sum(3));
            for (what, plan) in [("under an aggregate", under_agg), ("at the root", merge)] {
                let reference = oracle(&plan);
                let before = engine.metrics().snapshot();
                let parked = engine.submit(PlanNode::scan("big")).unwrap();
                while engine.metrics().snapshot().delta_since(&before).morsels_dispatched == 0 {
                    std::thread::yield_now();
                }
                let joined = engine.submit(plan).unwrap();
                let drain = std::thread::spawn(move || parked.try_collect().unwrap().len());
                let got = joined.try_collect().unwrap();
                assert_eq!(sorted(got), reference, "{at}: merge join {what}");
                assert_eq!(drain.join().unwrap(), 40_000, "{at}: {what}");
                let delta = engine.metrics().snapshot().delta_since(&before);
                let attaches = u64::from(osp);
                assert_eq!(delta.osp_attaches, attaches, "{at}: {what}: the late scan rides");
                assert_eq!(delta.circular_wraps > 0, osp, "{at}: {what}: and wraps");
            }

            // Two aggregates over different filters of one join, submitted
            // while `big` is locked so both find the join in flight: the
            // second query's join rides the first's, below its own filter.
            let over = |lo: i64| {
                join.clone()
                    .filter(Expr::col(1).ge(Expr::lit(lo)))
                    .aggregate(vec![], count_and_sum(2))
            };
            let (a, b) = (over(2), over(5));
            let (ref_a, ref_b) = (oracle(&a), oracle(&b));
            assert_ne!(ref_a, ref_b, "{at}: the two filters must differ");
            let before = engine.metrics().snapshot();
            let gate = catalog.locks().lock_exclusive("big");
            let (qa, qb) = (engine.submit(a).unwrap(), engine.submit(b).unwrap());
            drop(gate);
            let got_b = std::thread::spawn(move || qb.try_collect());
            assert_eq!(qa.try_collect().unwrap(), ref_a, "{at}: first filter");
            assert_eq!(got_b.join().unwrap().unwrap(), ref_b, "{at}: second filter");
            let delta = engine.metrics().snapshot().delta_since(&before);
            if osp {
                assert!(delta.osp_attaches >= 1, "{at}: the join must be shared: {delta:?}");
            } else {
                assert_eq!(delta.osp_attaches, 0, "{at}");
            }
        }
    }
}
