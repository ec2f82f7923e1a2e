//! Cross-layout parity: a TPC-H database loaded as PAX-style columnar pages
//! must be indistinguishable, result-wise, from the same database loaded as
//! row-slotted pages — through the shared circular scanner (QPipe engine),
//! through the conventional iterator engine, and across the paper's whole
//! query mix. Only the physical page layout (and the per-page decode cost)
//! differs.

use qpipe::prelude::*;
use qpipe::quick_system;
use qpipe_workloads::tpch::{self, build_tpch_with_layout, TpchScale, MIX};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use qpipe::storage::StorageLayout;

fn tpch_catalog(layout: StorageLayout) -> Arc<Catalog> {
    let catalog = quick_system(DiskConfig::instant(), 512);
    build_tpch_with_layout(&catalog, TpchScale::tiny(), 42, layout).unwrap();
    catalog
}

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

/// The acceptance-bar scenario: a TPC-H table loaded columnar, scanned
/// through the shared circular scanner (several concurrent consumers with
/// different predicates on ONE physical scan), produces results identical
/// to the row layout.
#[test]
fn shared_circular_scan_parity_across_layouts() {
    let run = |layout: StorageLayout| -> Vec<Vec<Tuple>> {
        let catalog = tpch_catalog(layout);
        assert_eq!(catalog.table("lineitem").unwrap().layout(), layout);
        let engine = QPipe::new(catalog, QPipeConfig::default());
        let queries = [
            PlanNode::scan("lineitem"),
            PlanNode::scan_filtered(
                "lineitem",
                Expr::col(tpch::cols::L_SHIPDATE).ge(Expr::lit(Value::Date(1200))),
            ),
            PlanNode::scan_filtered(
                "lineitem",
                // col ⋄ col: the vectorized pairwise kernel path.
                Expr::col(tpch::cols::L_COMMITDATE).lt(Expr::col(tpch::cols::L_RECEIPTDATE)),
            ),
        ];
        // Submit together so they share one scanner; drain concurrently.
        let handles: Vec<_> = queries.iter().map(|q| engine.submit(q.clone()).unwrap()).collect();
        let threads: Vec<_> =
            handles.into_iter().map(|h| std::thread::spawn(move || h.collect())).collect();
        threads.into_iter().map(|t| sorted(t.join().unwrap())).collect()
    };
    let row = run(StorageLayout::Row);
    let col = run(StorageLayout::Columnar);
    assert_eq!(row.len(), col.len());
    for (i, (r, c)) in row.iter().zip(&col).enumerate() {
        assert!(!r.is_empty(), "query {i} must produce rows for the test to be meaningful");
        assert_eq!(r, c, "query {i}: columnar scan must equal row scan");
    }
}

#[test]
fn full_tpch_mix_parity_across_layouts() {
    let run = |layout: StorageLayout| -> Vec<Vec<Tuple>> {
        let catalog = tpch_catalog(layout);
        let ctx = qpipe::exec::iter::ExecContext::new(catalog);
        let mut rng = StdRng::seed_from_u64(7);
        MIX.iter()
            .map(|&q| sorted(qpipe::exec::iter::run(&tpch::query(q, &mut rng), &ctx).unwrap()))
            .collect()
    };
    let row = run(StorageLayout::Row);
    let col = run(StorageLayout::Columnar);
    for ((q, r), c) in MIX.iter().zip(&row).zip(&col) {
        assert_eq!(r, c, "Q{q}: columnar layout must not change results");
    }
}

/// Regression: `o_orderdate / 365` was `Float(NaN)` (a `Date` had no float
/// embedding), so Q8 put every row in one NaN group in *both* engines. A
/// date is its day number in arithmetic: one group per order year, an `Int`
/// key, staged engine equal to the iterator engine on both layouts.
#[test]
fn q8_groups_by_order_year_in_both_engines_and_layouts() {
    let mut most_years = 0;
    for layout in [StorageLayout::Row, StorageLayout::Columnar] {
        let catalog = tpch_catalog(layout);
        let ctx = qpipe::exec::iter::ExecContext::new(catalog.clone());
        let engine = QPipe::new(catalog, QPipeConfig::default());
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..6 {
            let plan = tpch::query(8, &mut rng);
            let oracle = qpipe::exec::iter::run(&plan, &ctx).unwrap();
            let staged = engine.submit(plan).unwrap().collect();
            assert_eq!(staged, oracle, "{layout:?}: staged Q8 must equal the iterator engine's");
            let years: Vec<i64> = oracle
                .iter()
                .map(|r| match r[0] {
                    Value::Int(y) => y,
                    ref other => panic!("order year must be an Int, got {other:?}"),
                })
                .collect();
            assert!(years.windows(2).all(|w| w[0] < w[1]), "one row per year: {years:?}");
            most_years = most_years.max(years.len());
        }
    }
    assert!(most_years >= 2, "some Q8 must span several order years ({most_years})");
}

#[test]
fn clustered_and_unclustered_access_parity_across_layouts() {
    let run = |layout: StorageLayout| -> (Vec<Tuple>, Vec<Tuple>) {
        let catalog = tpch_catalog(layout);
        catalog.create_index("lineitem", "l_partkey").unwrap();
        let ctx = qpipe::exec::iter::ExecContext::new(catalog);
        let clustered = qpipe::exec::iter::run(
            &PlanNode::ClusteredIndexScan {
                table: "lineitem".into(),
                lo: Some(Value::Int(100)),
                hi: Some(Value::Int(400)),
                predicate: None,
                projection: None,
                ordered: true,
            },
            &ctx,
        )
        .unwrap();
        let unclustered = qpipe::exec::iter::run(
            &PlanNode::UnclusteredIndexScan {
                table: "lineitem".into(),
                column: "l_partkey".into(),
                lo: Some(Value::Int(10)),
                hi: Some(Value::Int(20)),
                predicate: None,
                projection: None,
            },
            &ctx,
        )
        .unwrap();
        // A filtered full scan answers the same ranges without an index.
        let key = |c: usize, lo: i64, hi: i64| {
            Some(Expr::and([Expr::col(c).ge(Expr::lit(lo)), Expr::col(c).le(Expr::lit(hi))]))
        };
        for (found, predicate) in [(&clustered, key(0, 100, 400)), (&unclustered, key(1, 10, 20))] {
            let scan = PlanNode::TableScan {
                table: "lineitem".into(),
                predicate,
                projection: None,
                ordered: false,
            };
            let expected = sorted(qpipe::exec::iter::run(&scan, &ctx).unwrap());
            assert_eq!(
                sorted(found.clone()),
                expected,
                "{layout:?}: index against a filtered scan"
            );
        }
        (clustered, sorted(unclustered))
    };
    let (row_ci, row_ui) = run(StorageLayout::Row);
    let (col_ci, col_ui) = run(StorageLayout::Columnar);
    assert!(!row_ci.is_empty() && !row_ui.is_empty());
    assert_eq!(row_ci, col_ci, "clustered index scan parity");
    assert_eq!(row_ui, col_ui, "unclustered index scan parity");
}

/// Columnar pages hold more (narrow) rows than slotted pages: same data,
/// fewer blocks — the paper's Figure 8 metric moves in the right direction.
#[test]
fn columnar_layout_loads_identical_cardinalities() {
    let row = tpch_catalog(StorageLayout::Row);
    let col = tpch_catalog(StorageLayout::Columnar);
    for t in row.table_names() {
        let r = row.table(&t).unwrap();
        let c = col.table(&t).unwrap();
        assert_eq!(r.num_tuples(), c.num_tuples(), "{t}: cardinality");
        assert!(c.num_pages().unwrap() > 0);
    }
}
