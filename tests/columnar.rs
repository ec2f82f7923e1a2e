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
        let threads: Vec<_> = handles
            .into_iter()
            .map(|h| std::thread::spawn(move || h.try_collect().unwrap()))
            .collect();
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
            let staged = engine.submit(plan).unwrap().try_collect().unwrap();
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

/// The staged engine's clustered range scan and unclustered RID-list scan
/// answer what a filtered full scan of the oracle answers, on both layouts,
/// and the two layouts agree.
#[test]
fn clustered_and_unclustered_access_parity_across_layouts() {
    let run = |layout: StorageLayout| -> (Vec<Tuple>, Vec<Tuple>) {
        let catalog = tpch_catalog(layout);
        catalog.create_index("lineitem", "l_partkey").unwrap();
        let ctx = qpipe::exec::iter::ExecContext::new(catalog.clone());
        let engine = QPipe::new(catalog, QPipeConfig::default());
        let answer = |plan: PlanNode| engine.submit(plan).unwrap().try_collect().unwrap();
        let clustered = answer(PlanNode::ClusteredIndexScan {
            table: "lineitem".into(),
            lo: Some(Value::Int(100)),
            hi: Some(Value::Int(400)),
            predicate: None,
            projection: None,
            ordered: true,
        });
        let unclustered = answer(PlanNode::UnclusteredIndexScan {
            table: "lineitem".into(),
            column: "l_partkey".into(),
            lo: Some(Value::Int(10)),
            hi: Some(Value::Int(20)),
            predicate: None,
            projection: None,
        });
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
                "{layout:?}: the engine's index scan against a filtered scan"
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

/// The page-range reader — range index scans and the merge join's re-read —
/// runs the scan kernel the circular scanner runs. Over a clustered range, an
/// unclustered RID list and a whole table, with random predicates and
/// projections (a range's clustered key projected or not), on both layouts,
/// its rows equal the iterator engine's scan of the same plan as a multiset.
/// The oracle reads no index, so the index lookups are checked, not shared:
/// the first rounds take their bounds from the index's edges — the first key
/// of each heap page, the keys whose duplicates span index pages, bounds
/// below and above every key, and `lo > hi` — where a fence lookup that is
/// off by one page loses rows.
#[test]
fn page_range_reader_matches_the_iterator_scan() {
    use qpipe::exec::viter::{BatchSource, PageRangeReader};
    use rand::Rng;
    let n = 6_000i64;
    let schema = Schema::of(&[
        ("k", DataType::Int),
        ("v", DataType::Int),
        ("s", DataType::Str),
        ("f", DataType::Float),
    ]);
    let rows: Vec<Tuple> = (0..n)
        .map(|i| {
            let v = if i % 11 == 0 { Value::Null } else { Value::Int(i * 7 % 50) };
            vec![
                Value::Int(i),
                v,
                Value::str(format!("s{}", i % 10)),
                Value::Float((i % 97) as f64),
            ]
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(45);
    for layout in [StorageLayout::Row, StorageLayout::Columnar] {
        let catalog = quick_system(DiskConfig::instant(), 64);
        catalog
            .create_table_with_layout("r", schema.clone(), rows.clone(), Some(0), layout)
            .unwrap();
        catalog.create_index("r", "v").unwrap();
        // Column 0 of each page of `file`, the page's first value first.
        let keys_of = |file, pages| -> Vec<Vec<Value>> {
            (0..pages)
                .map(|p| {
                    let rows = catalog.disk().read_block(file, p).unwrap().rows().unwrap();
                    rows.into_iter().map(|mut r| r.swap_remove(0)).collect()
                })
                .collect()
        };
        let info = catalog.table("r").unwrap();
        let heap_firsts: Vec<Value> = keys_of(info.file_id(), info.num_pages().unwrap())
            .into_iter()
            .map(|p| p[0].clone())
            .collect();
        let idx = info.unclustered_index("v").unwrap();
        let index_pages = keys_of(idx.file_id(), idx.num_pages());
        let spanning: Vec<Value> = index_pages
            .windows(2)
            .filter(|w| w[0].last() == w[1].first())
            .map(|w| w[1][0].clone())
            .collect();
        assert!(heap_firsts.len() > 2 && !spanning.is_empty(), "{layout:?}: pages to edge on");
        let edges = |firsts: &[Value], max: i64| {
            let mut out: Vec<(Option<Value>, Option<Value>)> = firsts
                .iter()
                .flat_map(|f| {
                    let f = Some(f.clone());
                    [(f.clone(), f.clone()), (None, f.clone()), (f, None)]
                })
                .collect();
            let (below, above) = (Some(Value::Int(-1)), Some(Value::Int(max + 1)));
            out.extend([
                (None, below.clone()),
                (below.clone(), below.clone()),
                (above.clone(), None),
                (above.clone(), above.clone()),
                (below, above),
                (Some(Value::Int(max / 2 + 1)), Some(Value::Int(max / 2))),
            ]);
            out
        };
        let (key_edges, v_edges) = (edges(&heap_firsts, n), edges(&spanning, 50));
        let ctx = ExecContext::new(catalog.clone());
        for round in 0..60 + key_edges.len().max(v_edges.len()) {
            let atom = |rng: &mut StdRng| match rng.gen_range(0..4) {
                0 => Expr::col(0).ge(Expr::lit(rng.gen_range(0..n))),
                1 => Expr::col(1).lt(Expr::lit(rng.gen_range(0..50i64))),
                2 => Expr::col(2).eq(Expr::lit(format!("s{}", rng.gen_range(0..10)).as_str())),
                _ => Expr::col(3).gt(Expr::lit(rng.gen_range(0..97) as f64)),
            };
            let predicate = match rng.gen_range(0..4) {
                0 => None,
                1 => Some(atom(&mut rng)),
                2 => Some(Expr::and([atom(&mut rng), atom(&mut rng)])),
                _ => Some(Expr::or([atom(&mut rng), atom(&mut rng)])),
            };
            let projection = rng
                .gen_bool(0.75)
                .then(|| (0..rng.gen_range(0..5)).map(|_| rng.gen_range(0..4)).collect::<Vec<_>>());
            let mut bound = |hi: i64| rng.gen_bool(0.8).then(|| Value::Int(rng.gen_range(0..hi)));
            let (lo, hi) = key_edges.get(round).cloned().unwrap_or_else(|| (bound(n), bound(n)));
            let (vlo, vhi) = v_edges.get(round).cloned().unwrap_or_else(|| (bound(50), bound(50)));
            let plans = [
                PlanNode::ClusteredIndexScan {
                    table: "r".into(),
                    lo,
                    hi,
                    predicate: predicate.clone(),
                    projection: projection.clone(),
                    ordered: true,
                },
                PlanNode::UnclusteredIndexScan {
                    table: "r".into(),
                    column: "v".into(),
                    lo: vlo,
                    hi: vhi,
                    predicate: predicate.clone(),
                    projection: projection.clone(),
                },
                PlanNode::TableScan { table: "r".into(), predicate, projection, ordered: false },
            ];
            for plan in plans {
                let at = format!("{layout:?}, round {round}: {}", plan.explain());
                let want = qpipe::exec::iter::run(&plan, &ctx).unwrap();
                let mut reader = PageRangeReader::open(&plan, &ctx).unwrap();
                let mut got = Vec::new();
                while let Some(batch) = reader.next_batch().unwrap() {
                    assert!(!batch.is_empty(), "{at}");
                    got.extend(batch.to_rows());
                }
                assert_eq!(sorted(got), sorted(want), "{at}");
            }
        }
    }
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
