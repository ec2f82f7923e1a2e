//! Column liveness (`qpipe_exec::liveness`) on the real workloads.
//!
//! The staged engine always runs the pruned plan and the iterator engine
//! runs the plan it is handed, so three executions must agree on every plan:
//! `iter::run(original)`, `iter::run(pruned)` — row for row, in order — and
//! the staged engine, as a multiset.

use qpipe::exec::iter::run as exec_run;
use qpipe::exec::liveness::prune_columns;
use qpipe::prelude::*;
use qpipe::quick_system;
use qpipe::storage::StorageLayout;
use qpipe::workloads::sql::random_shape;
use qpipe::workloads::tpch::{self, build_tpch_with_layout, JoinFlavor, TpchScale, MIX};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn tpch_catalog(layout: StorageLayout) -> Arc<Catalog> {
    let catalog = quick_system(DiskConfig::instant(), 1024);
    build_tpch_with_layout(&catalog, TpchScale::tiny(), 42, layout).unwrap();
    catalog
}

fn table_width(catalog: &Catalog, table: &str) -> Option<usize> {
    catalog.table(table).ok().map(|info| info.schema.len())
}

/// The rewrite exactly as `QPipe::submit_with` applies it.
fn pruned(plan: &PlanNode, catalog: &Catalog) -> PlanNode {
    prune_columns(plan.clone(), &|t| table_width(catalog, t))
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

/// Each scan's table and projection, left to right.
fn scans(plan: &PlanNode) -> Vec<(String, Vec<usize>)> {
    match plan {
        PlanNode::TableScan { table, projection, .. }
        | PlanNode::ClusteredIndexScan { table, projection, .. }
        | PlanNode::UnclusteredIndexScan { table, projection, .. } => {
            vec![(table.clone(), projection.clone().expect("every scan here is projected"))]
        }
        _ => plan.children().into_iter().flat_map(scans).collect(),
    }
}

/// Each hash join's `[left_key, right_key]`, top down.
fn join_keys(plan: &PlanNode) -> Vec<[usize; 2]> {
    let mut keys = match plan {
        PlanNode::HashJoin { left_key, right_key, .. } => vec![[*left_key, *right_key]],
        _ => vec![],
    };
    keys.extend(plan.children().into_iter().flat_map(join_keys));
    keys
}

fn cols(table: &str, cols: &[usize]) -> (String, Vec<usize>) {
    (table.to_string(), cols.to_vec())
}

/// The scans of the mix's join templates read 1–6 columns of the 20–34 their
/// joins used to carry; the exact lists, and the join keys that follow them.
#[test]
fn tpch_templates_prune_to_their_live_columns() {
    let catalog = tpch_catalog(StorageLayout::Columnar);

    let q8 = tpch::q8(1, tpch::TYPES[0]);
    let p8 = pruned(&q8, &catalog);
    assert_eq!(
        scans(&p8),
        [
            cols("region", &[0]),
            cols("nation", &[0, 2]),
            cols("customer", &[0, 1]),
            cols("orders", &[0, 1, 3]),
            cols("part", &[0]),
            cols("lineitem", &[0, 1, 4, 5]),
        ]
    );
    // region.#0 = nation.regionkey, nation.#0 = customer.nationkey,
    // customer.#0 = orders.custkey, orders.#0 = lineitem.orderkey (behind
    // part's one column), part.#0 = lineitem.partkey.
    assert_eq!(join_keys(&p8), [[0, 1], [0, 1], [0, 1], [0, 1], [0, 1]]);
    // Five joins emit 13 → 12 → 10 → 8 → 5 columns where they emitted 34 → 20.
    let widths: Vec<usize> = {
        let tw = |t: &str| table_width(&catalog, t);
        let mut out = Vec::new();
        let mut node = &p8;
        while let Some(child) = node.children().last().copied() {
            if matches!(node, PlanNode::HashJoin { .. }) {
                out.push(node.width(&tw).unwrap());
            }
            node = child;
        }
        out
    };
    assert_eq!(widths, [13, 12, 10, 8, 5]);

    let q19 = tpch::q19(tpch::BRANDS[0], tpch::BRANDS[1], 5);
    let p19 = pruned(&q19, &catalog);
    assert_eq!(scans(&p19), [cols("part", &[0, 1, 3, 4]), cols("lineitem", &[1, 3, 4, 5])]);
    assert_eq!(join_keys(&p19), [[0, 0]]);

    let q12 = tpch::q12(tpch::SHIPMODES[0], tpch::SHIPMODES[1], 365);
    let p12 = pruned(&q12, &catalog);
    assert_eq!(scans(&p12), [cols("orders", &[0]), cols("lineitem", &[0, 12])]);
    assert_eq!(join_keys(&p12), [[0, 0]]);

    assert_eq!(scans(&pruned(&tpch::q1(90), &catalog)), [cols("lineitem", &[3, 4, 5, 6, 7, 8])]);

    for plan in [q8, q19, q12, tpch::q1(90)] {
        let again = pruned(&plan, &catalog);
        assert_eq!(pruned(&again, &catalog), again, "idempotent");
        assert_eq!(again.node_count(), plan.node_count(), "same shape");
        // What `explain` prints tells the two apart, as their signatures do.
        assert_ne!(again.signature(), plan.signature());
        assert_ne!(again.explain(), plan.explain());
    }
}

/// Every plan the workloads, the planner and the fuzz generator produce.
fn seeded_plans(catalog: &Catalog) -> Vec<(String, PlanNode)> {
    let mut rng = StdRng::seed_from_u64(0x11FE);
    let mut plans = Vec::new();
    for &q in MIX.iter() {
        for draw in 0..8 {
            plans.push((format!("Q{q} draw {draw}"), tpch::query(q, &mut rng)));
        }
    }
    for draw in 0..3 {
        let date = rng.gen_range(200..=tpch::DATE_MAX - 365);
        plans.push((format!("q3 draw {draw}"), tpch::q3(rng.gen_range(0..10), date)));
        plans.push((format!("q5 draw {draw}"), tpch::q5(tpch::REGIONS[draw], date)));
        plans.push((format!("q10 draw {draw}"), tpch::q10(date)));
        plans.push((format!("merge q4 draw {draw}"), tpch::q4(date, JoinFlavor::Merge)));
    }
    let opts = PlannerOptions;
    let cross = "SELECT r_name, n_name FROM region, nation WHERE n_nationkey < 4";
    let planned = plan_sql(catalog, cross, &opts).unwrap();
    assert!(planned.plan.explain().contains("nljoin"), "{}", planned.plan.explain());
    plans.push(("planner cross product".into(), (*planned.plan).clone()));
    for draw in 0..32 {
        let text = random_shape(&mut rng).shuffled(&mut rng);
        let planned = plan_sql(catalog, &text, &opts).unwrap();
        plans.push((format!("fuzz {draw}: {text}"), (*planned.plan).clone()));
    }
    plans
}

#[test]
fn pruned_plans_answer_exactly_as_submitted_plans() {
    let mut checked = 0;
    let mut rewritten = 0;
    for layout in [StorageLayout::Row, StorageLayout::Columnar] {
        let catalog = tpch_catalog(layout);
        let ctx = ExecContext::new(catalog.clone());
        let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
        for (name, plan) in seeded_plans(&catalog) {
            let at = format!("{layout:?}, {name}");
            let live = pruned(&plan, &catalog);
            let want = exec_run(&plan, &ctx).unwrap_or_else(|e| panic!("{at}: {e}"));
            let got = exec_run(&live, &ctx).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(got, want, "{at}: iterator engine, row for row:\n{}", live.explain());
            let staged = engine.submit(plan.clone()).unwrap().try_collect();
            let staged = staged.unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(sorted(staged), sorted(want), "{at}: staged engine:\n{}", live.explain());
            checked += 1;
            rewritten += (live != plan) as usize;
        }
        assert_eq!(engine.metrics().snapshot().worker_panics, 0);
    }
    assert!(checked >= 200, "{checked} plans");
    assert!(rewritten * 10 >= checked * 9, "only {rewritten} of {checked} plans were rewritten");
}

/// Packets carry the pruned subtrees' signatures, and two Q19s with
/// different brands prune to the same `part ⋈ lineitem`: submitted while
/// `lineitem` is exclusively locked (no scanner claims a page, so the first
/// join cannot emit and its attach window stays open), the second join
/// attaches to the first — operator-level OSP survives the rewrite.
#[test]
fn same_template_queries_still_share_their_join() {
    let catalog = tpch_catalog(StorageLayout::Columnar);
    let ctx = ExecContext::new(catalog.clone());
    let plans = [
        tpch::q19(tpch::BRANDS[0], tpch::BRANDS[1], 4),
        tpch::q19(tpch::BRANDS[2], tpch::BRANDS[3], 9),
    ];
    let want: Vec<_> = plans.iter().map(|p| exec_run(p, &ctx).unwrap()).collect();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let gate = catalog.locks().lock_exclusive("lineitem");
    let handles: Vec<_> = plans.iter().map(|p| engine.submit(p.clone()).unwrap()).collect();
    drop(gate);
    // Sharers of one scan must be drained concurrently.
    let got: Vec<_> = std::thread::scope(|s| {
        let drains: Vec<_> =
            handles.into_iter().map(|h| s.spawn(|| h.try_collect().unwrap())).collect();
        drains.into_iter().map(|d| d.join().unwrap()).collect()
    });
    assert_eq!(got, want);
    let snap = engine.metrics().snapshot();
    let on_join = snap.per_engine_attaches.get("hashjoin").copied().unwrap_or(0);
    assert!(on_join >= 1, "the second Q19 must ride the first one's join: {snap:?}");
}

/// A scan projection past the table's width used to pass `validate` and
/// panic inside the scanner (`worker_panics` 1, an `Exec` error at collect);
/// it is a plan error at submit, as in the iterator engine. So is a
/// predicate column past the width, which the scanner used to read as "no
/// row passes".
#[test]
fn out_of_range_scan_projection_is_a_plan_error_at_submit() {
    let catalog = tpch_catalog(StorageLayout::Row);
    catalog.create_index("orders", "o_custkey").unwrap();
    let ctx = ExecContext::new(catalog.clone());
    let engine = QPipe::new(catalog, QPipeConfig::default());
    let projection = Some(vec![0, 99]);
    let bad = [
        PlanNode::TableScan {
            table: "region".into(),
            predicate: None,
            projection: projection.clone(),
            ordered: false,
        },
        PlanNode::ClusteredIndexScan {
            table: "orders".into(),
            lo: None,
            hi: Some(Value::Int(10)),
            predicate: None,
            projection: projection.clone(),
            ordered: true,
        },
        PlanNode::UnclusteredIndexScan {
            table: "orders".into(),
            column: "o_custkey".into(),
            lo: None,
            hi: Some(Value::Int(10)),
            predicate: None,
            projection,
        },
    ];
    for scan in bad {
        // At the root and below a join alike.
        for plan in [scan.clone(), PlanNode::scan("nation").hash_join(scan, 0, 0)] {
            let oracle = exec_run(&plan, &ctx);
            assert!(matches!(oracle, Err(QError::Plan(_))), "{oracle:?}");
            match engine.submit(plan) {
                Err(QError::Plan(msg)) => assert!(msg.contains("99"), "{msg}"),
                Err(other) => panic!("expected a plan error, got {other}"),
                Ok(_) => panic!("a projection past the table's width must not be admitted"),
            }
        }
    }
    assert_eq!(engine.metrics().snapshot().worker_panics, 0);
    // A predicate column past the width is refused the same way by both
    // engines, also where no row reaches it: behind a conjunct no row
    // passes, and over a clustered range no row falls in.
    let never = Expr::and([Expr::col(0).lt(Expr::lit(0)), Expr::col(99).eq(Expr::lit(1))]);
    let past = [
        PlanNode::scan_filtered("region", Expr::col(99).eq(Expr::lit(1)))
            .aggregate(vec![], vec![AggSpec::count_star()]),
        PlanNode::scan_filtered("region", never),
        PlanNode::ClusteredIndexScan {
            table: "orders".into(),
            lo: Some(Value::Int(10)),
            hi: Some(Value::Int(5)),
            predicate: Some(Expr::col(99).eq(Expr::lit(1))),
            projection: None,
            ordered: true,
        },
    ];
    for plan in past {
        let oracle = exec_run(&plan, &ctx);
        assert!(matches!(oracle, Err(QError::Plan(_))), "{oracle:?}");
        match engine.submit(plan) {
            Err(QError::Plan(msg)) => assert!(msg.contains("99"), "{msg}"),
            Err(other) => panic!("expected a plan error, got {other}"),
            Ok(_) => panic!("a predicate column past the table's width must not be admitted"),
        }
    }
}
