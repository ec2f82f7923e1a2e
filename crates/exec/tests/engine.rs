//! End-to-end tests for the conventional iterator engine over real storage.

use qpipe_common::{DataType, Metrics, Schema, Tuple, Value};
use qpipe_exec::expr::Expr;
use qpipe_exec::iter::{build, collect, run, ExecConfig, ExecContext};
use qpipe_exec::plan::{AggSpec, PlanNode, SortKey};
use qpipe_storage::{BufferPool, BufferPoolConfig, Catalog, DiskConfig, PolicyKind, SimDisk};

fn setup() -> ExecContext {
    let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
    let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(512, PolicyKind::Lru));
    let catalog = Catalog::new(disk, pool);

    // orders(okey, custkey, total): okey = 0..N, custkey = okey % 100.
    let n = 5000i64;
    let orders: Vec<Tuple> = (0..n)
        .map(|i| vec![Value::Int(i), Value::Int(i % 100), Value::Float((i * 3 % 1000) as f64)])
        .collect();
    catalog
        .create_table(
            "orders",
            Schema::of(&[
                ("okey", DataType::Int),
                ("custkey", DataType::Int),
                ("total", DataType::Float),
            ]),
            orders,
            Some(0),
        )
        .unwrap();

    // lineitem(okey, qty, price): 3 lines per order.
    let lineitem: Vec<Tuple> = (0..n * 3)
        .map(|i| {
            vec![Value::Int(i / 3), Value::Int(i % 7 + 1), Value::Float(((i * 13) % 500) as f64)]
        })
        .collect();
    catalog
        .create_table(
            "lineitem",
            Schema::of(&[
                ("okey", DataType::Int),
                ("qty", DataType::Int),
                ("price", DataType::Float),
            ]),
            lineitem,
            Some(0),
        )
        .unwrap();

    // customers unsorted with a secondary index on ckey.
    let customers: Vec<Tuple> = (0..100i64)
        .map(|i| vec![Value::Int((i * 37) % 100), Value::str(format!("cust{i}"))])
        .collect();
    catalog
        .create_table(
            "customers",
            Schema::of(&[("ckey", DataType::Int), ("name", DataType::Str)]),
            customers,
            None,
        )
        .unwrap();
    catalog.create_index("customers", "ckey").unwrap();

    ExecContext::new(catalog)
}

#[test]
fn full_table_scan_counts() {
    let ctx = setup();
    let rows = run(&PlanNode::scan("orders"), &ctx).unwrap();
    assert_eq!(rows.len(), 5000);
}

#[test]
fn filtered_scan() {
    let ctx = setup();
    let plan = PlanNode::scan_filtered("orders", Expr::col(1).eq(Expr::lit(7)));
    let rows = run(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 50);
    assert!(rows.iter().all(|r| r[1] == Value::Int(7)));
}

#[test]
fn scan_with_projection() {
    let ctx = setup();
    let plan = PlanNode::TableScan {
        table: "orders".into(),
        predicate: Some(Expr::col(0).lt(Expr::lit(10))),
        projection: Some(vec![2, 0]),
        ordered: false,
    };
    let rows = run(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 10);
    assert_eq!(rows[0].len(), 2);
    assert!(matches!(rows[0][0], Value::Float(_)));
}

#[test]
fn clustered_index_range_scan() {
    let ctx = setup();
    let plan = PlanNode::ClusteredIndexScan {
        table: "orders".into(),
        lo: Some(Value::Int(100)),
        hi: Some(Value::Int(199)),
        predicate: None,
        projection: None,
        ordered: true,
    };
    let rows = run(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 100);
    // Must come back in key order.
    for w in rows.windows(2) {
        assert!(w[0][0] <= w[1][0]);
    }
    assert_eq!(rows[0][0], Value::Int(100));
    assert_eq!(rows[99][0], Value::Int(199));
}

#[test]
fn clustered_scan_reads_fewer_blocks_than_full() {
    let ctx = setup();
    let m = ctx.catalog.disk().metrics().clone();
    ctx.catalog.pool().clear();
    let before = m.snapshot().disk_blocks_read;
    run(
        &PlanNode::ClusteredIndexScan {
            table: "orders".into(),
            lo: Some(Value::Int(0)),
            hi: Some(Value::Int(49)),
            predicate: None,
            projection: None,
            ordered: true,
        },
        &ctx,
    )
    .unwrap();
    let narrow = m.snapshot().disk_blocks_read - before;
    ctx.catalog.pool().clear();
    let before = m.snapshot().disk_blocks_read;
    run(&PlanNode::scan("orders"), &ctx).unwrap();
    let full = m.snapshot().disk_blocks_read - before;
    assert!(narrow * 4 < full, "range scan {narrow} blocks vs full {full}");
}

#[test]
fn unclustered_index_scan_fetches_matches() {
    let ctx = setup();
    let plan = PlanNode::UnclusteredIndexScan {
        table: "customers".into(),
        column: "ckey".into(),
        lo: Some(Value::Int(10)),
        hi: Some(Value::Int(12)),
        predicate: None,
        projection: None,
    };
    let rows = run(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 3);
    for r in &rows {
        let k = r[0].as_int().unwrap();
        assert!((10..=12).contains(&k));
    }
}

#[test]
fn sort_in_memory_and_external_agree() {
    let ctx = setup();
    let sorted_mem =
        run(&PlanNode::scan("orders").sort(vec![SortKey::asc(1), SortKey::desc(0)]), &ctx).unwrap();
    // Force external sort with a tiny budget.
    let small = ExecContext::with_config(
        ctx.catalog.clone(),
        ExecConfig { sort_budget: 128, ..ExecConfig::default() },
    );
    let sorted_ext =
        run(&PlanNode::scan("orders").sort(vec![SortKey::asc(1), SortKey::desc(0)]), &small)
            .unwrap();
    assert_eq!(sorted_mem.len(), 5000);
    assert_eq!(sorted_mem, sorted_ext, "external sort must match in-memory sort");
    for w in sorted_mem.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        assert!(a[1] < b[1] || (a[1] == b[1] && a[0] >= b[0]), "sort order violated");
    }
}

#[test]
fn hash_join_matches_merge_join() {
    let ctx = setup();
    let hj = PlanNode::scan("orders").hash_join(PlanNode::scan("lineitem"), 0, 0);
    let mut hj_rows = run(&hj, &ctx).unwrap();
    let mj = PlanNode::scan("orders").merge_join(PlanNode::scan("lineitem"), 0, 0);
    let mut mj_rows = run(&mj, &ctx).unwrap();
    assert_eq!(hj_rows.len(), 15000, "3 lineitems per order");
    let key = |t: &Tuple| (t[0].as_int().unwrap(), t[3].as_int().unwrap(), t[4].as_int().unwrap());
    hj_rows.sort_by_key(key);
    mj_rows.sort_by_key(key);
    assert_eq!(hj_rows, mj_rows);
}

#[test]
fn grace_hash_join_matches_in_memory() {
    let ctx = setup();
    let plan = PlanNode::scan("orders").hash_join(PlanNode::scan("lineitem"), 0, 0);
    let mem = run(&plan, &ctx).unwrap();
    let small = ExecContext::with_config(
        ctx.catalog.clone(),
        ExecConfig { hash_budget: 100, ..ExecConfig::default() },
    );
    let mut grace = run(&plan, &small).unwrap();
    let mut mem = mem;
    let key = |t: &Tuple| (t[0].as_int().unwrap(), t[3].as_int().unwrap(), t[4].as_int().unwrap());
    mem.sort_by_key(key);
    grace.sort_by_key(key);
    assert_eq!(mem, grace, "grace join must match in-memory join");
}

#[test]
fn nested_loop_join_with_inequality() {
    let ctx = setup();
    // Customers with ckey < 3 joined to orders with okey < 5 on custkey != ckey.
    let left = PlanNode::scan_filtered("orders", Expr::col(0).lt(Expr::lit(5)));
    let right = PlanNode::scan_filtered("customers", Expr::col(0).lt(Expr::lit(3)));
    let plan = PlanNode::NestedLoopJoin {
        left: std::sync::Arc::new(left),
        right: std::sync::Arc::new(right),
        // orders has 3 columns; customers.ckey is at joined position 3.
        predicate: Expr::col(1).ge(Expr::col(3)),
    };
    let rows = run(&plan, &ctx).unwrap();
    for r in &rows {
        assert!(r[1] >= r[3]);
    }
    // Verify count against a brute-force expectation: orders 0..5 have
    // custkey = okey, customers ckeys 0,1,2 → pairs where okey >= ckey.
    assert_eq!(rows.len(), 3 + 3 + 3 + 2 + 1);
}

#[test]
fn aggregate_over_join() {
    let ctx = setup();
    // Total lineitem count per customer bucket 0..100 via orders ⋈ lineitem.
    let plan = PlanNode::scan("orders")
        .hash_join(PlanNode::scan("lineitem"), 0, 0)
        .aggregate(vec![1], vec![AggSpec::count_star()]);
    let rows = run(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 100);
    let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(total, 15000);
}

#[test]
fn merge_join_over_clustered_scans_preserves_order_assumption() {
    let ctx = setup();
    let left = PlanNode::ClusteredIndexScan {
        table: "orders".into(),
        lo: None,
        hi: None,
        predicate: None,
        projection: None,
        ordered: true,
    };
    let right = PlanNode::ClusteredIndexScan {
        table: "lineitem".into(),
        lo: None,
        hi: None,
        predicate: None,
        projection: None,
        ordered: true,
    };
    let rows = run(&left.merge_join(right, 0, 0), &ctx).unwrap();
    assert_eq!(rows.len(), 15000);
}

#[test]
fn projection_expressions() {
    let ctx = setup();
    let plan = PlanNode::scan_filtered("lineitem", Expr::col(0).lt(Expr::lit(2)))
        .project(vec![Expr::col(1).mul(Expr::col(2)), Expr::col(0)]);
    let rows = run(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 6);
    for r in rows {
        assert!(matches!(r[0], Value::Float(_) | Value::Int(_)));
    }
}

#[test]
fn build_rejects_missing_table() {
    let ctx = setup();
    assert!(build(&PlanNode::scan("nope"), &ctx).is_err());
}

#[test]
fn collect_drains_everything() {
    let ctx = setup();
    let it = build(&PlanNode::scan("customers"), &ctx).unwrap();
    assert_eq!(collect(it).unwrap().len(), 100);
}
