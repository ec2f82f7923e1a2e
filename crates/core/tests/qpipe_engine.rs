//! End-to-end tests for the QPipe engine: correctness vs the conventional
//! engine, OSP sharing behaviour, circular scans, wrapped merge joins,
//! baseline mode, and update locking.

use qpipe_common::trace::TraceEvent;
use qpipe_common::{DataType, Metrics, Schema, Tuple, Value};
use qpipe_core::engine::{QPipe, QPipeConfig};
use qpipe_exec::expr::Expr;
use qpipe_exec::iter::{run, ExecConfig, ExecContext};
use qpipe_exec::plan::{AggSpec, PlanNode, SortKey};
use qpipe_storage::{BufferPool, BufferPoolConfig, Catalog, DiskConfig, PolicyKind, SimDisk};
use std::sync::Arc;
use std::time::Duration;

fn setup() -> Arc<Catalog> {
    let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
    let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(64, PolicyKind::Lru));
    let catalog = Catalog::new(disk, pool);
    let n = 4000i64;
    let orders: Vec<Tuple> = (0..n)
        .map(|i| vec![Value::Int(i), Value::Int(i % 50), Value::Float((i % 97) as f64)])
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
    let lineitem: Vec<Tuple> = (0..n * 2)
        .map(|i| vec![Value::Int(i / 2), Value::Int(i % 11), Value::Float((i % 31) as f64)])
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
    catalog
}

fn q6_like(lo: i64) -> PlanNode {
    PlanNode::scan_filtered("lineitem", Expr::col(1).ge(Expr::lit(lo)))
        .aggregate(vec![], vec![AggSpec::count_star(), AggSpec::sum(Expr::col(2))])
}

#[test]
fn simple_scan_matches_iterator_engine() {
    let catalog = setup();
    let expected = run(&PlanNode::scan("orders"), &ExecContext::new(catalog.clone())).unwrap();
    let engine = QPipe::new(catalog, QPipeConfig::default());
    let rows = engine.submit(PlanNode::scan("orders")).unwrap().try_collect().unwrap();
    assert_eq!(rows.len(), expected.len());
}

#[test]
fn aggregate_query_matches() {
    let catalog = setup();
    let expected = run(&q6_like(3), &ExecContext::new(catalog.clone())).unwrap();
    let engine = QPipe::new(catalog, QPipeConfig::default());
    let rows = engine.submit(q6_like(3)).unwrap().try_collect().unwrap();
    assert_eq!(rows, expected);
}

#[test]
fn hash_join_agg_matches() {
    let catalog = setup();
    let plan = PlanNode::scan("orders")
        .hash_join(PlanNode::scan("lineitem"), 0, 0)
        .aggregate(vec![], vec![AggSpec::count_star()]);
    let expected = run(&plan, &ExecContext::new(catalog.clone())).unwrap();
    let engine = QPipe::new(catalog, QPipeConfig::default());
    let rows = engine.submit(plan).unwrap().try_collect().unwrap();
    assert_eq!(rows, expected);
    assert_eq!(rows[0][0], Value::Int(8000));
}

#[test]
fn sort_query_matches() {
    let catalog = setup();
    let plan = PlanNode::scan_filtered("orders", Expr::col(1).lt(Expr::lit(5)))
        .sort(vec![SortKey::desc(2), SortKey::asc(0)]);
    let expected = run(&plan, &ExecContext::new(catalog.clone())).unwrap();
    let engine = QPipe::new(catalog, QPipeConfig::default());
    let rows = engine.submit(plan).unwrap().try_collect().unwrap();
    assert_eq!(rows, expected);
}

#[test]
fn identical_concurrent_aggregates_share_one_host() {
    let catalog = setup();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let m = engine.metrics().clone();
    let before = m.snapshot();
    // Submit the same query several times in a burst. A burst alone does not
    // make them concurrent: a query can finish before the next is submitted.
    // The first scanner waits at lineitem's lock until all four are in.
    let gate = catalog.locks().lock_exclusive("lineitem");
    let handles: Vec<_> = (0..4).map(|_| engine.submit(q6_like(2)).unwrap()).collect();
    drop(gate);
    let results: Vec<Vec<Tuple>> = handles.into_iter().map(|h| h.try_collect().unwrap()).collect();
    for r in &results {
        assert_eq!(r, &results[0], "all queries must see identical results");
    }
    let delta = m.snapshot().delta_since(&before);
    assert!(
        delta.osp_attaches >= 3,
        "expected satellite attaches (scan and/or agg), got {}",
        delta.osp_attaches
    );
}

/// The OSP check runs top-down: a packet that attaches as a satellite is the
/// last of its query dispatched, so the subtree below it never reaches a
/// µEngine or the scan manager. The exclusive lock keeps the first query's
/// aggregate from emitting until both are in.
#[test]
fn satellite_subtree_is_never_dispatched() {
    let catalog = setup();
    let expected = run(&q6_like(2), &ExecContext::new(catalog.clone())).unwrap();
    let config = QPipeConfig {
        exec: ExecConfig { tracing: true, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog.clone(), config);
    let before = engine.metrics().snapshot();
    let gate = catalog.locks().lock_exclusive("lineitem");
    let host = engine.submit(q6_like(2)).unwrap();
    let satellite = engine.submit(q6_like(2)).unwrap();
    drop(gate);
    let journal = satellite.trace().expect("tracing is on");
    assert_eq!(host.try_collect().unwrap(), expected);
    assert_eq!(satellite.try_collect().unwrap(), expected);
    let attaches = engine.metrics().snapshot().delta_since(&before).per_engine_attaches;
    assert_eq!(attaches.get("agg"), Some(&1), "the second aggregate rides the first: {attaches:?}");
    assert_eq!(attaches.get("scan"), None, "no scan attached: {attaches:?}");
    let events: Vec<_> = journal.events().into_iter().map(|e| e.event).collect();
    assert!(events.contains(&TraceEvent::OspAttach { engine: "agg" }), "{events:?}");
    assert!(!events.contains(&TraceEvent::PacketDispatched { op: "scan" }), "{events:?}");
    assert!(!events.contains(&TraceEvent::OspAttach { engine: "scan" }), "{events:?}");
}

#[test]
fn concurrent_scans_with_different_predicates_share_scan() {
    let catalog = setup();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let m = engine.metrics().clone();
    let before = m.snapshot();
    // Different predicates → different signatures, but same table scan.
    // The first scanner waits at lineitem's lock until both are submitted,
    // so the second always finds it in flight.
    let lock = catalog.locks().lock_exclusive("lineitem");
    let h1 = engine.submit(q6_like(1)).unwrap();
    let h2 = engine.submit(q6_like(7)).unwrap();
    drop(lock);
    let r1 = h1.try_collect().unwrap();
    let r2 = h2.try_collect().unwrap();
    assert_ne!(r1, r2);
    let delta = m.snapshot().delta_since(&before);
    let table_pages = catalog.table("lineitem").unwrap().num_pages().unwrap();
    assert!(
        delta.per_file_reads.get("lineitem").copied().unwrap_or(0) <= table_pages + 2,
        "two queries should share one physical scan: read {} of {} pages",
        delta.per_file_reads.get("lineitem").copied().unwrap_or(0),
        table_pages
    );
    assert!(delta.osp_attaches >= 1, "scan attach expected");
}

#[test]
fn baseline_mode_never_attaches() {
    let catalog = setup();
    let engine = QPipe::new(catalog, QPipeConfig::baseline());
    let m = engine.metrics().clone();
    let before = m.snapshot();
    let h1 = engine.submit(q6_like(1)).unwrap();
    let h2 = engine.submit(q6_like(1)).unwrap();
    let (r1, r2) = (h1.try_collect().unwrap(), h2.try_collect().unwrap());
    assert_eq!(r1, r2);
    let delta = m.snapshot().delta_since(&before);
    assert_eq!(delta.osp_attaches, 0, "baseline must not share");
}

#[test]
fn late_arrival_scan_wraps_circularly() {
    let catalog = setup();
    // Tiny buffer pool so pages evict quickly; instant disk.
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let m = engine.metrics().clone();
    // First query starts scanning; second arrives while in progress.
    let h1 = engine.submit(q6_like(1)).unwrap();
    std::thread::sleep(Duration::from_millis(2));
    let h2 = engine.submit(q6_like(4)).unwrap();
    let r1 = h1.try_collect().unwrap();
    let r2 = h2.try_collect().unwrap();
    // Both correct despite the second one starting mid-file.
    let ctx = ExecContext::new(catalog);
    assert_eq!(r1, run(&q6_like(1), &ctx).unwrap());
    assert_eq!(r2, run(&q6_like(4), &ctx).unwrap());
    // Wrap may or may not happen depending on timing; correctness above is
    // the hard requirement. If an attach happened there may be a wrap.
    let _ = m.snapshot().circular_wraps;
}

#[test]
fn merge_join_on_wrapped_scan_is_correct() {
    // The Figure 9 machinery: ordered clustered scans under a merge join with
    // an order-insensitive parent; the second query's big-side scan attaches
    // to the in-progress scan and the join restarts at the wrap.
    let catalog = setup();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());

    let mj_plan = || {
        let left = PlanNode::ClusteredIndexScan {
            table: "lineitem".into(),
            lo: None,
            hi: None,
            predicate: None,
            projection: None,
            ordered: true,
        };
        let right = PlanNode::ClusteredIndexScan {
            table: "orders".into(),
            lo: None,
            hi: None,
            predicate: None,
            projection: None,
            ordered: true,
        };
        left.merge_join(right, 0, 0)
            .aggregate(vec![], vec![AggSpec::count_star(), AggSpec::sum(Expr::col(1))])
    };
    let expected = run(&mj_plan(), &ExecContext::new(catalog.clone())).unwrap();

    let h1 = engine.submit(mj_plan()).unwrap();
    // Let query 1 get partway through the lineitem scan.
    std::thread::sleep(Duration::from_millis(3));
    let h2 = engine.submit(mj_plan()).unwrap();
    let r1 = h1.try_collect().unwrap();
    let r2 = h2.try_collect().unwrap();
    assert_eq!(r1, expected, "host query result");
    assert_eq!(r2, expected, "satellite query result (wrap restart)");
}

#[test]
fn many_concurrent_mixed_queries_all_correct() {
    let catalog = setup();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let ctx = ExecContext::new(catalog);
    let plans: Vec<PlanNode> = (0..10)
        .map(|i| match i % 3 {
            0 => q6_like(i as i64 % 8),
            1 => PlanNode::scan("orders")
                .hash_join(PlanNode::scan("lineitem"), 0, 0)
                .aggregate(vec![1], vec![AggSpec::count_star()]),
            // A scan that attaches to a running one gets its pages wrapped,
            // so rows tied on `total` may arrive in either order; the key
            // `okey` breaks the ties and makes the expected order unique.
            _ => PlanNode::scan_filtered("orders", Expr::col(1).lt(Expr::lit(10)))
                .sort(vec![SortKey::asc(2), SortKey::asc(0)]),
        })
        .collect();
    let expected: Vec<Vec<Tuple>> = plans.iter().map(|p| run(p, &ctx).unwrap()).collect();
    let handles: Vec<_> = plans.iter().map(|p| engine.submit(p.clone()).unwrap()).collect();
    for (h, exp) in handles.into_iter().zip(expected) {
        assert_eq!(h.try_collect().unwrap(), exp);
    }
}

#[test]
fn update_blocks_scans_until_released() {
    let catalog = setup();
    let engine = QPipe::new(catalog, QPipeConfig::default());
    // Exclusive-lock the table via the update path in a background thread,
    // then check a scan still completes (it waits, then proceeds).
    let e2 = engine.clone();
    let upd = std::thread::spawn(move || {
        e2.submit_update("orders", 50).unwrap();
    });
    let rows = engine.submit(PlanNode::scan("orders")).unwrap().try_collect().unwrap();
    assert_eq!(rows.len(), 4000);
    upd.join().unwrap();
}

#[test]
fn submit_rejects_bad_plans() {
    let catalog = setup();
    let engine = QPipe::new(catalog, QPipeConfig::default());
    assert!(engine.submit(PlanNode::scan("missing")).is_err());
    assert!(engine
        .submit(PlanNode::UnclusteredIndexScan {
            table: "orders".into(),
            column: "nope".into(),
            lo: None,
            hi: None,
            predicate: None,
            projection: None,
        })
        .is_err());
}

#[test]
fn unclustered_index_scan_through_qpipe() {
    let catalog = setup();
    catalog.create_index("orders", "custkey").unwrap();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let plan = PlanNode::UnclusteredIndexScan {
        table: "orders".into(),
        column: "custkey".into(),
        lo: Some(Value::Int(7)),
        hi: Some(Value::Int(7)),
        predicate: None,
        projection: None,
    };
    let rows = engine.submit(plan.clone()).unwrap().try_collect().unwrap();
    let expected = run(&plan, &ExecContext::new(catalog)).unwrap();
    assert_eq!(rows.len(), expected.len());
    assert_eq!(rows.len(), 80);
}

#[test]
fn response_time_metrics_recorded() {
    let catalog = setup();
    let engine = QPipe::new(catalog, QPipeConfig::default());
    let before = engine.metrics().snapshot();
    engine.submit(q6_like(1)).unwrap().try_collect().unwrap();
    engine.submit(q6_like(2)).unwrap().try_collect().unwrap();
    let latency = engine.metrics().snapshot().delta_since(&before).query_latency_us;
    assert_eq!(latency.count, 2, "every completed query is timed");
    assert!(latency.p50 > 0);
}

#[test]
fn shared_pipeline_deadlock_is_detected_and_resolved() {
    // The §3.3 scenario: two queries consume two *shared* operators in
    // opposite orders. NLJoin buffers its right input fully before streaming
    // the left, so:
    //   Q1 = NLJ(left = sort(t1), right = sort(t2))  — drains t2 first
    //   Q2 = NLJ(left = sort(t2), right = sort(t1))  — drains t1 first
    // With OSP both sorts are shared hosts broadcasting in lockstep with the
    // slowest consumer; with single-batch pipes each host fills the queue of
    // the query that is not currently draining it and blocks — a genuine
    // waits-for cycle that only the deadlock detector can break.
    let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
    let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(64, PolicyKind::Lru));
    let catalog = Catalog::new(disk, pool);
    let n = 4000i64;
    for t in ["t1", "t2"] {
        catalog
            .create_table(
                t,
                Schema::of(&[("k", DataType::Int)]),
                (0..n).map(|i| vec![Value::Int(i)]).collect(),
                None,
            )
            .unwrap();
    }
    let config = QPipeConfig {
        pipe: qpipe_core::pipe::PipeConfig { capacity: 1 },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    let sorted = |t: &str| PlanNode::scan(t).sort(vec![SortKey::asc(0)]);
    // A join predicate with a tiny match count keeps the output small.
    let pred = Expr::col(0).add(Expr::lit(1)).eq(Expr::col(1));
    let q1 = PlanNode::NestedLoopJoin {
        left: Arc::new(sorted("t1")),
        right: Arc::new(sorted("t2")),
        predicate: pred.clone(),
    }
    .aggregate(vec![], vec![AggSpec::count_star()]);
    let q2 = PlanNode::NestedLoopJoin {
        left: Arc::new(sorted("t2")),
        right: Arc::new(sorted("t1")),
        predicate: pred,
    }
    .aggregate(vec![], vec![AggSpec::count_star()]);

    let h1 = engine.submit(q1).unwrap();
    let h2 = engine.submit(q2).unwrap();
    let t1 = std::thread::spawn(move || h1.try_collect().unwrap());
    let t2 = std::thread::spawn(move || h2.try_collect().unwrap());
    let r1 = t1.join().unwrap();
    let r2 = t2.join().unwrap();
    assert_eq!(r1[0][0], Value::Int(n - 1), "q1 matches k+1=k pairs");
    assert_eq!(r2[0][0], Value::Int(n - 1), "q2 matches k+1=k pairs");
    // The run must have needed (and survived) at least one resolution when
    // both sorts were actually shared; if the attach raced and the queries
    // ran independently there is trivially no deadlock, so only assert when
    // sharing happened.
    let snap = engine.metrics().snapshot();
    if snap.osp_attaches >= 2 {
        assert!(
            snap.deadlocks_resolved >= 1,
            "shared opposite-order consumption must trigger the detector (attaches={}, resolved={})",
            snap.osp_attaches,
            snap.deadlocks_resolved
        );
    }
}
