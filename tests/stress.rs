//! Concurrency stress tests: many random queries against randomized engine
//! configurations, always checked against the sequential iterator engine.
//! This is where the paper's machinery (shared scans, host attach windows,
//! cancellation, deadlock resolution) earns its keep.

mod common;

use common::assert_rows_equivalent;
use qpipe::prelude::*;
use qpipe::workloads::tpch::{build_tpch, q4, query, JoinFlavor, TpchScale, MIX};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

fn fresh_catalog(seed: u64) -> Arc<Catalog> {
    let catalog = qpipe::quick_system(DiskConfig::instant(), 48);
    build_tpch(&catalog, TpchScale::tiny(), seed).unwrap();
    catalog
}

/// Run `plans` concurrently on `engine` and return per-plan results.
fn run_concurrent_rows(engine: &Arc<QPipe>, plans: &[PlanNode]) -> Vec<Vec<Tuple>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|p| {
                let engine = engine.clone();
                let plan = p.clone();
                s.spawn(move || engine.submit(plan).unwrap().collect())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Run `plans` concurrently on `engine` and return per-plan row counts.
fn run_concurrent(engine: &Arc<QPipe>, plans: &[PlanNode]) -> Vec<usize> {
    run_concurrent_rows(engine, plans).iter().map(Vec::len).collect()
}

#[test]
fn random_mix_under_random_configs_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xD15EA5E);
    for round in 0..6 {
        let catalog = fresh_catalog(round as u64 + 1);
        // Reference answers from the sequential iterator engine.
        let plans: Vec<PlanNode> = (0..8)
            .map(|_| {
                let q = MIX[rng.gen_range(0..MIX.len())];
                query(q, &mut rng)
            })
            .collect();
        let ctx = ExecContext::new(catalog.clone());
        let expected: Vec<Vec<Tuple>> =
            plans.iter().map(|p| qpipe::exec::iter::run(p, &ctx).unwrap()).collect();

        let config = QPipeConfig {
            osp: rng.gen_bool(0.7),
            pipe: qpipe::core::pipe::PipeConfig {
                capacity: *[1usize, 2, 8, 32].get(rng.gen_range(0..4)).unwrap(),
            },
            host_backfill: rng.gen_range(0..16),
            ..QPipeConfig::default()
        };
        let engine = QPipe::new(catalog, config);
        let got = run_concurrent_rows(&engine, &plans);
        for (i, (got, expected)) in got.into_iter().zip(&expected).enumerate() {
            let ctx = format!("round {round}, query {i}, config {config:?}");
            assert_rows_equivalent(got, expected.clone(), &ctx);
        }
    }
}

#[test]
fn identical_query_storm_all_consistent() {
    let catalog = fresh_catalog(77);
    let ctx = ExecContext::new(catalog.clone());
    let engine = QPipe::new(catalog, QPipeConfig::default());
    let mut rng = StdRng::seed_from_u64(9);
    let plan = query(6, &mut rng);
    let expected = qpipe::exec::iter::run(&plan, &ctx).unwrap();
    for storm in 0..4 {
        let plans: Vec<PlanNode> = (0..12).map(|_| plan.clone()).collect();
        for (i, got) in run_concurrent_rows(&engine, &plans).into_iter().enumerate() {
            assert_rows_equivalent(got, expected.clone(), &format!("storm {storm}, query {i}"));
        }
    }
    assert!(engine.metrics().osp_attaches() > 10, "storms of identical queries must share heavily");
}

/// A cancelled host keeps serving its satellite. While the table's
/// exclusive lock holds the scan back, the second of two identical
/// aggregates attaches to the first one's aggregate host; the first is then
/// cancelled, and the second must still get the oracle's answer.
#[test]
fn cancelled_host_keeps_serving_its_satellite() {
    let catalog = qpipe::quick_system(DiskConfig::instant(), 64);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let rows = (0..5000).map(|i| vec![Value::Int(i % 97), Value::Int(i)]).collect();
    catalog.create_table("t", schema, rows, None).unwrap();
    let plan = PlanNode::scan("t")
        .aggregate(vec![0], vec![AggSpec::count_star(), AggSpec::sum(Expr::col(1))]);
    let expected = qpipe::exec::iter::run(&plan, &ExecContext::new(catalog.clone())).unwrap();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let gate = catalog.locks().lock_exclusive("t");
    let host = engine.submit(plan.clone()).unwrap();
    let satellite = engine.submit(plan).unwrap();
    host.cancel();
    drop(gate);
    assert_rows_equivalent(satellite.collect(), expected, "satellite of a cancelled host");
    assert!(engine.metrics().osp_attaches() >= 1, "the second aggregate attached to the first");
}

/// Rows a scanner keeps pending cannot wedge a query. One scan group serves
/// both sides of a hash join over `t`: the build side's 250 rows stay pending
/// until its last page, while the probe side's single-batch pipe fills at
/// once, because the join reads no probe row before its build side ends. The
/// join waits on the scanner, the scanner on the join: the cycle must be
/// broken, and the answer must be the oracle's.
#[test]
fn rows_pending_in_a_scanner_do_not_wedge_a_self_join() {
    let catalog = qpipe::quick_system(DiskConfig::instant(), 64);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let rows = (0..20_000).map(|i| vec![Value::Int(i % 500), Value::Int(i)]).collect();
    catalog.create_table("t", schema, rows, None).unwrap();
    let build = PlanNode::scan_filtered("t", Expr::col(1).lt(Expr::lit(250)));
    let plan = build.hash_join(PlanNode::scan("t"), 0, 0);
    let expected = qpipe::exec::iter::run(&plan, &ExecContext::new(catalog.clone())).unwrap();
    let config = QPipeConfig {
        pipe: qpipe::core::pipe::PipeConfig { capacity: 1 },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog.clone(), config);
    // Both scans join one group at page 0 while the exclusive lock holds the
    // scanner back.
    let gate = catalog.locks().lock_exclusive("t");
    let handle = engine.submit(plan).unwrap();
    drop(gate);
    assert_rows_equivalent(handle.collect(), expected, "hash self-join over one scan group");
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.osp_attaches, 1, "the probe-side scan rode the build side's group");
    assert!(snap.deadlocks_resolved >= 1, "the join/scanner cycle was broken");
}

/// Rows a host keeps pending cannot wedge a query either. The build side of
/// a hash self-join is a selective filter host, whose 250 surviving rows
/// stay pending until its input ends; one scan group feeds it and the probe
/// side, whose single-batch pipe fills at once. The join waits on the
/// filter, the filter on the scanner, the scanner on the join: the cycle
/// must be broken well before the deadline, and the answer must be the
/// oracle's.
#[test]
fn rows_pending_in_a_filter_host_do_not_wedge_a_self_join() {
    let catalog = qpipe::quick_system(DiskConfig::instant(), 64);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let rows = (0..20_000).map(|i| vec![Value::Int(i % 500), Value::Int(i)]).collect();
    catalog.create_table("t", schema, rows, None).unwrap();
    let build = PlanNode::scan("t").filter(Expr::col(1).lt(Expr::lit(250)));
    let plan = build.hash_join(PlanNode::scan("t"), 0, 0);
    let expected = qpipe::exec::iter::run(&plan, &ExecContext::new(catalog.clone())).unwrap();
    let config = QPipeConfig {
        pipe: qpipe::core::pipe::PipeConfig { capacity: 1 },
        exec: ExecConfig { query_deadline: Some(Duration::from_secs(60)), ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog.clone(), config);
    let gate = catalog.locks().lock_exclusive("t");
    let handle = engine.submit(plan).unwrap();
    drop(gate);
    let got = handle.try_collect().expect("the query must finish before its deadline");
    assert_rows_equivalent(got, expected, "hash self-join over a filter host");
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.osp_attaches, 1, "the probe-side scan rode the build side's group");
    assert!(snap.deadlocks_resolved >= 1, "the join/filter/scanner cycle was broken");
}

#[test]
fn tiny_pipes_with_sharing_never_wedge() {
    // The harshest liveness configuration: single-batch pipes, aggressive
    // sharing, queries whose subtrees overlap partially.
    let catalog = fresh_catalog(5);
    let config = QPipeConfig {
        pipe: qpipe::core::pipe::PipeConfig { capacity: 1 },
        host_backfill: 1,
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog.clone(), config);
    let ctx = ExecContext::new(catalog);
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..3 {
        let q4a = query(4, &mut rng);
        let q4b = q4a.clone();
        let q12 = query(12, &mut rng);
        let plans = vec![q4a, q4b, q12];
        let expected: Vec<usize> =
            plans.iter().map(|p| qpipe::exec::iter::run(p, &ctx).unwrap().len()).collect();
        let got = run_concurrent(&engine, &plans);
        assert_eq!(got, expected);
    }
}

/// A plan tree that shares nothing cannot contain a waits-for cycle: with OSP
/// off there is no deadlock to resolve, however hard single-batch pipes make
/// every producer and consumer block on each other. (The registry lags the
/// pipes — a notified waiter's edge outlives its wait — so a detector that
/// believes the snapshot "resolves" dozens here.)
#[test]
fn unshared_join_burst_resolves_no_deadlock() {
    let catalog = fresh_catalog(41);
    let ctx = ExecContext::new(catalog.clone());
    let plans: Vec<PlanNode> = (0..32).map(|i| q4(60 * i, JoinFlavor::Hash)).collect();
    let expected: Vec<Vec<Tuple>> =
        plans.iter().map(|p| qpipe::exec::iter::run(p, &ctx).unwrap()).collect();
    let config = QPipeConfig {
        pipe: qpipe::core::pipe::PipeConfig { capacity: 1 },
        ..QPipeConfig::baseline()
    };
    let engine = QPipe::new(catalog, config);
    assert_eq!(run_concurrent_rows(&engine, &plans), expected);
    assert_eq!(engine.metrics().snapshot().deadlocks_resolved, 0);
}

/// Acceptance bar for the admission/governor subsystem: with per-µEngine
/// depth D and M ≫ D submitted queries —
/// * at most D queries ever run concurrently against any µEngine,
/// * queries cancelled *while queued* never dispatch and settle cleanly,
/// * every surviving query completes with results identical to the serial
///   iterator engine,
/// * all tickets and memory leases return to baseline, and the governor
///   never granted more than the configured global memory budget.
#[test]
fn admission_under_churn_bounds_engines_and_returns_to_baseline() {
    use qpipe::core::admit::AdmitConfig;

    let catalog = fresh_catalog(404);
    let depth = 2;
    let global_mem = 8 * 1024;
    let config = QPipeConfig {
        exec: ExecConfig {
            sort_budget: 2048,
            hash_budget: 2048,
            global_budget: global_mem,
            ..ExecConfig::default()
        },
        admit: AdmitConfig { queue_depth: depth, max_queued: 256, ..AdmitConfig::default() },
        ..QPipeConfig::default()
    };
    let ctx = ExecContext::with_config(catalog.clone(), config.exec);
    let engine = QPipe::new(catalog, config);

    let mut rng = StdRng::seed_from_u64(0xAD417);
    let m = 18usize; // M ≫ D
    let plans: Vec<PlanNode> = (0..m).map(|i| query(MIX[i % MIX.len()], &mut rng)).collect();
    let expected: Vec<usize> =
        plans.iter().map(|p| qpipe::exec::iter::run(p, &ctx).unwrap().len()).collect();

    let before = engine.metrics().snapshot();
    // Submit the whole burst up front (admission absorbs it).
    let handles: Vec<_> = plans.iter().map(|p| engine.submit(p.clone()).unwrap()).collect();
    // Churn: cancel a handful of queries that are still *queued*.
    let mut cancelled = Vec::new();
    let mut live = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        if cancelled.len() < 4 && h.is_queued() {
            cancelled.push(i);
            h.cancel();
        } else {
            live.push((i, h));
        }
    }
    assert!(!cancelled.is_empty(), "depth 2 vs 18 submissions must leave queued queries");
    // Every surviving query drains on its own thread (the client model
    // admission assumes) and must match the serial reference.
    std::thread::scope(|s| {
        for (i, h) in live {
            let expected = expected[i];
            s.spawn(move || {
                assert_eq!(h.collect().len(), expected, "query {i} diverged under churn");
            });
        }
    });

    // Everything settles back to baseline.
    let admit = engine.admission();
    assert_eq!(admit.queue_len(), 0, "no tickets left waiting");
    for name in qpipe::core::engine::ENGINE_NAMES {
        assert_eq!(admit.in_flight(name), 0, "{name} slots must return to baseline");
        assert!(
            admit.peak(name) <= depth,
            "{name} ran {} > depth {depth} queries concurrently",
            admit.peak(name)
        );
    }
    // Operator worker threads may outlive result delivery briefly; poll the
    // governor back to zero.
    let gov = engine.governor();
    for _ in 0..500 {
        if gov.in_use() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(gov.in_use(), 0, "all memory leases must return to baseline");
    assert!(
        gov.peak() <= global_mem as u64,
        "granted memory peaked at {} > global budget {global_mem}",
        gov.peak()
    );

    let delta = engine.metrics().snapshot().delta_since(&before);
    assert_eq!(delta.admitted, (m - cancelled.len()) as u64, "cancelled tickets never admit");
    assert_eq!(delta.rejected, cancelled.len() as u64, "queued cancellations count as rejected");
    assert!(delta.queued > 0, "an 18-query burst at depth 2 must queue");
    // The metric covers every governor sharing these metrics (the engine's
    // and the serial reference context's) — none may exceed the budget.
    assert!(
        engine.metrics().snapshot().mem_peak <= global_mem as u64,
        "mem_peak metric exceeded the global budget"
    );
}

#[test]
fn interleaved_updates_and_queries_stay_consistent() {
    let catalog = fresh_catalog(99);
    let ctx = ExecContext::new(catalog.clone());
    let engine = QPipe::new(catalog, QPipeConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    let plan = query(6, &mut rng);
    let expected = qpipe::exec::iter::run(&plan, &ctx).unwrap();
    std::thread::scope(|s| {
        // Writer thread takes exclusive locks repeatedly.
        let e = engine.clone();
        s.spawn(move || {
            for _ in 0..10 {
                e.submit_update("lineitem", 3).unwrap();
            }
        });
        for _ in 0..3 {
            let e = engine.clone();
            let (p, expected) = (plan.clone(), &expected);
            s.spawn(move || {
                for i in 0..4 {
                    let got = e.submit(p.clone()).unwrap().collect();
                    assert_rows_equivalent(got, expected.clone(), &format!("read {i}"));
                }
            });
        }
    });
}
