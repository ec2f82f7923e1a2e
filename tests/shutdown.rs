//! Engine lifecycle: shutdown must join every engine thread, and the
//! per-query deadline and the queue timeout must settle overdue work.
//!
//! `QPipe`'s only threads are its µEngine pools' workers (packet hosts and
//! scanners alike), which park until the engine drops; packets are
//! dispatched on the submitting thread, and a deadline or queue timeout
//! fires on the client thread that reads the query's answer. Dropping the
//! engine must wind every worker down — an engine-per-request embedding
//! would otherwise accumulate threads until exhaustion.

use qpipe::prelude::*;
use qpipe::quick_system;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("linux procfs").count()
}

fn demo_catalog(rows: i64) -> Arc<Catalog> {
    let catalog = quick_system(DiskConfig::instant(), 256);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    catalog
        .create_table(
            "t",
            schema,
            (0..rows).map(|i| vec![Value::Int(i % 97), Value::Int(i)]).collect(),
            None,
        )
        .unwrap();
    catalog
}

/// Build + query + drop an engine repeatedly: the thread count must return
/// to baseline each time (pool workers and scanners all joined or wound
/// down, none accumulated).
#[test]
fn repeated_engine_lifecycles_do_not_leak_threads() {
    let catalog = demo_catalog(500);
    // Deadline + queue timeout set: every read also asks when the query
    // falls due, so this exercises the engine with every knob it has.
    let config = QPipeConfig {
        exec: ExecConfig { query_deadline: Some(Duration::from_secs(30)), ..ExecConfig::default() },
        admit: AdmitConfig {
            queue_timeout: Some(Duration::from_secs(30)),
            ..AdmitConfig::default()
        },
        ..QPipeConfig::default()
    };
    let cycle = |catalog: &Arc<Catalog>| {
        let engine = QPipe::new(catalog.clone(), config);
        let rows = engine.submit(PlanNode::scan("t")).unwrap().collect();
        assert_eq!(rows.len(), 500);
        drop(engine);
    };
    // Warm-up reaches the runtime's steady state (test harness threads,
    // lazily initialized pools) before the baseline is taken.
    cycle(&catalog);
    let settle = |bound: usize, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let n = live_threads();
            if n <= bound {
                return n;
            }
            assert!(Instant::now() < deadline, "{what}: {n} threads alive, want <= {bound}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let baseline = settle(usize::MAX, "unreachable");
    for i in 0..5 {
        cycle(&catalog);
        settle(baseline, &format!("cycle {i} leaked threads"));
    }
}

/// End-to-end deadline: a query that outlives `query_deadline` is failed by
/// its client's read with `QError::Timeout`, its admission slots are
/// released, and the engine stays usable for the next query.
#[test]
fn query_deadline_times_out_slow_queries_end_to_end() {
    // A latency-charging disk makes the multi-pass sort take real time.
    let catalog = quick_system(DiskConfig::experiment(), 64);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    catalog
        .create_table(
            "big",
            schema,
            (0..30_000).map(|i| vec![Value::Int(i % 1009), Value::Int(i)]).collect(),
            None,
        )
        .unwrap();
    let config = QPipeConfig {
        exec: ExecConfig {
            query_deadline: Some(Duration::from_millis(5)),
            sort_budget: 256,
            ..ExecConfig::default()
        },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    let plan = PlanNode::scan("big").sort(vec![SortKey::asc(0)]);
    let err = engine
        .submit(plan)
        .unwrap()
        .try_collect()
        .expect_err("a 5 ms deadline must fire on a multi-second sort");
    assert_eq!(err, QError::Timeout, "deadline failure surfaces as Timeout");
    assert_eq!(engine.metrics().snapshot().query_timeouts, 1);
    // Slots released: a fast follow-up query runs to completion.
    let engine2 = engine.clone();
    let rows = engine2
        .submit(PlanNode::scan("big").aggregate(vec![], vec![AggSpec::count_star()]))
        .unwrap()
        .try_collect();
    // The count query is itself subject to the 5 ms deadline on the slow
    // disk, so accept either outcome — what matters is a settled result.
    match rows {
        Ok(r) => assert_eq!(r[0][0], Value::Int(30_000)),
        Err(e) => assert_eq!(e, QError::Timeout),
    }
}

/// End-to-end queue timeout: with one slot per µEngine, a query queued
/// behind an undrained one is rejected by its client's read with
/// `QError::Admission` once it outstays `queue_timeout`, and the engine
/// serves the next query as soon as the slot frees.
#[test]
fn queue_timeout_rejects_a_queued_query_end_to_end() {
    let catalog = demo_catalog(5000);
    let config = QPipeConfig {
        admit: AdmitConfig {
            queue_depth: 1,
            queue_timeout: Some(Duration::from_millis(20)),
            ..AdmitConfig::default()
        },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    // Undrained: its scan parks on the full root pipe, holding the slot.
    let first = engine.submit(PlanNode::scan("t")).unwrap();
    let err = engine
        .submit(PlanNode::scan("t"))
        .unwrap()
        .try_collect()
        .expect_err("a query queued past its timeout must be rejected");
    assert!(matches!(err, QError::Admission(_)), "got {err:?}");
    assert_eq!(engine.metrics().snapshot().rejected, 1);
    assert_eq!(first.try_collect().unwrap().len(), 5000);
    let rows = engine.submit(PlanNode::scan("t")).unwrap().try_collect().unwrap();
    assert_eq!(rows.len(), 5000, "the freed slot serves the next query");
}

/// The deadline runs from admission. With one slot per µEngine, a query
/// queued behind an undrained one waits well past `D` before it is
/// admitted; its client, already blocked reading it, is woken by the
/// admission and times out `D` later. The table lock holds the admitted
/// scan back, so nothing but the deadline can end that read.
#[test]
fn deadline_runs_from_admission_for_a_client_waiting_in_the_queue() {
    let catalog = demo_catalog(5000);
    let schema = Schema::of(&[("k", DataType::Int)]);
    catalog
        .create_table("u", schema, (0..100).map(|i| vec![Value::Int(i)]).collect(), None)
        .unwrap();
    let d = Duration::from_millis(50);
    let config = QPipeConfig {
        exec: ExecConfig { query_deadline: Some(d), ..ExecConfig::default() },
        admit: AdmitConfig { queue_depth: 1, ..AdmitConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog.clone(), config);
    // Undrained, so unread: it holds the slot and never expires.
    let first = engine.submit(PlanNode::scan("t")).unwrap();
    let gate = catalog.locks().lock_exclusive("u");
    let queued = engine.submit(PlanNode::scan("u")).unwrap();
    assert!(queued.is_queued());
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let result = queued.try_collect();
        tx.send((result, Instant::now())).unwrap();
    });
    // `D` after submission passes while the query waits for its slot.
    std::thread::sleep(2 * d);
    let released = Instant::now();
    drop(first);
    let received = rx.recv_timeout(Duration::from_secs(10));
    drop(gate);
    reader.join().unwrap();
    let (result, failed_at) = received.expect("the reader never gave up at its due");
    assert_eq!(result.expect_err("the deadline must fire"), QError::Timeout);
    assert!(
        failed_at >= released + d,
        "timed out {:?} after admission, before its deadline {d:?}",
        failed_at - released
    );
    assert_eq!(engine.metrics().snapshot().query_timeouts, 1);
}

/// A query's outcome depends only on when its client reads: one that
/// finished well within its deadline but is read after it fails with
/// `QError::Timeout`, though every row is buffered in its root pipe.
#[test]
fn a_finished_query_read_after_its_deadline_times_out() {
    let d = Duration::from_millis(250);
    let config = QPipeConfig {
        exec: ExecConfig { query_deadline: Some(d), ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(demo_catalog(500), config);
    let late = engine.submit(PlanNode::scan("t")).unwrap();
    // The scanner is the plan's only job, and its busy time is recorded
    // once it has pushed every row into the root pipe and closed it.
    let submitted = Instant::now();
    while engine.metrics().snapshot().worker_busy_ns == 0 {
        assert!(submitted.elapsed() < d, "the scan did not finish within its deadline");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(d);
    assert_eq!(late.try_collect().expect_err("read after its deadline"), QError::Timeout);
    assert_eq!(engine.metrics().snapshot().query_timeouts, 1);
}

/// An injected panic on a scanner's page read fails only the packets
/// attached to that scan; the per-page catch counts it once, and the same
/// engine keeps serving later queries.
#[test]
fn injected_worker_panic_fails_only_owning_packet() {
    use qpipe::common::{FaultInjector, FaultKind, FaultOp, FaultRule};
    let catalog = demo_catalog(5000);
    let disk = catalog.disk().clone();
    let engine = QPipe::new(catalog, QPipeConfig::default());
    // First read of t's block 0 panics on the scanner that fetches it.
    let rules = vec![FaultRule::new(FaultKind::Panic)
        .on_file("t")
        .on_blocks(0..1)
        .on_op(FaultOp::Read)
        .times(1)];
    disk.set_fault_injector(Some(Arc::new(FaultInjector::new(11, rules))));
    let err = engine
        .submit(PlanNode::scan("t"))
        .unwrap()
        .try_collect()
        .expect_err("the panicked scan's query must fail, not hang or truncate");
    assert!(matches!(err, QError::Exec(_) | QError::Storage(_)), "clean failure: {err:?}");
    disk.set_fault_injector(None);
    assert_eq!(engine.metrics().snapshot().worker_panics, 1, "one panic, caught once");
    // The engine is intact: it serves the next queries.
    for _ in 0..3 {
        let rows = engine.submit(PlanNode::scan("t")).unwrap().try_collect().unwrap();
        assert_eq!(rows.len(), 5000);
    }
    assert_eq!(engine.metrics().snapshot().worker_panics, 1, "no further panics");
}
