//! Engine lifecycle: shutdown must join every engine thread, and a client's
//! cancel must settle a running query's slots, leases and spill files.
//!
//! `QPipe`'s only threads are its µEngine pools' workers (packet hosts and
//! scanners alike), which park until the engine drops; packets are
//! dispatched on the submitting thread. Dropping the engine must wind every
//! worker down — an engine-per-request embedding would otherwise accumulate
//! threads until exhaustion. A query ends by completing, failing, or being
//! cancelled or dropped by its client; no clock ends one.

use qpipe::prelude::*;
use qpipe::quick_system;
use qpipe::workloads::harness::await_idle;
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
    let cycle = |catalog: &Arc<Catalog>| {
        let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
        let rows = engine.submit(PlanNode::scan("t")).unwrap().try_collect().unwrap();
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

/// End-to-end cancel: while a multi-pass sort runs over a hash join,
/// `QPipe::leftovers` names the query's admission slots, the units the
/// join's build side leases and the sort's spill run files; a client that
/// cancels it gets the slots back at once, and the leases and run files as
/// soon as the operators wind down, within the harness's one bounded wait.
/// The engine stays usable.
#[test]
fn cancelling_a_running_sort_releases_its_slots_leases_and_spill_files() {
    // A latency-charging disk paces the multi-pass sort by its reads.
    let catalog = quick_system(DiskConfig::experiment(), 64);
    let rows = |n: i64, k: i64| (0..n).map(|i| vec![Value::Int(i % k), Value::Int(i)]).collect();
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    catalog.create_table("big", schema.clone(), rows(30_000, 1009), None).unwrap();
    catalog.create_table("dim", schema, rows(1009, 1009), None).unwrap();
    let config = QPipeConfig {
        exec: ExecConfig { sort_budget: 256, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    assert_eq!(engine.leftovers(), Vec::<String>::new(), "a fresh engine is idle");
    // The join leases its build side for as long as it probes `big`, while
    // the sort above it spills a run per batch.
    let plan = PlanNode::scan("dim").hash_join(PlanNode::scan("big"), 0, 0);
    let sort = engine.submit(plan.sort(vec![SortKey::asc(3)])).unwrap();
    assert!(!sort.is_queued(), "capacity was free");
    let started = Instant::now();
    let left = loop {
        let left = engine.leftovers();
        let names = |what: &str| left.iter().any(|l| l.contains(what));
        if names("spill run file ") && names("memory unit(s) still leased") {
            break left;
        }
        assert!(started.elapsed() < Duration::from_secs(10), "no run and lease at once: {left:?}");
        std::thread::sleep(Duration::from_millis(1));
    };
    // A query holds one slot on each µEngine its plan touches.
    for engine in ["sort", "hashjoin", "scan"] {
        let slot = format!("µEngine {engine}: 1 admission slot(s) in flight");
        assert!(left.contains(&slot), "{slot:?} missing from {left:?}");
    }
    sort.cancel();
    assert_eq!(await_idle(&engine), Vec::<String>::new(), "slots, leases and run files back");
    let count = PlanNode::scan("big").aggregate(vec![], vec![AggSpec::count_star()]);
    let rows = engine.submit(count).unwrap().try_collect().unwrap();
    assert_eq!(rows, vec![vec![Value::Int(30_000)]], "the engine serves the next query");
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
