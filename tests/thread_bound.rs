//! Thread-count bound under a query burst.
//!
//! The bound is on the *process's* threads (`/proc/self/task`), so this test
//! lives in an integration-test binary of its own: next to sibling tests that
//! boot their own ~40–110-thread engines in parallel, the count says nothing
//! about the one engine under test.

use qpipe::prelude::*;
use qpipe::quick_system;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(all threads, scanner threads)` of this process. Table `t`'s scanner
/// threads are told apart by name (`qpipe-scan-<table>`; the morsel pool's
/// workers are `qpipe-scan-tasks-w`).
fn live_threads() -> (usize, usize) {
    let mut all = 0;
    let mut scanners = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("linux procfs").flatten() {
        all += 1;
        // A thread may exit between the listing and the read: not a scanner.
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        scanners += usize::from(comm.trim_end() == "qpipe-scan-t");
    }
    (all, scanners)
}

/// Wait (bounded) for `done`; threads exit asynchronously, a few instructions
/// after the result that made them unnecessary was observed.
fn settle(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "{what}: threads alive {:?}", live_threads());
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Fault-free burst on fixed pools: the engine's thread count stays bounded
/// by its service threads (detector, sweeper, dispatchers, pool workers —
/// all spawned at boot) plus the scanner threads of the scans admission lets
/// run at once, no matter how many queries are submitted. Scan start is
/// wait-free, so a tiny scan's thread lives only as long as its scan: the
/// burst must neither pile scanner threads up nor leave one behind.
#[test]
fn query_burst_keeps_thread_count_bounded() {
    let catalog = quick_system(DiskConfig::instant(), 256);
    catalog
        .create_table(
            "t",
            Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]),
            (0..2000).map(|i| vec![Value::Int(i % 97), Value::Int(i)]).collect(),
            None,
        )
        .unwrap();
    let config = QPipeConfig {
        exec: ExecConfig { pool_workers: 2, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    // Scans in flight at once: the scan µEngine's admission depth.
    let depth = engine.config().admit.queue_depth;
    assert_eq!(depth, 4, "2 × pool_workers");
    assert_eq!(engine.submit(PlanNode::scan("t")).unwrap().collect().len(), 2000);
    settle("warm-up scanner never exited", || live_threads().1 == 0);
    let steady = live_threads().0;

    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut peak = (0, 0);
            while !stop.load(Ordering::Relaxed) {
                let (all, scanners) = live_threads();
                peak = (peak.0.max(all), peak.1.max(scanners));
                std::thread::yield_now();
            }
            peak
        })
    };
    let handles: Vec<_> = (0..48)
        .map(|_| engine.submit(PlanNode::scan("t")).expect("admission accepts the burst"))
        .collect();
    for h in handles {
        assert_eq!(h.try_collect().expect("fault-free query").len(), 2000);
    }
    stop.store(true, Ordering::Relaxed);
    let (peak_all, peak_scanners) = sampler.join().unwrap();
    assert_eq!(engine.metrics().snapshot().worker_panics, 0, "fault-free run");
    // At most `depth` scans run; a finished scanner may still be unindexing
    // its group while the query admitted in its place starts the next one, so
    // allow one exiting thread per slot. 48 queries, never 48 threads.
    assert!(
        peak_scanners <= 2 * depth,
        "scanner threads must stay admission-bounded: peak {peak_scanners} > 2 × {depth}"
    );
    // Everything else is fixed at boot; `+ 1` is the sampler.
    assert!(
        peak_all <= steady + 2 * depth + 1,
        "thread count must stay pool-bounded: peak {peak_all} > steady {steady} + {}",
        2 * depth + 1
    );
    settle("the burst left threads behind", || live_threads() == (steady, 0));
}
