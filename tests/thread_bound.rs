//! Thread-count bounds: at boot, under a query burst, and after drop.
//!
//! The bounds are on the *process's* threads (`/proc/self/task`), so this
//! test lives in an integration-test binary of its own — and is one `#[test]`,
//! not two: next to sibling tests that boot their own engines in parallel,
//! the count says nothing about the one engine under test.

use qpipe::prelude::*;
use qpipe::quick_system;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(all threads, scan workers)` of this process. The scan µEngine's pool
/// names its workers `qpipe-scan-w`, and one engine runs at a time here.
fn live_threads() -> (usize, usize) {
    let mut all = 0;
    let mut scanners = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("linux procfs").flatten() {
        all += 1;
        // A thread may exit between the listing and the read: not a scanner.
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        scanners += usize::from(comm.trim_end() == "qpipe-scan-w");
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

/// An engine boots no thread: packets are dispatched on the submitting
/// thread, a deadlock is broken by the waiter whose edge closes it, no clock
/// settles a query, and every pool starts empty. A fault-free burst of
/// distinct hash joins then grows the hashjoin pool to at most one worker per
/// query admission lets run (the plan puts one packet on that µEngine) and
/// the scan pool to at most one worker per scan those queries run — no
/// matter how many queries are submitted. Pool
/// workers park until the engine drops; then every thread is gone.
#[test]
fn boot_and_query_burst_keep_thread_count_bounded() {
    let catalog = quick_system(DiskConfig::instant(), 256);
    let schema = || Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let rows = |n: i64| (0..n).map(|i| vec![Value::Int(i % 97), Value::Int(i)]).collect();
    catalog.create_table("t", schema(), rows(2000), None).unwrap();
    catalog.create_table("u", schema(), rows(500), None).unwrap();
    let depth = 4;
    let config = QPipeConfig {
        admit: AdmitConfig { queue_depth: depth, ..AdmitConfig::default() },
        ..QPipeConfig::default()
    };
    let before = live_threads().0;
    let idle_engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    assert_eq!(live_threads().0 - before, 0, "boot starts no thread");
    drop(idle_engine);
    settle("the idle engine left threads behind", || live_threads().0 == before);

    let engine = QPipe::new(catalog, config);
    assert_eq!(engine.config().admit.queue_depth, depth, "the configured depth is the depth");
    let boot = live_threads().0;

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
    // u (build, `v < 452 + i`: distinct plans, so no join is shared) ⋈ t.
    let join = |i: i64| {
        PlanNode::scan_filtered("u", Expr::col(1).lt(Expr::lit(452 + i))).hash_join(
            PlanNode::scan("t"),
            1,
            1,
        )
    };
    let handles: Vec<_> =
        (0..48).map(|i| engine.submit(join(i)).expect("admission accepts the burst")).collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.try_collect().expect("fault-free query").len(), 452 + i);
    }
    stop.store(true, Ordering::Relaxed);
    let (peak_all, peak_scanners) = sampler.join().unwrap();
    assert_eq!(engine.metrics().snapshot().worker_panics, 0, "fault-free run");
    // At most `depth` queries run, each with one join packet and two scans.
    // A finished scanner may still be unindexing its group — and a finished
    // join worker still be on its way back to idle — while the query admitted
    // in its place starts the next one, so allow one such worker per slot.
    // 48 queries, never 48 threads.
    let (worker_bound, scanner_bound) = (2 * depth, 2 * 2 * depth);
    assert!(
        peak_scanners <= scanner_bound,
        "scan workers must stay admission-bounded: peak {peak_scanners} > {scanner_bound}"
    );
    // `+ 1` is the sampler.
    assert!(
        peak_all <= boot + worker_bound + scanner_bound + 1,
        "thread count must stay admission-bounded: peak {peak_all} > boot {boot} + {}",
        worker_bound + scanner_bound + 1
    );
    // Idle workers park in their pools until the engine drops.
    assert!(live_threads().0 <= boot + worker_bound + scanner_bound);
    drop(engine);
    settle("the dropped engine left threads behind", || live_threads().0 == before);
}
