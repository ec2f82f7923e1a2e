//! Two clients submit the *identical* two-table join at the same time, over
//! and over, with OSP on. Each pair of in-flight copies shares at two levels
//! at once — one query's hash join hosts the other's while the other's
//! aggregate hosts the first's — so each query's subtree is severed while a
//! part of it is still feeding the other query. The cancellation rule (a
//! cancelled packet stops only when nobody reads its output) is what keeps
//! both answers whole; stated three different ways it returned **0 rows for a
//! 2-row answer with no error** about once in 200 submissions:
//!
//! * the µEngine dispatcher dropped a severed scan packet on its token alone,
//!   and the join it still fed read a clean, empty build side;
//! * a host tested "does anybody want me" and closed in two steps, and a
//!   satellite attaching in between read the truncated stream as EOF.
//!
//! Every result is compared with the iterator engine's, as a multiset; an
//! `Err` fails the test too. A binary of its own: it wants both cores.

use qpipe::prelude::*;
use qpipe::quick_system;
use qpipe::storage::StorageLayout;
use qpipe::workloads::tpch::{build_tpch_with_layout, TpchScale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

const SQL: &str = "SELECT n_name, COUNT(*) FROM nation, region \
                   WHERE n_regionkey = r_regionkey AND r_regionkey = 4 GROUP BY n_name";
/// The race needs optimized code to show at a useful rate (and unoptimized
/// code to finish in one): debug builds only smoke it.
const SCALE: usize = if cfg!(debug_assertions) { 10 } else { 1 };

/// `clients` threads each submit [`SQL`] `rounds` times; returns how many
/// results differed from `expected` and how many submissions failed.
fn storm(engine: &QPipe, expected: &[Tuple], clients: usize, rounds: usize) -> (usize, usize) {
    let (wrong, errors) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let barrier = Barrier::new(clients);
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                barrier.wait();
                for _ in 0..rounds {
                    match engine.submit_sql(SQL).and_then(QueryHandle::try_collect) {
                        Ok(mut rows) => {
                            rows.sort();
                            if rows != expected {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    (wrong.into_inner(), errors.into_inner())
}

#[test]
fn identical_in_flight_joins_never_lose_rows() {
    let catalog = quick_system(DiskConfig::instant(), 512);
    build_tpch_with_layout(&catalog, TpchScale::tiny(), 42, StorageLayout::Row).unwrap();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let plan = engine.plan_sql(SQL).unwrap().plan;
    let mut expected = qpipe::exec::iter::run(&plan, &ExecContext::new(catalog)).unwrap();
    expected.sort();
    assert!(!expected.is_empty(), "the join must have an answer to lose");

    // Two clients lose rows to the dispatcher's drop about 50 times in these
    // 10 000 submissions; the host's two-step close needs more attach churn
    // to show — four clients hit it about 10 times in 100 000.
    for (clients, rounds) in [(2, 5_000 / SCALE), (4, 25_000 / SCALE)] {
        assert_eq!(
            storm(&engine, &expected, clients, rounds),
            (0, 0),
            "(wrong results, errors) in {clients} x {rounds} submissions of:\n  {SQL}"
        );
    }
    assert!(engine.metrics().snapshot().osp_attaches > 0, "the copies must have shared work");
}
