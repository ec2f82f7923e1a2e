//! Spill files leave nothing behind.
//!
//! The staged engine's external sort (`VecSort`) and grace hash join spill
//! columnar runs to `__tmp.*` files on the simulated disk. Each file is owned
//! by an `Arc`-backed RAII handle that deletes it when the last holder
//! (writer, run handle, or reader) drops. These tests pin the disk's temp
//! files back to none after completed, abandoned, partially consumed and
//! failed spilling queries. (The iterator engine sorts and joins in memory
//! and never spills.)

use qpipe::core::pipe::PipeConfig;
use qpipe::prelude::*;
use qpipe::quick_system;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_files(disk: &SimDisk) -> Vec<String> {
    let mut v: Vec<String> =
        disk.file_names().into_iter().filter(|n| n.starts_with("__tmp.")).collect();
    v.sort();
    v
}

/// Poll `done` until it holds; workers wind down asynchronously after their
/// query's handle drops or fails.
fn wait_for(what: &str, disk: &SimDisk, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "{what}; temp files: {:?}", tmp_files(disk));
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn table(catalog: &Arc<Catalog>, name: &str, n: i64) {
    let rows: Vec<Tuple> = (0..n)
        .map(|i| vec![Value::Int(i % 97), Value::Int(i), Value::str(format!("pay{i}"))])
        .collect();
    let schema = Schema::of(&[("k", DataType::Int), ("id", DataType::Int), ("pay", DataType::Str)]);
    catalog.create_table(name, schema, rows, None).unwrap();
}

#[test]
fn external_sort_leaves_no_temp_files() {
    let catalog = quick_system(DiskConfig::instant(), 256);
    table(&catalog, "t", 2000);
    let disk = catalog.disk().clone();
    // Budget far below 2000 rows: many spilled runs, k-way merged.
    let config = QPipeConfig {
        exec: ExecConfig { sort_budget: 64, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    let plan = PlanNode::scan("t").sort(vec![SortKey::asc(0), SortKey::desc(1)]);
    let rows = engine.submit(plan).unwrap().try_collect().unwrap();
    assert_eq!(rows.len(), 2000);
    assert_eq!(tmp_files(&disk), Vec::<String>::new(), "sort runs must be deleted");
}

#[test]
fn grace_hash_join_leaves_no_temp_files() {
    let catalog = quick_system(DiskConfig::instant(), 256);
    table(&catalog, "l", 1500);
    table(&catalog, "r", 500);
    let disk = catalog.disk().clone();
    // Budget far below the 1500-row build side: grace partitions spill.
    let config = QPipeConfig {
        exec: ExecConfig { hash_budget: 64, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    let plan = PlanNode::scan("l").hash_join(PlanNode::scan("r"), 0, 0);
    let before = engine.metrics().snapshot();
    let rows = engine.submit(plan).unwrap().try_collect().unwrap();
    assert!(!rows.is_empty());
    let delta = engine.metrics().snapshot().delta_since(&before);
    assert!(delta.vec_fallbacks > 0, "budget overflow must take the grace path");
    assert_eq!(tmp_files(&disk), Vec::<String>::new(), "grace partitions must be deleted");
}

/// A query abandoned mid-flight (its handle dropped before consuming any
/// output — the engine-level analogue of a cancelled/failed query) must also
/// release every spill file once its workers wind down.
#[test]
fn abandoned_spilling_query_releases_temp_files() {
    let catalog = quick_system(DiskConfig::instant(), 256);
    table(&catalog, "t", 4000);
    let disk = catalog.disk().clone();
    let config = QPipeConfig {
        exec: ExecConfig { sort_budget: 32, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    let plan = PlanNode::scan("t").sort(vec![SortKey::asc(0)]);
    let handle = engine.submit(plan).unwrap();
    drop(handle); // nobody will ever read the result
    wait_for("abandoned sort still holds temp files", &disk, || tmp_files(&disk).is_empty());
}

/// Fault-injection flavor: an I/O error injected *mid-spill* (every write to
/// a `__tmp.*` run file fails permanently) must fail the query with a clean
/// error, and the RAII run handles must still return the disk to zero temp
/// files — a failed spill is exactly the torn-down-operator path.
#[test]
fn injected_spill_write_failure_still_cleans_temp_files() {
    let catalog = quick_system(DiskConfig::instant(), 256);
    table(&catalog, "t", 2000);
    let disk = catalog.disk().clone();
    let config = QPipeConfig {
        exec: ExecConfig { sort_budget: 64, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    disk.set_fault_injector(Some(Arc::new(FaultInjector::new(
        13,
        vec![FaultRule::new(FaultKind::Permanent).on_file("__tmp.").on_op(FaultOp::Write)],
    ))));
    let plan = PlanNode::scan("t").sort(vec![SortKey::asc(0)]);
    let err = engine
        .submit(plan)
        .unwrap()
        .try_collect()
        .expect_err("a failed spill must fail the query, not truncate it");
    assert!(matches!(err, QError::Storage(_)), "got {err:?}");
    disk.set_fault_injector(None);
    wait_for("failed spill still holds temp files", &disk, || tmp_files(&disk).is_empty());
}

/// A spilling sort and a grace join dropped mid-stream: each has sent rows
/// and is parked on its full two-batch output pipe, its runs still on disk,
/// when the client drops the handle. The operator's next send finds no
/// reader, it unwinds, and every run deletes itself.
#[test]
fn partially_consumed_spilling_operators_release_temp_files() {
    let catalog = quick_system(DiskConfig::instant(), 256);
    table(&catalog, "l", 5000);
    table(&catalog, "r", 500);
    let disk = catalog.disk().clone();
    let config = QPipeConfig {
        exec: ExecConfig {
            sort_budget: 32,
            hash_budget: 32,
            tracing: true,
            ..ExecConfig::default()
        },
        pipe: PipeConfig { capacity: 2 },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    let plans = [
        PlanNode::scan("l").sort(vec![SortKey::asc(0)]),
        PlanNode::scan("l").hash_join(PlanNode::scan("r"), 0, 0),
    ];
    for plan in plans {
        let handle = engine.submit(plan).unwrap();
        // 5 000 sorted rows, or ~25 800 joined ones, are many more than two
        // 1 024-row batches: the operator parks mid-output with its runs alive.
        wait_for("the operator never sent rows with its runs on disk", &disk, || {
            handle.profile().unwrap().stats.rows > 0 && !tmp_files(&disk).is_empty()
        });
        drop(handle);
        wait_for("a dropped spilling operator still holds temp files", &disk, || {
            tmp_files(&disk).is_empty()
        });
    }
}
