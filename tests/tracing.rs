//! End-to-end tracing/profiling coverage: a Q1-shaped query's
//! `QueryProfile` must agree with the engine-global `Metrics` counters, an
//! OSP-shared scan pair must show host-served pages on the satellite's
//! profile and journal, and `tracing=false` must record nothing while
//! leaving results bit-identical.

use qpipe::common::trace::TraceEvent;
use qpipe::prelude::*;
use qpipe::quick_system;
use qpipe::storage::StorageLayout;
use qpipe_workloads::tpch::{build_tpch_with_layout, q1, q6, TpchScale};
use std::sync::Arc;

fn columnar_catalog() -> Arc<Catalog> {
    let catalog = quick_system(DiskConfig::instant(), 512);
    build_tpch_with_layout(&catalog, TpchScale::tiny(), 42, StorageLayout::Columnar).unwrap();
    catalog
}

fn tracing_config(tracing: bool) -> QPipeConfig {
    QPipeConfig { exec: ExecConfig { tracing, ..ExecConfig::default() }, ..QPipeConfig::default() }
}

/// The acceptance-bar scenario: Q1 (scan → aggregate) on a columnar
/// catalog with tracing on. The profile root is the aggregate, whose output
/// rows ARE the query's result — so its row count must equal both the
/// collected row count and the `tuples_produced` metrics delta.
#[test]
fn q1_profile_rows_match_metrics_counters() {
    let engine = QPipe::new(columnar_catalog(), tracing_config(true));
    let before = engine.metrics().snapshot();
    let handle = engine.submit(q1(90)).unwrap();
    let tree = handle.probe_tree().expect("tracing on");
    let trace = handle.trace().expect("tracing on");
    let rows = handle.try_collect().unwrap();
    assert!(!rows.is_empty());

    let delta = engine.metrics().snapshot().delta_since(&before);
    assert_eq!(delta.tuples_produced, rows.len() as u64);

    let profile = tree.snapshot();
    assert_eq!(profile.op, "agg");
    assert_eq!(
        profile.stats.rows, delta.tuples_produced,
        "root operator rows must equal tuples_produced: {profile:?}"
    );
    assert!(profile.stats.batches >= 1);

    let scan = &profile.children[0];
    assert_eq!(scan.op, "scan");
    assert!(scan.stats.rows >= rows.len() as u64, "scan feeds the aggregate: {scan:?}");
    // The scanner sends full batches: every batch but the last carries at
    // least `DEFAULT_CAPACITY` rows, and the probe counts what it sent.
    let full = scan.stats.rows / ColBatch::DEFAULT_CAPACITY as u64;
    assert!((1..=full + 1).contains(&scan.stats.batches), "{scan:?}");
    // No concurrent partner: every page came off disk, none from a host.
    assert_eq!(scan.stats.pages_from_host, 0);
    assert!(scan.stats.pages_from_disk > 0);
    // Scan packets bypass the µEngine worker wrapper, so the scanner charges
    // the probe itself: page decode and Q1's predicate/projection kernels
    // are the scan's busy time, not its parent's pipe wait.
    assert!(scan.stats.busy_ns > 0, "scan work must be attributed to the scan: {scan:?}");

    // The journal saw both operators dispatch and the scan drain — with the
    // same busy time the profile reports.
    let events = trace.events();
    assert!(
        events.iter().any(|e| matches!(e.event, TraceEvent::PacketDispatched { op: "agg" })),
        "missing agg dispatch: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            TraceEvent::OperatorFinished { op: "scan", busy_ns, .. } if busy_ns > 0
        )),
        "missing scan completion with busy time: {events:?}"
    );

    // And the pretty-printer renders the measured tree.
    let text = q1(90).explain_analyze(&profile);
    assert!(text.contains("agg"), "{text}");
    assert!(text.contains("rows"), "{text}");
}

/// Two q6-shaped queries with different predicates share one physical
/// lineitem scan (scan-level OSP): the second to arrive attaches as a
/// satellite, so its profile and journal must show pages served by the
/// host rather than read from disk.
#[test]
fn osp_shared_scan_pair_records_host_served_pages_on_satellite() {
    let catalog = columnar_catalog();
    let engine = QPipe::new(catalog.clone(), tracing_config(true));
    let before = engine.metrics().snapshot();
    // The host's scanner waits at lineitem's lock until both are submitted,
    // so the second always finds the first's scan in flight.
    let lock = catalog.locks().lock_exclusive("lineitem");
    let host = engine.submit(q6(0, 0.05, 30)).unwrap();
    let sat = engine.submit(q6(400, 0.05, 30)).unwrap();
    drop(lock);
    let sat_tree = sat.probe_tree().expect("tracing on");
    let sat_trace = sat.trace().expect("tracing on");
    let r_host = host.collect();
    let r_sat = sat.collect();
    assert!(!r_host.is_empty() && !r_sat.is_empty());

    let delta = engine.metrics().snapshot().delta_since(&before);
    assert!(delta.osp_attaches >= 1, "the pair must share the scan: {delta:?}");

    let profile = sat_tree.snapshot();
    assert!(
        profile.total_pages_from_host() > 0,
        "satellite must be fed pages by the host scan: {profile:?}"
    );
    let events = sat_trace.events();
    assert!(
        events.iter().any(|e| matches!(e.event, TraceEvent::OspAttach { .. })),
        "missing attach event: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            &e.event,
            TraceEvent::OspDetach { pages_from_host, .. } if *pages_from_host > 0
        )),
        "missing detach event with host-served pages: {events:?}"
    );
}

/// With `tracing` off no trace or probe state exists at all — the handle
/// returns `None` for both, i.e. zero events are recorded — and the results
/// are bit-identical to a traced run of the same seeded catalog.
#[test]
fn tracing_off_is_silent_and_bit_identical() {
    let run = |tracing: bool| {
        let engine = QPipe::new(columnar_catalog(), tracing_config(tracing));
        let handle = engine.submit(q1(90)).unwrap();
        let observability = (handle.trace().is_some(), handle.probe_tree().is_some());
        (handle.try_collect().unwrap(), observability)
    };
    let (rows_off, (trace_off, profile_off)) = run(false);
    assert!(!trace_off && !profile_off, "tracing off must allocate no per-query state");
    let (rows_on, (trace_on, profile_on)) = run(true);
    assert!(trace_on && profile_on);
    assert_eq!(rows_off, rows_on, "tracing must not change query results");
}
