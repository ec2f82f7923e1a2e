//! Quickstart: boot QPipe, load a table, and watch two concurrent queries
//! share one physical scan.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use qpipe::prelude::*;
use qpipe::quick_system;

fn main() -> QResult<()> {
    // 1. A storage stack: simulated disk + buffer pool + catalog.
    //    `DiskConfig::experiment()` charges realistic per-block latency.
    let catalog = quick_system(DiskConfig::experiment(), 128);

    // 2. Bulk-load a table (sorted on column 0 → clustered index for free).
    //    The last argument is the page layout flag: `StorageLayout::Columnar`
    //    stores PAX-style columnar pages, so the shared scanner materializes
    //    each page's column vectors straight from the page bytes — no
    //    row-codec decode at scan time (`StorageLayout::Row`, the
    //    `create_table` default, keeps classic slotted pages).
    let rows: Vec<Tuple> = (0..50_000i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 100), Value::Float((i % 997) as f64)])
        .collect();
    catalog.create_table_with_layout(
        "events",
        Schema::of(&[("id", DataType::Int), ("kind", DataType::Int), ("amount", DataType::Float)]),
        rows,
        Some(0),
        qpipe::storage::StorageLayout::Columnar,
    )?;

    // 3. Boot the QPipe engine (OSP on by default). Every µEngine's packet
    //    pool grows on demand — an admitted packet always gets a thread, so
    //    there is nothing to size. Each shared scan has one scanner thread
    //    that reads its table in page order and runs every attached query's
    //    filter as it goes. `tracing: true` (off by default — the hot path then pays nothing)
    //    gives every query an event journal and a per-operator profile,
    //    demonstrated in step 7.
    let config = QPipeConfig {
        exec: ExecConfig { tracing: true, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog.clone(), config);

    // 4. Two analytics queries with different predicates — submitted
    //    together. QPipe's scan µEngine serves both from ONE circular scan.
    let q = |kind: i64| {
        PlanNode::scan_filtered("events", Expr::col(1).eq(Expr::lit(kind)))
            .aggregate(vec![], vec![AggSpec::count_star(), AggSpec::sum(Expr::col(2))])
    };
    let before = engine.metrics().snapshot();
    let h1 = engine.submit(q(7))?;
    let h2 = engine.submit(q(42))?;
    let r1 = h1.try_collect()?;
    let r2 = h2.try_collect()?;
    let delta = engine.metrics().snapshot().delta_since(&before);

    println!("query(kind=7)  -> count={} sum={}", r1[0][0], r1[0][1]);
    println!("query(kind=42) -> count={} sum={}", r2[0][0], r2[0][1]);
    println!();
    let table_pages = catalog.table("events")?.num_pages()?;
    println!("table size:            {table_pages} pages");
    println!(
        "disk blocks read:      {} (two independent scans would read {})",
        delta.disk_blocks_read,
        2 * table_pages
    );
    println!("OSP satellite attaches: {}", delta.osp_attaches);

    // 5. Or skip plan-building entirely: submit SQL text. The front end
    //    parses, binds against the catalog, and plans with the
    //    statistics-free greedy planner. Because plans are canonicalized,
    //    differently-phrased variants of one logical query land on the SAME
    //    plan signature — so they share OSP windows just like identical
    //    hand-built plans.
    let planned = engine
        .plan_sql("SELECT kind, COUNT(*), SUM(amount) FROM events WHERE kind < 10 GROUP BY kind")?;
    println!();
    println!("EXPLAIN of the SQL query:\n{}", planned.explain());
    let by_sql = engine
        .submit_sql("SELECT kind, COUNT(*), SUM(amount) FROM events WHERE kind < 10 GROUP BY kind")?
        .try_collect()?;
    // Same query, commuted comparison + redundant conjunct: same signature.
    let variant = engine.plan_sql(
        "SELECT kind, COUNT(*), SUM(amount) FROM events WHERE 10 > kind AND 1 = 1 GROUP BY kind",
    )?;
    println!(
        "groups: {}   phrasing-invariant signature: {}",
        by_sql.len(),
        planned.signature == variant.signature
    );

    // 6. Failure semantics. The storage layer carries a deterministic fault
    //    injector; faults surface to queries under a simple contract:
    //    * transient I/O errors heal invisibly inside the buffer pool's
    //      bounded retry (`io_retries` counts the healing work),
    //    * permanent faults and checksum-detected corruption fail the
    //      affected queries with a clean `Err` — `try_collect` never passes
    //      truncated or corrupted output off as a complete result,
    //    * an operator panic is contained: its queries fail, the engine
    //      keeps serving everyone else (`worker_panics` counts containment).
    let disk = catalog.disk().clone();
    disk.set_fault_injector(Some(std::sync::Arc::new(FaultInjector::new(
        42,
        // Reads of the first two blocks fail twice each, then heal.
        vec![FaultRule::new(FaultKind::Transient)
            .on_file("events")
            .on_blocks(0..2)
            .on_op(FaultOp::Read)
            .times(2)],
    ))));
    let before = engine.metrics().snapshot();
    let healed = engine.submit(q(7))?.try_collect()?; // completes despite the faults
    disk.set_fault_injector(None);
    let delta = engine.metrics().snapshot().delta_since(&before);
    println!();
    println!("with injected transient faults: count={} (same answer)", healed[0][0]);
    println!("faults injected:        {}", delta.faults_injected);
    println!("I/O retries (healed):   {}", delta.io_retries);

    // 7. Where did the time go? With `tracing` on, each query carries a
    //    per-operator probe tree and an event journal. Grab both handles
    //    *before* `collect`/`try_collect` (which consume the query handle),
    //    then snapshot after the query drains:
    //    * `PlanNode::explain_analyze` renders the plan annotated with
    //      measured rows/batches, busy vs pipe-wait vs I/O-wait time, and —
    //      the QPipe payoff made visible — pages served by an OSP host
    //      instead of disk;
    //    * `Metrics::render_text()` is a Prometheus-style exposition of the
    //      engine-wide counters plus p50/p95/p99 latency histograms (query
    //      latency, admission wait, bufferpool fetch, pool queue wait) —
    //      those histograms fill whether or not tracing is on.
    let plan = q(13);
    let handle = engine.submit(plan.clone())?;
    let tree = handle.probe_tree().expect("engine booted with tracing");
    let journal = handle.trace().expect("engine booted with tracing");
    let rows = handle.try_collect()?;
    println!();
    println!("EXPLAIN ANALYZE (kind=13, {} group rows):", rows.len());
    println!("{}", plan.explain_analyze(&tree.snapshot()));
    println!("query journal:\n{}", journal.render());
    println!("metrics exposition:\n{}", engine.metrics().render_text());

    // 8. Hacking on the engine? The conventions this contract rests on —
    //    no panics in engine code, threads only via WorkerPool, no blocking
    //    pipe calls under a lock, no dead metrics — are machine-checked:
    //
    //        cargo run --release -p qpipe-lint
    //
    //    emits `file:line` diagnostics for rules R1–R4 and fails on any
    //    finding (a waiver with a reason excuses one site). CI runs it on
    //    every PR.
    Ok(())
}
